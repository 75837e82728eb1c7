"""The :class:`TruthEngine` facade: one surface for batch, incremental and
streaming truth discovery.

Historically the library exposed three disjoint entry styles — to be wired
separately for every new scenario:

* ``TruthMethod.fit(claims)`` for batch solvers,
* an ``OnlineTruthFinder`` class for streams,
* an ``IntegrationPipeline`` class for end-to-end runs.

:class:`TruthEngine` unifies them behind a single sklearn-style lifecycle
(the two historical classes were removed in 1.4 after their deprecation
window):

* :meth:`TruthEngine.fit` — full batch fit on triples or a claim matrix;
* :meth:`TruthEngine.partial_fit` — integrate one arriving batch, scoring it
  with the closed-form LTMinc posterior (Equation 3) and periodically
  re-fitting the full model (paper Section 5.4);
* :meth:`TruthEngine.predict_proba` — score fitted facts, or new claims from
  the learned source quality without re-fitting;
* :meth:`TruthEngine.quality_report` — the learned per-source quality table;
* :meth:`TruthEngine.save` / :meth:`TruthEngine.load` / ``to_artifact`` —
  versioned on-disk serving snapshots consumed by
  :class:`~repro.serving.TruthService` (see :mod:`repro.serving`).

The solver itself is resolved through the
:class:`~repro.engine.registry.MethodRegistry` from a declarative
:class:`~repro.engine.config.EngineConfig`, so switching methods, backends or
hyperparameters is a configuration change, not a code change.

Scale-out is a configuration change too: an
:class:`~repro.engine.config.ExecutionConfig` with ``num_shards > 1`` makes
:meth:`TruthEngine.fit` (and streaming re-fits) hash-partition the corpus by
entity and run through :mod:`repro.parallel` — the
:class:`~repro.parallel.ShardPlanner` / :class:`~repro.parallel.ParallelExecutor`
/ :mod:`~repro.parallel.merge` pipeline — with score-parity guarantees per
method family (see the :mod:`repro.parallel` docs and the README's
"Scaling out" section).

The :func:`discover` one-liner covers the quickstart path::

    >>> import repro
    >>> result = repro.discover(triples, method="ltm", seed=0)  # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro import obs
from repro._deprecation import is_relational_table
from repro.core.base import SourceQualityTable, TruthMethod, TruthResult
from repro.core.gibbs import GibbsTrace
from repro.core.incremental import IncrementalLTM, prior_mean_predictor
from repro.core.priors import LTMPriors
from repro.data.claim_builder import build_claim_matrix
from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.data.raw import RawDatabase
from repro.engine.config import EngineConfig
from repro.engine.registry import MethodRegistry, default_registry
from repro.exceptions import (
    ConfigurationError,
    EmptyDatasetError,
    ModelError,
    NotFittedError,
    StreamError,
)
from repro.streaming.stream import ClaimBatch
from repro.types import Triple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.io.base import DataSource
    from repro.pipeline.integrate import IntegrationResult
    from repro.serving.artifact import TruthArtifact

__all__ = ["OnlineStepReport", "TruthEngine", "discover"]


def _is_source_like(data: Any) -> bool:
    """Whether ``data`` should resolve through :func:`repro.io.as_source`.

    Catalog keys, file paths, (deprecated) relational tables, datasets and
    :class:`~repro.io.base.DataSource` objects qualify; plain triple
    iterables keep the direct (copy-free) path.  Tables and datasets must
    not fall through to the iterable path: iterating them yields dict rows
    / nothing triple-shaped, not triples.
    """
    if isinstance(data, (str, Path, TruthDataset)) or is_relational_table(data):
        return True
    # Duck-typed so this hot check does not import repro.io on every call.
    return hasattr(data, "iter_triples") and hasattr(data, "iter_batches")


def _source_triples(data: Any) -> Iterable[Triple]:
    """Resolve a source-like input into its triple stream."""
    from repro.io.catalog import as_source

    return as_source(data).iter_triples()


@dataclass
class OnlineStepReport:
    """What happened when one batch was integrated incrementally.

    Attributes
    ----------
    batch_index:
        Sequence number of the integrated batch.
    num_triples, num_facts:
        Size of the batch.
    retrained:
        Whether a full model re-fit happened after this batch.
    fact_scores:
        Mapping of ``(entity, attribute)`` to the truth probability assigned
        by the incremental predictor.
    """

    batch_index: int
    num_triples: int
    num_facts: int
    retrained: bool
    fact_scores: dict[tuple[str, str], float] = field(default_factory=dict)

    def accepted_facts(self, threshold: float = 0.5) -> list[tuple[str, str]]:
        """Facts accepted as true at ``threshold``."""
        return [pair for pair, score in self.fact_scores.items() if score >= threshold]


class TruthEngine:
    """Unified batch / incremental / streaming truth discovery.

    Parameters
    ----------
    config:
        Declarative engine configuration (method key, hyperparameters,
        execution options).  Defaults to LTM with library defaults.
    solver:
        A prebuilt :class:`~repro.core.base.TruthMethod` instance that
        bypasses registry construction.  Used by the adapter entry points
        that accept method objects; config hyperparameters are ignored for
        solver construction when this is given.
    registry:
        The method registry to resolve ``config.method`` against (defaults to
        the shared :func:`~repro.engine.registry.default_registry`).
    **overrides:
        Shorthand config overrides, e.g. ``TruthEngine(method="voting",
        threshold=0.7)``.  Keys that are not
        :class:`~repro.engine.config.EngineConfig` fields become solver
        hyperparameters, so ``TruthEngine(method="ltm", iterations=100,
        seed=7)`` mirrors :func:`repro.discover`.

    Examples
    --------
    >>> from repro.engine import TruthEngine
    >>> engine = TruthEngine(method="voting")
    >>> engine.fit([
    ...     ("Harry Potter", "Daniel Radcliffe", "IMDB"),
    ...     ("Harry Potter", "Daniel Radcliffe", "Netflix"),
    ... ])
    TruthEngine(method='voting', fitted=True)
    >>> engine.predict_proba().shape
    (1,)
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        solver: TruthMethod | None = None,
        registry: MethodRegistry | None = None,
        **overrides: Any,
    ):
        config = config if config is not None else EngineConfig()
        hyper_params: dict[str, Any] = {}
        if overrides:
            fields = {f.name for f in dataclasses.fields(EngineConfig)}
            config_overrides = {k: v for k, v in overrides.items() if k in fields}
            hyper_params = {k: v for k, v in overrides.items() if k not in fields}
            if config_overrides:
                config = config.with_overrides(**config_overrides)
            if hyper_params:
                config = config.with_params(**hyper_params)
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        if solver is not None and not isinstance(solver, TruthMethod):
            raise ConfigurationError(
                f"solver must be a TruthMethod instance, got {type(solver).__name__}"
            )
        self._solver = solver
        if config.execution.sharded:
            self._reject_sharded_solver_instance()
        if solver is None:
            # Fail fast on unknown methods; extension models are resolvable
            # but rejected at fit time with a pointed error.
            spec = self.registry.spec(config.method)
            rejected = sorted(k for k in hyper_params if not spec.accepts(k))
            if rejected:
                raise ConfigurationError(
                    f"method {spec.key!r} does not accept parameter(s) {rejected}; "
                    f"config fields are {sorted(f.name for f in dataclasses.fields(EngineConfig))}"
                )

        self._history = RawDatabase(strict=False)
        self._history_source: "DataSource | None" = None
        self._since_last_fit = RawDatabase(strict=False)
        self._batches_since_fit = 0
        self._steps_completed = 0
        self._quality: SourceQualityTable | None = None
        self._scores: dict[tuple[str, str], float] = {}
        self._result: TruthResult | None = None
        self._claims: ClaimMatrix | None = None
        self._shard_fits: list[Any] = []
        self.reports: list[OnlineStepReport] = []

    # -- state access ---------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether a batch fit (or streaming re-fit) has completed."""
        return self._result is not None

    @property
    def source_quality(self) -> SourceQualityTable | None:
        """The current source-quality estimate (``None`` before the first fit)."""
        return self._quality

    @property
    def fact_scores(self) -> dict[tuple[str, str], float]:
        """Latest truth probability of every fact integrated so far."""
        return dict(self._scores)

    @property
    def last_report(self) -> OnlineStepReport | None:
        """The step report of the most recent :meth:`partial_fit` call."""
        return self.reports[-1] if self.reports else None

    @property
    def last_trace(self) -> GibbsTrace | None:
        """The sampling diagnostics of the most recent full fit.

        The :class:`~repro.core.gibbs.GibbsTrace` the sampler produced —
        flips per sweep, retained sample count, checkpoint snapshots — or
        ``None`` when nothing was fitted yet or the method does not sample
        (voting, the closed-form baselines).  The mean per-sweep flip
        fraction also lands in telemetry (the ``repro_gibbs_flip_fraction``
        histogram and the ``fit`` span's ``flip_fraction`` attribute)."""
        if self._result is None:
            return None
        trace = self._result.extras.get("trace")
        return trace if isinstance(trace, GibbsTrace) else None

    def result(self) -> TruthResult:
        """The raw solver output of the last full fit.

        Raises
        ------
        NotFittedError
            If neither :meth:`fit` nor a streaming re-fit has happened yet.
        """
        if self._result is None:
            raise NotFittedError("TruthEngine has not been fitted yet")
        return self._result

    def claims(self) -> ClaimMatrix:
        """The claim matrix of the last full fit."""
        if self._claims is None:
            raise NotFittedError("TruthEngine has not been fitted yet")
        return self._claims

    def quality_report(self) -> SourceQualityTable:
        """The learned per-source quality table (paper Table 8).

        Raises
        ------
        NotFittedError
            If no quality has been learned — either nothing was fitted yet or
            the configured method does not estimate source quality.
        """
        if self._quality is None:
            raise NotFittedError(
                "no source quality available: fit a quality-estimating method "
                "(e.g. 'ltm') first"
            )
        return self._quality

    def merged_records(self, threshold: float | None = None) -> dict[str, list[str]]:
        """The integrated output: entity -> accepted attribute values."""
        threshold = self.config.threshold if threshold is None else threshold
        merged: dict[str, list[str]] = {}
        for (entity, attribute), score in self._scores.items():
            if score >= threshold:
                merged.setdefault(entity, []).append(str(attribute))
        return merged

    def rejected_records(self, threshold: float | None = None) -> dict[str, list[str]]:
        """Entity -> asserted attribute values rejected as false."""
        threshold = self.config.threshold if threshold is None else threshold
        rejected: dict[str, list[str]] = {}
        for (entity, attribute), score in self._scores.items():
            if score < threshold:
                rejected.setdefault(entity, []).append(str(attribute))
        return rejected

    # -- solver construction --------------------------------------------------------
    def make_solver(self, priors: LTMPriors | None = None) -> TruthMethod:
        """Build the configured solver (or return the injected instance).

        Parameters
        ----------
        priors:
            Optional priors override, used by streaming re-fits to carry
            learned quality over (only applied when the method accepts a
            ``priors`` argument).
        """
        if self._solver is not None:
            return self._solver
        spec = self.registry.spec(self.config.method)
        if not spec.claim_based:
            raise ConfigurationError(
                f"method {spec.key!r} does not consume claim matrices and cannot "
                f"be driven through TruthEngine; instantiate "
                f"{spec.factory.__name__} directly"
            )
        params = dict(self.config.params)
        if priors is not None and spec.accepts("priors"):
            params["priors"] = priors
        if spec.requires_quality and "source_quality" not in params:
            if self._quality is None:
                raise ConfigurationError(
                    f"method {spec.key!r} needs previously learned source quality; "
                    f"pass source_quality in params or fit a quality-estimating "
                    f"method first"
                )
            params["source_quality"] = self._quality
        return spec.factory(**params)

    def _streaming_priors(self) -> LTMPriors:
        """The priors governing incremental scoring and quality carry-over."""
        priors = self.config.params.get("priors")
        return priors if priors is not None else LTMPriors()

    def _incremental_predictor(self) -> IncrementalLTM:
        """The closed-form LTMinc predictor over the learned quality table.

        Sources that were unseen at fit time fall back to the *prior-mean*
        quality (sensitivity ``priors.sensitivity.mean``, specificity
        ``1 - priors.false_positive.mean``) — the documented cold-start
        behaviour shared with :meth:`repro.serving.TruthService.score` — so
        mixed seen/unseen batches score instead of failing.
        """
        assert self._quality is not None  # callers check before building
        return prior_mean_predictor(self._quality, self._streaming_priors())

    # -- batch lifecycle ------------------------------------------------------------
    def ingest(
        self, triples: "Iterable[Triple | tuple] | DataSource | str"
    ) -> int:
        """Add ``triples`` to the engine's history without fitting.

        Accepts raw triples, any :class:`~repro.io.base.DataSource`, or a
        dataset-catalog key / file path.  Returns the number of genuinely
        new triples added (duplicates are dropped).  Call :meth:`fit`
        afterwards to learn from the accumulated history.
        """
        if _is_source_like(triples):
            triples = _source_triples(triples)
        return self._history.extend(triples)

    def fit(
        self,
        data: "Iterable[Triple | tuple] | RawDatabase | ClaimMatrix | DataSource | str | None" = None,
    ) -> "TruthEngine":
        """Fit the configured method on ``data`` (or the ingested history).

        Giving ``data`` is a *fresh* fit, sklearn-style: all previously
        accumulated state (history, scores, learned quality, step reports)
        is discarded first, so ``fit(a); fit(b)`` scores ``b`` alone.  Pass
        ``None`` to fit on everything previously accumulated via
        :meth:`ingest` / :meth:`partial_fit` instead (the streaming
        bootstrap / re-fit path, which keeps the history).

        Parameters
        ----------
        data:
            Raw triples, a :class:`~repro.data.raw.RawDatabase`, any
            :class:`~repro.io.base.DataSource`, a dataset-catalog key or
            file path (resolved through :func:`repro.io.as_source`), a
            prebuilt :class:`~repro.data.dataset.ClaimMatrix`, or ``None``.
            Note that a prebuilt matrix cannot be decomposed back into raw
            triples, so it does not seed the streaming history: follow-up
            :meth:`partial_fit` re-fits will only see the streamed batches —
            and it cannot be entity-partitioned, so sharded execution
            (``config.execution.num_shards > 1``) requires triple / source
            input.

            A *streaming* source (one whose
            :attr:`~repro.io.base.DataSource.streams` is true — file sources,
            the store-backed :class:`~repro.io.store_source.StoreSource`) is
            **not copied into the engine**: the source itself becomes the
            history, the claim matrix is built from one streaming pass, and
            sharded execution plans store-backed sources by entity-key
            ranges (:meth:`~repro.parallel.ShardPlanner.plan_keys`) so the
            corpus never materialises engine-side.

        Returns
        -------
        TruthEngine
            ``self``, sklearn-style, so calls chain.
        """
        tracer = obs.tracer_for(self.config.telemetry)
        with tracer.span(
            "fit",
            method=self.config.method,
            backend=self.config.execution.backend,
            num_shards=self.config.execution.num_shards,
        ) as span:
            return self._fit(data, tracer, span)

    def _fit(self, data: Any, tracer: Any, span: Any) -> "TruthEngine":
        """The :meth:`fit` body, reporting into the ambient ``fit`` span."""
        source: "DataSource | None" = None
        if _is_source_like(data):
            from repro.io.catalog import as_source

            resolved = as_source(data)
            if getattr(resolved, "streams", False):
                source = resolved
            else:
                data = resolved.iter_triples()
        corpus: Any
        # Every branch reports its claim matrix in one ``claims.build`` child
        # span; for a streaming source that includes reading the source.
        if source is not None:
            # Out-of-core fit: the source *is* the history — no engine-side
            # copy of the triples, only the (columnar) claim matrix.
            self._reset_state()
            self._history_source = source
            with tracer.span("claims.build", input="source") as build:
                if next(iter(source.iter_triples()), None) is None:
                    raise EmptyDatasetError("the data source contains no triples")
                claims = source.to_claim_matrix()
                if tracer.enabled:  # a store source counts its triples with a query
                    build.set(triples=source.schema().num_triples, claims=claims.num_claims)
            corpus = source
        elif isinstance(data, ClaimMatrix):
            self._reset_state()
            with tracer.span("claims.build", input="matrix") as build:
                claims = data
                if tracer.enabled:
                    build.set(triples=claims.num_positive_claims, claims=claims.num_claims)
            corpus = None
        else:
            if data is None:
                corpus = self._combined_history()
            else:
                self._reset_state()
                self._history.extend(data)
                corpus = self._history
            with tracer.span("claims.build", input="triples") as build:
                corpus.require_non_empty()
                claims = build_claim_matrix(corpus, strict=False)
                build.set(triples=len(corpus), claims=claims.num_claims)

        started = time.perf_counter()
        if self.config.execution.sharded:
            self._reject_sharded_solver_instance()
            if corpus is None:
                raise ConfigurationError(
                    "sharded execution (num_shards > 1) partitions raw triples "
                    "by entity and cannot decompose a prebuilt ClaimMatrix; "
                    "pass triples or a data source instead"
                )
            result = self._parallel_fit(claims, corpus)
        else:
            result = self.make_solver().fit(claims)
        self._absorb_fit(claims, result)
        self._record_fit_telemetry(
            result, claims, span, mode="batch", duration=time.perf_counter() - started
        )
        return self

    def _record_fit_telemetry(
        self,
        result: TruthResult,
        claims: ClaimMatrix,
        span: Any,
        *,
        mode: str,
        duration: float,
        path: str = "fit",
    ) -> None:
        """Record one completed full fit into the global metrics and ``span``.

        ``mode`` distinguishes user-initiated batch fits from the streaming
        loop's periodic re-fits in ``repro_engine_fits_total``; ``path``
        labels ``repro_engine_triples_ingested_total`` with how the triples
        arrived.  When the solver produced a
        :class:`~repro.core.gibbs.GibbsTrace`, the iteration budget and the
        mean per-sweep flip fraction land in their histograms and on the
        span.
        """
        execution = self.config.execution
        metrics = obs.engine_metrics()
        metrics.fit_seconds.observe(
            duration, method=self.config.method, backend=execution.backend
        )
        metrics.fits_total.inc(method=self.config.method, mode=mode)
        metrics.triples_ingested.inc(claims.num_claims, path=path)
        span.set(
            triples=claims.num_claims,
            facts=claims.num_facts,
            entities=claims.num_entities,
            sources=claims.num_sources,
        )
        trace = result.extras.get("trace")
        if isinstance(trace, GibbsTrace) and trace.total_iterations:
            fractions = trace.flip_fraction(claims.num_facts)
            flip_fraction = round(sum(fractions) / len(fractions), 6) if fractions else 0.0
            metrics.fit_iterations.observe(trace.total_iterations, method=self.config.method)
            metrics.gibbs_flip_fraction.observe(flip_fraction)
            span.set(
                iterations=trace.total_iterations,
                samples=trace.samples_collected,
                flip_fraction=flip_fraction,
                kernel=trace.kernel,
            )

    def _combined_history(self) -> RawDatabase:
        """Everything seen so far: the fitted source (if any) plus batches.

        When the engine was fitted on a streaming source, cumulative
        operations need the source's triples *and* those streamed since; the
        combination is materialised only here, where a full-corpus fit (which
        materialises a claim matrix anyway) explicitly asked for it.
        """
        if self._history_source is None:
            return self._history
        combined = RawDatabase(strict=False)
        combined.extend(self._history_source.iter_triples())
        combined.extend(self._history)
        return combined

    def _reject_sharded_solver_instance(self) -> None:
        """Sharding never silently degrades: a prebuilt solver cannot shard.

        The constructor already rejects the combination; this guards the
        supported pattern of reassigning ``engine.config`` mid-lifecycle.
        """
        if self._solver is not None:
            raise ConfigurationError(
                "sharded execution (num_shards > 1) resolves the solver through "
                "the registry on every shard and cannot ship a prebuilt solver "
                "instance; configure the method by key instead"
            )

    def _parallel_fit(
        self,
        claims: ClaimMatrix,
        corpus: "RawDatabase | DataSource",
        priors_override: LTMPriors | None = None,
    ) -> TruthResult:
        """Fit through :mod:`repro.parallel` and realign onto ``claims``.

        The corpus is hash-partitioned by entity
        (:class:`~repro.parallel.ShardPlanner`), every shard is fitted on
        the configured backend (:class:`~repro.parallel.ParallelExecutor`)
        and the per-shard results are reduced by the method's
        score-parity merge strategy (:mod:`repro.parallel.merge`).  The
        merged scores are re-indexed onto the full claim matrix's fact ids,
        so downstream state (``predict_proba``, artifacts, serving) is
        laid out exactly as a single-shard fit.

        A corpus advertising indexed entity ranges (a store-backed
        :class:`~repro.io.store_source.StoreSource`) is planned by key
        ranges (:meth:`~repro.parallel.ShardPlanner.plan_keys`): the planner
        streams entity keys off the store's index, and each worker pulls its
        own entities' triples straight from the store — score-identical to
        the eager plan, without the corpus ever materialising here.
        """
        from repro.parallel import ParallelExecutor, ShardPlanner

        execution = self.config.execution
        spec = self.registry.spec(self.config.method)
        if not spec.claim_based:
            raise ConfigurationError(
                f"method {spec.key!r} does not consume claim matrices and cannot "
                f"be driven through TruthEngine; instantiate "
                f"{spec.factory.__name__} directly"
            )
        params = dict(self.config.params)
        if priors_override is not None and spec.accepts("priors"):
            params["priors"] = priors_override
        if spec.requires_quality and "source_quality" not in params:
            if self._quality is None:
                raise ConfigurationError(
                    f"method {spec.key!r} needs previously learned source quality; "
                    f"pass source_quality in params or fit a quality-estimating "
                    f"method first"
                )
            params["source_quality"] = self._quality
        if spec.accepts("priors") and params.get("priors") is None:
            # Resolve the method's default priors once, on the full corpus, so
            # every shard and the count merge share a single prior instead of
            # each shard adapting to its own slice.  LTMpos defaults to the
            # fact-scaled specificity prior (its positive-only evidence cannot
            # rule out the all-flipped solution); LTM to the data-adaptive one.
            if spec.shard_strategy == "counts":
                params["priors"] = LTMPriors.adaptive(claims)
            elif spec.shard_strategy == "counts_positive":
                params["priors"] = LTMPriors.scaled_to(claims.num_facts)

        start = time.perf_counter()
        tracer = obs.get_tracer()
        planner = ShardPlanner(execution.num_shards, seed=execution.partition_seed)
        with tracer.span(
            "shard.plan",
            num_shards=execution.num_shards,
            partition_seed=execution.partition_seed,
        ) as plan_span:
            if getattr(corpus, "supports_entity_ranges", False):
                plan = planner.plan_keys(corpus)
                plan_span.set(strategy="key_ranges")
            else:
                plan = planner.plan(corpus)
                plan_span.set(strategy="eager")
        executor = ParallelExecutor(execution.backend, max_workers=execution.max_workers)
        merged = executor.fit(
            plan,
            self.config.method,
            params,
            quality_sync_rounds=execution.quality_sync_rounds,
            registry=self.registry,
        )

        index = {(fact.entity, fact.attribute): fact.fact_id for fact in claims.facts}
        scores = np.full(claims.num_facts, np.nan)
        for entity, attribute, score in zip(
            merged.fact_entities, merged.fact_attributes, merged.scores
        ):
            scores[index[(entity, attribute)]] = score
        if np.isnan(scores).any():
            raise ModelError(
                "sharded merge did not cover every fact of the claim matrix; "
                "this indicates a partitioning bug"
            )
        self._shard_fits = list(merged.shards)
        # The params actually dispatched (resolved priors / carried quality),
        # recorded so per-shard artifacts are self-contained reproducible.
        self._shard_params = dict(params)
        return TruthResult(
            method=spec.display_name,
            scores=scores,
            source_quality=merged.quality,
            runtime_seconds=time.perf_counter() - start,
            extras={
                "execution": execution.to_dict(),
                "shards": merged.shard_summaries(),
                **merged.extras,
            },
        )

    def shard_artifacts(self, name: str | None = None) -> "list[TruthArtifact]":
        """Per-shard serving artifacts of the last sharded fit.

        Each artifact snapshots one shard's facts, scores and quality (with
        the shard's expected confusion counts recorded in
        ``extras["shard"]``), so the set can be published independently and
        later recombined with :func:`repro.parallel.merge_artifacts` into a
        single artifact servable by :class:`~repro.serving.TruthService`.

        Raises
        ------
        NotFittedError
            If no sharded fit has run (``execution.num_shards`` was 1, or
            nothing was fitted yet).
        """
        from repro.parallel.merge import shard_artifact

        if not self._shard_fits:
            raise NotFittedError(
                "no sharded fit has run; configure execution.num_shards > 1 "
                "and call fit first"
            )
        base = name if name is not None else self.config.method
        # Record the dispatched params (resolved adaptive priors, carried
        # quality) so a shard artifact fully describes how its shard was fit
        # and merge_artifacts recombines under the same priors.
        config = self.config.with_params(**getattr(self, "_shard_params", {}))
        return [
            shard_artifact(fit, config, name=f"{base}-shard-{fit.index:02d}")
            for fit in self._shard_fits
        ]

    def _reset_state(self) -> None:
        """Drop all accumulated state ahead of a fresh fit."""
        self._history = RawDatabase(strict=False)
        self._history_source = None
        self._since_last_fit = RawDatabase(strict=False)
        self._batches_since_fit = 0
        self._steps_completed = 0
        self._quality = None
        self._scores = {}
        self._result = None
        self._claims = None
        self._shard_fits = []
        self.reports = []

    def _absorb_fit(self, claims: ClaimMatrix, result: TruthResult) -> None:
        """Record the outcome of a full fit and reset the streaming window."""
        self._result = result
        self._claims = claims
        if result.source_quality is not None:
            self._quality = result.source_quality
        for fact in claims.facts:
            self._scores[(fact.entity, str(fact.attribute))] = float(result.scores[fact.fact_id])
        self._since_last_fit = RawDatabase(strict=False)
        self._batches_since_fit = 0

    # -- streaming lifecycle --------------------------------------------------------
    def partial_fit(
        self, data: "ClaimBatch | Iterable[Triple | tuple] | DataSource | str"
    ) -> "TruthEngine":
        """Integrate one arriving batch (paper Section 5.4).

        The batch's facts are scored with the closed-form LTMinc posterior
        under the current source-quality estimate (falling back to the
        per-fact voting proportion before any quality is learned), the batch
        is accumulated into the history, and every
        ``config.retrain_every`` batches the full model is re-fitted — on the
        cumulative data, or (``config.cumulative=False``) only on the data
        since the last re-fit with learned quality carried over as priors.

        ``data`` may be a :class:`~repro.streaming.stream.ClaimBatch`, raw
        triples, any :class:`~repro.io.base.DataSource`, or a
        dataset-catalog key / file path; a source's triples are integrated
        as one batch.  For chunked streaming, loop over
        ``source.iter_batches(batch_size)`` and ``partial_fit`` each batch —
        the full claim table is never materialised.  With
        ``config.retain_history=False`` the engine additionally drops each
        batch's triples once scored (keeping only the current re-train
        window, if any), so a stream backed by a
        :class:`~repro.store.claims.ClaimStore` runs in memory bounded by
        batch size.

        The step outcome is appended to :attr:`reports` and available as
        :attr:`last_report`.
        """
        tracer = obs.tracer_for(self.config.telemetry)
        with tracer.span("partial_fit", method=self.config.method) as span:
            return self._partial_fit(data, span)

    def _partial_fit(self, data: Any, span: Any) -> "TruthEngine":
        """The :meth:`partial_fit` body, reporting into the ambient span."""
        if _is_source_like(data):
            data = _source_triples(data)
        if isinstance(data, ClaimBatch):
            batch = data
        else:
            batch = ClaimBatch(index=len(self.reports), triples=tuple(
                t if isinstance(t, Triple) else Triple(*t) for t in data
            ))
        if len(batch) == 0:
            raise StreamError("cannot integrate an empty batch")
        batch_matrix = build_claim_matrix(batch.triples, strict=False)

        if self._quality is not None:
            scores = self._incremental_predictor().fit(batch_matrix).scores
        else:
            # No quality learned yet: fall back to the per-fact voting proportion.
            positives = batch_matrix.positive_counts_per_fact().astype(float)
            totals = np.maximum(batch_matrix.claim_counts_per_fact().astype(float), 1.0)
            scores = positives / totals

        fact_scores = {
            (fact.entity, str(fact.attribute)): float(scores[fact.fact_id])
            for fact in batch_matrix.facts
        }
        self._scores.update(fact_scores)

        # retain_history=False bounds the engine's memory: the stream's
        # history lives in its backing store, not here.  The re-train window
        # is still kept when periodic re-fits need it (retrain_every > 0).
        if self.config.retain_history:
            self._history.extend(batch.triples)
        if self.config.retain_history or self.config.retrain_every:
            self._since_last_fit.extend(batch.triples)
        self._batches_since_fit += 1

        obs.engine_metrics().triples_ingested.inc(len(batch), path="partial_fit")
        span.set(batch=batch.index, triples=len(batch), facts=batch_matrix.num_facts)

        retrained = False
        if self.config.retrain_every and self._batches_since_fit >= self.config.retrain_every:
            self._streaming_refit()
            retrained = True
        span.set(retrained=retrained)

        self.reports.append(
            OnlineStepReport(
                batch_index=batch.index,
                num_triples=len(batch),
                num_facts=batch_matrix.num_facts,
                retrained=retrained,
                fact_scores=fact_scores,
            )
        )
        self._steps_completed += 1
        if (
            self.config.export_dir is not None
            and self._steps_completed % self.config.export_every == 0
        ):
            self._export_step_artifact()
        return self

    def _export_step_artifact(self) -> Path:
        """Publish the current serving state under ``config.export_dir``.

        Each export lands in its own ``step_<n>`` directory, so a
        :class:`~repro.serving.TruthService` can
        :meth:`~repro.serving.TruthService.refresh` onto the newest complete
        snapshot while the stream keeps integrating.  ``<n>`` counts
        lifetime integrated steps — it survives a save/load cycle (via the
        artifact's ``steps_integrated`` extra), so an engine restored from a
        step artifact keeps numbering forward instead of overwriting
        earlier steps.
        """
        step = self._steps_completed
        target = Path(self.config.export_dir) / f"step_{step:05d}"
        report = self.reports[-1]
        artifact = self.to_artifact(
            name=f"{self.config.method}-step-{step:05d}",
            extras={"step": step, "retrained": report.retrained},
        )
        return artifact.save(target)

    def _streaming_refit(self) -> None:
        """Periodic full re-fit of the streaming loop (paper Section 5.4)."""
        priors_override: LTMPriors | None = None
        if self.config.cumulative:
            corpus = self._combined_history()
        else:
            corpus = self._since_last_fit if len(self._since_last_fit) else self._history
            if self._quality is not None:
                # Carry learned quality over as priors (Section 5.4), as soft
                # pseudo-counts with a fixed strength of 100 virtual claims
                # per source.
                base = self._streaming_priors()
                counts = np.ones((len(self._quality.source_names), 2, 2))
                strength = 100.0
                for i, _ in enumerate(self._quality.source_names):
                    sens = float(self._quality.sensitivity[i])
                    spec = float(self._quality.specificity[i])
                    counts[i, 1, 1] = sens * strength
                    counts[i, 1, 0] = (1 - sens) * strength
                    counts[i, 0, 0] = spec * strength
                    counts[i, 0, 1] = (1 - spec) * strength
                priors_override = base.with_learned_quality(
                    self._quality.source_names, counts
                )

        matrix = build_claim_matrix(corpus, strict=False)
        tracer = obs.get_tracer()
        started = time.perf_counter()
        with tracer.span(
            "fit",
            method=self.config.method,
            backend=self.config.execution.backend,
            num_shards=self.config.execution.num_shards,
            mode="refit",
            cumulative=self.config.cumulative,
        ) as span:
            if self.config.execution.sharded:
                self._reject_sharded_solver_instance()
                result = self._parallel_fit(matrix, corpus, priors_override=priors_override)
            else:
                result = self.make_solver(priors=priors_override).fit(matrix)
            self._record_fit_telemetry(
                result,
                matrix,
                span,
                mode="refit",
                duration=time.perf_counter() - started,
                path="refit",
            )
        self._result = result
        self._claims = matrix
        if result.source_quality is not None:
            self._quality = result.source_quality
        # Refresh stored scores for all facts covered by the re-fit.
        for fact in matrix.facts:
            self._scores[(fact.entity, str(fact.attribute))] = float(result.scores[fact.fact_id])
        self._since_last_fit = RawDatabase(strict=False)
        self._batches_since_fit = 0

    # -- artifacts (the repro.serving seam) -----------------------------------------
    def to_artifact(
        self, name: str | None = None, extras: dict[str, Any] | None = None
    ) -> "TruthArtifact":
        """Snapshot the engine's serving state as a versioned artifact.

        The artifact carries the engine config (method key, hyperparameters,
        RNG seed), the learned source-quality table (when the method
        estimates one) and the truth posterior of every fact integrated so
        far — everything :class:`~repro.serving.TruthService` needs to
        answer queries and score unseen claims without re-running inference.
        It does *not* carry the raw triples: a loaded engine serves and
        ``partial_fit``\\ s, but a cumulative re-fit only sees batches
        streamed after the load.

        Raises
        ------
        NotFittedError
            If nothing has been fitted or integrated yet.
        """
        from repro.serving.artifact import TruthArtifact

        if not self._scores:
            raise NotFittedError("cannot export an artifact before fit/partial_fit")
        pairs = list(self._scores.items())
        return TruthArtifact(
            config=self.config,
            fact_entity=np.array([entity for (entity, _), _ in pairs], dtype=str),
            fact_attribute=np.array([attr for (_, attr), _ in pairs], dtype=str),
            fact_score=np.array([score for _, score in pairs], dtype=float),
            quality=self._quality,
            name=name if name is not None else self.config.method,
            extras={"steps_integrated": self._steps_completed, **dict(extras or {})},
        )

    def save(self, path: "str | Path") -> Path:
        """Write the engine's serving state to an artifact directory.

        ``TruthEngine.load(path)`` restores an engine whose
        :meth:`predict_proba` is score-identical; the directory is also
        directly consumable by :class:`~repro.serving.TruthService` and the
        ``repro-truth query`` CLI.
        """
        return self.to_artifact().save(path)

    @classmethod
    def from_artifact(
        cls, artifact: "TruthArtifact", registry: MethodRegistry | None = None
    ) -> "TruthEngine":
        """Rebuild a serving-ready engine from an artifact (no refitting)."""
        engine = cls(artifact.config, registry=registry)
        engine._quality = artifact.quality
        engine._scores = artifact.fact_scores()
        engine._steps_completed = int(artifact.extras.get("steps_integrated", 0))
        engine._result = TruthResult(
            method=engine.registry.spec(artifact.config.method).display_name,
            scores=artifact.fact_score.astype(float, copy=True),
            source_quality=artifact.quality,
            extras={"artifact": artifact.name, "repro_version": artifact.repro_version},
        )
        return engine

    @classmethod
    def load(
        cls, path: "str | Path", registry: MethodRegistry | None = None
    ) -> "TruthEngine":
        """Restore an engine from an artifact directory written by :meth:`save`.

        The loaded engine is immediately serving-capable: ``predict_proba()``
        returns the saved scores, ``predict_proba(new_triples)`` scores new
        claims under the stored quality table, and ``partial_fit`` continues
        the stream.
        """
        from repro.serving.artifact import TruthArtifact

        return cls.from_artifact(TruthArtifact.load(path), registry=registry)

    # -- prediction -----------------------------------------------------------------
    def predict_proba(
        self,
        data: "Iterable[Triple | tuple] | RawDatabase | ClaimMatrix | DataSource | str | None" = None,
    ) -> np.ndarray:
        """Per-fact truth probabilities.

        With no argument, returns the scores of the last full fit.  Given new
        triples, a data source / catalog key, or a claim matrix, scores them
        with the closed-form LTMinc posterior under the learned source
        quality — serving-style prediction with no sampling.

        Cold start: claims from sources that were unseen at fit time are
        scored under the prior-mean quality (sensitivity
        ``priors.sensitivity.mean``, specificity
        ``1 - priors.false_positive.mean``) instead of failing, so mixed
        seen/unseen batches work.  :meth:`repro.serving.TruthService.score`
        shares this behaviour.
        """
        if data is None:
            return self.result().scores
        if _is_source_like(data):
            data = _source_triples(data)
        claims = data if isinstance(data, ClaimMatrix) else build_claim_matrix(data, strict=False)
        if self._quality is None:
            raise NotFittedError(
                "predict_proba on new data needs learned source quality; "
                "fit a quality-estimating method (e.g. 'ltm') first"
            )
        return self._incremental_predictor().fit(claims).scores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        method = type(self._solver).__name__ if self._solver is not None else self.config.method
        return f"TruthEngine(method={method!r}, fitted={self.is_fitted})"


def discover(
    triples: "Iterable[Triple | tuple] | RawDatabase | DataSource | str",
    method: str = "ltm",
    *,
    threshold: float = 0.5,
    keep_workspace: bool = False,
    registry: MethodRegistry | None = None,
    **params: Any,
) -> "IntegrationResult":
    """One-liner truth discovery: raw triples in, merged records out.

    Resolves ``method`` through the shared
    :class:`~repro.engine.registry.MethodRegistry`, builds it with ``params``
    (hyperparameters such as ``iterations`` and ``seed``) and runs the full
    integration flow.  ``triples`` may also be any
    :class:`~repro.io.base.DataSource` or a dataset-catalog key / file path
    (resolved through :func:`repro.io.as_source`), e.g.
    ``repro.discover("books", method="ltm")``.  The produced scores are
    identical to fitting the underlying solver directly on
    ``build_claim_matrix(triples)``.

    Examples
    --------
    >>> import repro
    >>> result = repro.discover(
    ...     [
    ...         ("Harry Potter", "Daniel Radcliffe", "IMDB"),
    ...         ("Harry Potter", "Daniel Radcliffe", "Netflix"),
    ...         ("Harry Potter", "Johnny Depp", "BadSource.com"),
    ...     ],
    ...     method="voting",
    ... )
    >>> result.accepted_values("Harry Potter")
    ['Daniel Radcliffe']
    """
    from repro.pipeline.integrate import run_integration

    resolved = registry if registry is not None else default_registry()
    solver = resolved.create(method, **params)
    return run_integration(
        triples, method=solver, threshold=threshold, keep_workspace=keep_workspace
    )
