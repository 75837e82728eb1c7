"""The batch integration flow: raw triples in, merged records out.

:func:`run_integration` is the canonical end-to-end entry point: it resolves
the input through :func:`repro.io.as_source` (so catalog keys, files, tables
and in-memory triples all work), builds the claim matrix, hands it to the
unified :class:`~repro.engine.TruthEngine` for fitting and thresholding, and
optionally returns the paper's raw, fact, claim and truth relations as a
debug workspace of read-only column views.  :func:`repro.discover` wraps it
in one line.

With an :class:`~repro.engine.ExecutionConfig` of ``num_shards > 1`` the fit
runs entity-sharded through :mod:`repro.parallel` (the historical
``IntegrationPipeline`` class shim was removed in 1.4 after its two-PR
deprecation window; use :func:`run_integration` or
:class:`~repro.engine.TruthEngine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.core.base import SourceQualityTable, TruthMethod, TruthResult
from repro.core.model import LatentTruthModel
from repro.data.dataset import ClaimMatrix
from repro.data.raw import RawDatabase
from repro.engine.config import EngineConfig, ExecutionConfig
from repro.engine.facade import TruthEngine
from repro.engine.registry import default_registry
from repro.exceptions import ConfigurationError
from repro.types import Triple

__all__ = ["IntegrationResult", "run_integration"]

#: A relation as named columns (equal-length, read-only numpy arrays).
Relation = dict[str, np.ndarray]


@dataclass
class IntegrationResult:
    """Everything produced by one integration run.

    Attributes
    ----------
    merged_records:
        Mapping of entity to the attribute values accepted as true.
    rejected_records:
        Mapping of entity to the asserted attribute values rejected as false.
    fact_scores:
        Mapping of ``(entity, attribute)`` to the inferred truth probability.
    source_quality:
        Per-source quality table, when the method provides one.
    truth_result:
        The raw solver output.
    claims:
        The claim matrix the solver was fitted on.
    workspace:
        With ``keep_workspace=True``, the run's relations (Definitions 1-4)
        for inspection and debugging: a dict of ``"raw_database"``
        (``entity``, ``attribute``, ``source``: the distinct triples, in
        claim order), ``"facts"`` (``fact_id``, ``entity``, ``attribute``),
        ``"claims"`` (``fact_id``, ``source``, ``observation``) and
        ``"truths"`` (``fact_id``, ``entity``, ``attribute``, ``score``,
        ``truth``), each a dict of equal-length, read-only numpy columns
        viewing :attr:`claims` and :attr:`truth_result`.
    """

    merged_records: dict[str, list[str]] = field(default_factory=dict)
    rejected_records: dict[str, list[str]] = field(default_factory=dict)
    fact_scores: dict[tuple[str, str], float] = field(default_factory=dict)
    source_quality: SourceQualityTable | None = None
    truth_result: TruthResult | None = None
    claims: ClaimMatrix | None = None
    workspace: dict[str, Relation] | None = None

    def accepted_values(self, entity: str) -> list[str]:
        """Accepted attribute values of ``entity`` (empty when unknown)."""
        return list(self.merged_records.get(entity, ()))

    def num_accepted(self) -> int:
        """Total number of accepted facts."""
        return sum(len(values) for values in self.merged_records.values())

    def num_rejected(self) -> int:
        """Total number of rejected facts."""
        return sum(len(values) for values in self.rejected_records.values())


def run_integration(
    data: "Iterable[Triple | tuple] | RawDatabase | str | Any",
    *,
    method: TruthMethod | str | None = None,
    threshold: float = 0.5,
    keep_workspace: bool = False,
    execution: ExecutionConfig | None = None,
    **method_params: Any,
) -> IntegrationResult:
    """Run the full integration flow and return an :class:`IntegrationResult`.

    Parameters
    ----------
    data:
        The assertions to integrate: raw triples, a
        :class:`~repro.data.raw.RawDatabase`, any
        :class:`~repro.io.base.DataSource`, or a dataset-catalog key / file
        path (resolved through :func:`repro.io.as_source`).
    method:
        The truth-finding method: a :class:`~repro.core.base.TruthMethod`
        instance, a registry key such as ``"voting"`` (resolved through
        :func:`repro.engine.default_registry` and built with
        ``method_params``), or ``None`` for
        :class:`~repro.core.model.LatentTruthModel` with library defaults.
    threshold:
        Truth-probability threshold above which a fact is accepted into the
        merged records.
    keep_workspace:
        Whether to return the run's raw, fact, claim and truth relations as
        the result's ``workspace`` (read-only column views, for debugging).
    execution:
        Optional :class:`~repro.engine.ExecutionConfig`; with
        ``num_shards > 1`` the fit runs entity-sharded through
        :mod:`repro.parallel` (requires a string ``method`` key — shard
        workers resolve the solver through the registry).
    **method_params:
        Hyperparameters for registry construction when ``method`` is a
        string (e.g. ``iterations``, ``seed``).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError("threshold must lie in [0, 1]")

    sharded = execution is not None and execution.sharded
    if sharded:
        engine = _sharded_engine(method, threshold, execution, method_params)
    else:
        engine = TruthEngine(
            EngineConfig(threshold=threshold), solver=_solver(method, method_params)
        )

    # Every input style — raw databases, tables, datasets, catalog keys,
    # files, plain iterables — goes through the one coercion layer, so none
    # can fall through to a wrong interpretation.
    from repro.io.catalog import as_source  # lazy: repro.io builds on the engine

    source = as_source(data)
    # A serial fit takes the claim matrix, so the engine keeps no copy of the
    # triples; a sharded fit partitions the source's triples by entity.
    engine.fit(source if sharded else source.to_claim_matrix())
    truth_result = engine.result()
    claims = engine.claims()
    return IntegrationResult(
        merged_records=engine.merged_records(),
        rejected_records=engine.rejected_records(),
        fact_scores=engine.fact_scores,
        source_quality=truth_result.source_quality,
        truth_result=truth_result,
        claims=claims,
        workspace=_workspace(claims, truth_result, threshold) if keep_workspace else None,
    )


def _solver(method: TruthMethod | str | None, method_params: dict[str, Any]) -> TruthMethod:
    """The solver of a serial run: an instance, a registry key, or the LTM default."""
    if isinstance(method, str):
        return default_registry().create(method, **method_params)
    if method_params:
        raise ConfigurationError(
            "method hyperparameters are only accepted with a string method name"
        )
    return method if method is not None else LatentTruthModel()


def _sharded_engine(
    method: TruthMethod | str | None,
    threshold: float,
    execution: ExecutionConfig,
    method_params: dict[str, Any],
) -> TruthEngine:
    """The engine of an entity-sharded run.

    The engine plans, executes and merges the shards
    (:meth:`~repro.engine.TruthEngine.fit` routes through
    :mod:`repro.parallel` when ``execution.num_shards > 1``).
    """
    if method is None:
        method = "ltm"
    if not isinstance(method, str):
        raise ConfigurationError(
            "sharded execution resolves the solver through the registry on "
            "every shard; pass a registry method key, not a solver instance"
        )
    return TruthEngine(
        EngineConfig(
            method=method,
            params=dict(method_params),
            threshold=threshold,
            execution=execution,
        )
    )


def _read_only(column: np.ndarray) -> np.ndarray:
    view = column.view()
    view.flags.writeable = False
    return view


def _workspace(
    claims: ClaimMatrix, truth_result: TruthResult, threshold: float
) -> dict[str, Relation]:
    """The raw, fact, claim and truth relations of a run as read-only columns."""
    fact_id = np.arange(claims.num_facts, dtype=np.int64)
    entity = np.fromiter((f.entity for f in claims.facts), dtype=object, count=claims.num_facts)
    attribute = np.fromiter(
        (f.attribute for f in claims.facts), dtype=object, count=claims.num_facts
    )
    source = np.fromiter(claims.source_names, dtype=object, count=claims.num_sources)
    claim_source = source[claims.claim_source]
    positive = claims.claim_obs.astype(bool)
    asserted = claims.claim_fact[positive]
    scores = np.asarray(truth_result.scores, dtype=float)
    relations = {
        "raw_database": {
            "entity": entity[asserted],
            "attribute": attribute[asserted],
            "source": claim_source[positive],
        },
        "facts": {"fact_id": fact_id, "entity": entity, "attribute": attribute},
        "claims": {"fact_id": claims.claim_fact, "source": claim_source, "observation": positive},
        "truths": {
            "fact_id": fact_id,
            "entity": entity,
            "attribute": attribute,
            "score": scores,
            "truth": scores >= threshold,
        },
    }
    return {
        name: {column: _read_only(values) for column, values in relation.items()}
        for name, relation in relations.items()
    }
