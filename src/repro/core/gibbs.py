"""Collapsed Gibbs sampler for the Latent Truth Model (Algorithm 1).

The sampler iterates over facts, re-sampling each fact's latent truth from its
conditional distribution given every other fact's current truth (Equation 2 of
the paper).  Because the Beta priors are conjugate to the Bernoulli
observation model, the quality parameters and the per-fact truth probabilities
are integrated out analytically; the only state is the per-source confusion
counts maintained by :class:`~repro.core.counts.SourceCounts`.

Each sweep touches every claim exactly once, so a run of ``K`` iterations
costs ``O(K * |C|)`` — the linear complexity the paper reports (Figure 6).

One sweep engine runs it, with two backends of the same arithmetic
(:mod:`repro.core.gibbs_vec`): a small C walk compiled on first use, and a
pure-Python walk that is both the reference and the fallback wherever the C
walk cannot be built or loaded.  For a fixed seed the two produce
bit-identical chains — same flips, scores, counts and checkpoints — so the
backend, reported as :attr:`GibbsTrace.kernel`, affects wall-clock only.
There is no option to pick one; :attr:`GibbsConfig.kernel` survives only so
configurations and artifacts that recorded a kernel keep loading.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.obs import get_tracer
from repro.core.counts import SourceCounts
from repro.core.gibbs_vec import KernelTables, backend_name, make_walk
from repro.core.priors import LTMPriors
from repro.data.dataset import ClaimMatrix
from repro.exceptions import ConfigurationError, ModelError

__all__ = ["GibbsConfig", "GibbsTrace", "CollapsedGibbsSampler", "KERNELS"]

#: Accepted values of :attr:`GibbsConfig.kernel`.  ``"scalar"`` and
#: ``"blocked"`` name kernels that no longer exist; they are deprecated
#: aliases of ``"auto"``, kept so recorded configurations still load.
KERNELS = ("scalar", "blocked", "auto")


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler schedule: iteration count, burn-in and thinning.

    Attributes
    ----------
    iterations:
        Total number of Gibbs sweeps over all facts.
    burn_in:
        Number of initial sweeps discarded before samples are collected.
    thin:
        Keep every ``thin``-th sweep after burn-in (1 keeps every sweep).
    seed:
        Seed of the sampler's random generator; fits are reproducible for a
        fixed seed.
    kernel:
        Deprecated and ignored: one of :data:`KERNELS`, accepted so recorded
        configurations keep loading.  ``"scalar"`` and ``"blocked"`` warn.
        The sweep backend follows from the platform (see
        :meth:`resolved_kernel`), never from configuration.
    """

    iterations: int = 100
    burn_in: int = 20
    thin: int = 4
    seed: int | None = None
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.burn_in < 0 or self.burn_in >= self.iterations:
            raise ConfigurationError(
                f"burn_in must be in [0, iterations); got burn_in={self.burn_in}, iterations={self.iterations}"
            )
        if self.thin <= 0:
            raise ConfigurationError("thin must be a positive integer")
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {KERNELS}; got {self.kernel!r}"
            )
        if self.kernel != "auto":
            warnings.warn(
                f"kernel={self.kernel!r} is deprecated and ignored: the Gibbs sweep "
                "backend follows from the platform",
                DeprecationWarning,
                stacklevel=3,
            )

    @classmethod
    def paper_schedule(
        cls, iterations: int, seed: int | None = None, kernel: str = "auto"
    ) -> "GibbsConfig":
        """The burn-in / thinning schedule the paper pairs with each iteration budget.

        The paper's convergence study (Figure 5) uses total iteration budgets
        of 7, 10, 20, 50, 100, 200 and 500 with burn-in 2, 2, 5, 10, 20, 50,
        100 and sample gaps 0, 0, 0, 1, 4, 4, 9 respectively.  Budgets not in
        that list fall back to proportional choices (20% burn-in, gap so that
        roughly 20 samples are kept).
        """
        schedule = {
            7: (2, 1),
            10: (2, 1),
            20: (5, 1),
            50: (10, 2),
            100: (20, 5),
            200: (50, 5),
            500: (100, 10),
        }
        if iterations in schedule:
            burn_in, thin = schedule[iterations]
        else:
            burn_in = max(1, iterations // 5)
            thin = max(1, (iterations - burn_in) // 20)
        return cls(
            iterations=iterations, burn_in=burn_in, thin=thin, seed=seed, kernel=kernel
        )

    @property
    def num_samples(self) -> int:
        """Number of retained samples under this schedule."""
        return len(range(self.burn_in, self.iterations, self.thin))

    def resolved_kernel(self) -> str:
        """The sweep backend a fit runs: ``"compiled"`` or ``"python"``.

        Cheap: it never compiles.  Before the process's first fit it reports
        whether a C compiler is available; afterwards, what the one build
        attempt produced.
        """
        return backend_name()


@dataclass
class GibbsTrace:
    """Diagnostics collected during sampling.

    Attributes
    ----------
    flips_per_iteration:
        How many facts changed truth value in each sweep; a rapidly shrinking
        sequence indicates convergence.
    samples_collected:
        Number of retained (post burn-in, thinned) samples.
    checkpoint_scores:
        Optional snapshots of the running truth-probability estimate, keyed
        by iteration index (only populated when checkpoints are requested).
    kernel:
        Which sweep backend produced this trace: ``"compiled"`` or
        ``"python"``.
    """

    flips_per_iteration: list[int] = field(default_factory=list)
    samples_collected: int = 0
    checkpoint_scores: dict[int, np.ndarray] = field(default_factory=dict)
    kernel: str = "python"

    @property
    def total_iterations(self) -> int:
        """Number of sweeps performed."""
        return len(self.flips_per_iteration)

    def flip_fraction(self, num_facts: int) -> list[float]:
        """Per-iteration fraction of facts that flipped."""
        if num_facts == 0:
            return []
        return [flips / num_facts for flips in self.flips_per_iteration]


class CollapsedGibbsSampler:
    """Runs Algorithm 1 on a claim matrix under a given prior specification.

    Parameters
    ----------
    priors:
        The :class:`~repro.core.priors.LTMPriors` providing the ``alpha`` and
        ``beta`` pseudo-counts of Equation (2).
    config:
        The sampling schedule.
    """

    def __init__(self, priors: LTMPriors | None = None, config: GibbsConfig | None = None):
        self.priors = priors if priors is not None else LTMPriors()
        self.config = config if config is not None else GibbsConfig()

    # -- public API ---------------------------------------------------------------
    def run(
        self,
        claims: ClaimMatrix,
        initial_truth: np.ndarray | None = None,
        checkpoints: Sequence[int] = (),
        callback: Callable[[int, np.ndarray], None] | None = None,
    ) -> tuple[np.ndarray, SourceCounts, GibbsTrace]:
        """Sample latent truths for every fact of ``claims``.

        Parameters
        ----------
        claims:
            The claim matrix to fit.
        initial_truth:
            Optional initial truth assignment (defaults to uniform random, as
            in Algorithm 1's initialisation).
        checkpoints:
            Iteration indices at which to snapshot the running probability
            estimate (used by the convergence study, Figure 5).
        callback:
            Optional ``callback(iteration, current_truth)`` invoked after each
            sweep with a copy of the current truth assignment.

        Returns
        -------
        (scores, counts, trace):
            ``scores`` is the posterior truth probability per fact (the
            average of retained samples), ``counts`` the final confusion
            counts under the last truth assignment, and ``trace`` the
            sampling diagnostics (including which backend ran).
        """
        if claims.num_facts == 0:
            raise ModelError("cannot run the Gibbs sampler on a claim matrix with no facts")

        config = self.config
        rng = np.random.default_rng(config.seed)
        num_facts = claims.num_facts
        truth = self._initial_assignment(num_facts, initial_truth, rng)
        counts = SourceCounts.from_assignment(claims, truth)
        walk = make_walk(claims, self.priors, truth, counts.counts)

        score_sum = np.zeros(num_facts, dtype=float)
        samples = 0
        trace = GibbsTrace(kernel=walk.kernel)
        checkpoint_set = set(int(c) for c in checkpoints)

        # Telemetry: sweeps are grouped into at most ~10 chunked
        # ``gibbs.iteration`` spans per fit — per-sweep granularity without
        # per-sweep span overhead.  Nothing here runs when tracing is off.
        tracer = get_tracer()
        traced = tracer.enabled
        chunk = max(1, config.iterations // 10)
        chunk_start = tracer.now() if traced else 0.0
        chunk_first = 0
        chunk_flips = 0

        for iteration in range(config.iterations):
            uniforms = rng.random(num_facts)
            flips = walk.sweep(uniforms, KernelTables.switch_thresholds(uniforms))
            trace.flips_per_iteration.append(flips)
            if traced:
                chunk_flips += flips
                if (iteration + 1) % chunk == 0 or iteration == config.iterations - 1:
                    sweeps = iteration - chunk_first + 1
                    tracer.record(
                        "gibbs.iteration",
                        chunk_start,
                        end=tracer.now(),
                        first_iteration=chunk_first,
                        iterations=sweeps,
                        flips=chunk_flips,
                        flip_fraction=round(chunk_flips / (sweeps * num_facts), 6),
                    )
                    chunk_start = tracer.now()
                    chunk_first = iteration + 1
                    chunk_flips = 0

            sampling = (
                iteration >= config.burn_in
                and (iteration - config.burn_in) % config.thin == 0
            )
            if not (sampling or callback is not None or iteration in checkpoint_set):
                continue
            current = walk.truth()
            if sampling:
                score_sum += current
                samples += 1
            if iteration in checkpoint_set:
                trace.checkpoint_scores[iteration] = (
                    score_sum / samples if samples else current.astype(float)
                )
            if callback is not None:
                callback(iteration, current.copy())

        trace.samples_collected = samples
        scores = score_sum / samples if samples else walk.truth().astype(float)
        counts.counts[:] = walk.counts().reshape(counts.counts.shape)
        counts.verify_non_negative()
        return scores, counts, trace

    # -- helpers ----------------------------------------------------------------------
    @staticmethod
    def _initial_assignment(
        num_facts: int,
        initial_truth: np.ndarray | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if initial_truth is None:
            return (rng.random(num_facts) < 0.5).astype(np.int64)
        initial_truth = np.asarray(initial_truth).astype(np.int64)
        if initial_truth.shape != (num_facts,):
            raise ModelError(
                f"initial truth must have shape ({num_facts},), got {initial_truth.shape}"
            )
        if not np.isin(initial_truth, (0, 1)).all():
            raise ModelError("initial truth assignment must be binary")
        return initial_truth.copy()
