"""The public Latent Truth Model API.

:class:`LatentTruthModel` is the main entry point of the library: fit it to a
:class:`~repro.data.dataset.ClaimMatrix` and it returns a
:class:`~repro.core.base.TruthResult` carrying posterior truth probabilities
for every fact, MAP source-quality estimates (sensitivity/specificity/
precision per source) and sampling diagnostics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.base import TruthMethod, TruthResult
from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig
from repro.core.priors import LTMPriors
from repro.core.quality import estimate_source_quality, expected_confusion_counts
from repro.data.dataset import ClaimMatrix

__all__ = ["LatentTruthModel"]


class LatentTruthModel(TruthMethod):
    """Bayesian truth discovery with two-sided source quality (the paper's LTM).

    Parameters
    ----------
    priors:
        Prior specification.  When omitted, :meth:`LTMPriors.adaptive` is
        applied to the claim matrix at fit time: a strong-but-data-relative
        specificity prior, a uniform sensitivity prior and a uniform truth
        prior.  Pass :meth:`repro.core.priors.LTMPriors.paper_book_defaults`
        / :meth:`~repro.core.priors.LTMPriors.paper_movie_defaults` to use the
        paper's fixed pseudo-counts instead.
    iterations, burn_in, thin:
        Sampling schedule.  The paper observes convergence within roughly 50
        iterations; the default of 100 iterations with burn-in 20 and
        thinning 5 follows its main experiments.
    seed:
        Random seed for reproducible fits.
    kernel:
        Deprecated and ignored (see :attr:`GibbsConfig.kernel
        <repro.core.gibbs.GibbsConfig.kernel>`); the Gibbs sweep backend
        follows from the platform.

    Examples
    --------
    >>> from repro import LatentTruthModel, build_claim_matrix
    >>> claims = build_claim_matrix([
    ...     ("Harry Potter", "Daniel Radcliffe", "imdb"),
    ...     ("Harry Potter", "Emma Watson", "imdb"),
    ...     ("Harry Potter", "Daniel Radcliffe", "netflix"),
    ... ])
    >>> result = LatentTruthModel(iterations=50, seed=0).fit(claims)
    >>> result.scores.shape
    (2,)
    """

    name = "LTM"

    def __init__(
        self,
        priors: LTMPriors | None = None,
        iterations: int = 100,
        burn_in: int | None = None,
        thin: int | None = None,
        seed: int | None = None,
        kernel: str = "auto",
    ):
        super().__init__()
        self.priors = priors
        if burn_in is None or thin is None:
            schedule = GibbsConfig.paper_schedule(iterations, seed=seed)
            burn_in = schedule.burn_in if burn_in is None else burn_in
            thin = schedule.thin if thin is None else thin
        self.config = GibbsConfig(
            iterations=iterations, burn_in=burn_in, thin=thin, seed=seed, kernel=kernel
        )

    # -- fitting -------------------------------------------------------------------
    def resolved_priors(self, claims: ClaimMatrix) -> LTMPriors:
        """The priors actually used for ``claims`` (adaptive when none were given)."""
        if self.priors is not None:
            return self.priors
        return LTMPriors.adaptive(claims)

    def _fit(self, claims: ClaimMatrix) -> TruthResult:
        priors = self.resolved_priors(claims)
        sampler = CollapsedGibbsSampler(priors=priors, config=self.config)
        scores, counts, trace = sampler.run(claims)
        quality = estimate_source_quality(claims, scores, priors)
        expected_counts = expected_confusion_counts(claims, scores)
        return TruthResult(
            method=self.name,
            scores=scores,
            source_quality=quality,
            extras={
                "trace": trace,
                "final_counts": counts.counts.copy(),
                "expected_counts": expected_counts,
                "iterations": self.config.iterations,
                "burn_in": self.config.burn_in,
                "thin": self.config.thin,
                "priors": priors,
            },
        )

    # -- convenience ------------------------------------------------------------------
    def fit_with_checkpoints(
        self, claims: ClaimMatrix, checkpoints: Sequence[int]
    ) -> tuple[TruthResult, dict[int, np.ndarray]]:
        """Fit and additionally return running score snapshots at ``checkpoints``.

        Used by the convergence study (Figure 5): the snapshots are the
        truth-probability estimates the model would report if sampling were
        stopped at each checkpoint iteration.
        """
        priors = self.resolved_priors(claims)
        sampler = CollapsedGibbsSampler(priors=priors, config=self.config)
        scores, counts, trace = sampler.run(claims, checkpoints=checkpoints)
        quality = estimate_source_quality(claims, scores, priors)
        result = TruthResult(
            method=self.name,
            scores=scores,
            source_quality=quality,
            extras={"trace": trace, "final_counts": counts.counts.copy()},
        )
        self._result = result
        return result, dict(trace.checkpoint_scores)

    def learned_quality_priors(self, claims: ClaimMatrix) -> LTMPriors:
        """Return priors with this fit's expected counts folded in (Section 5.4).

        Requires :meth:`fit` to have been called.  The returned priors can be
        passed to a new :class:`LatentTruthModel` (or to
        :class:`~repro.core.incremental.IncrementalLTM`) to integrate a new
        batch of data while retaining what was learned about the sources.
        """
        result = self.result()
        expected = result.extras.get("expected_counts")
        if expected is None:
            expected = expected_confusion_counts(claims, result.scores)
        priors = result.extras.get("priors") or self.resolved_priors(claims)
        return priors.with_learned_quality(claims.source_names, expected)
