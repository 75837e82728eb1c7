"""Runtime-scaling study (paper Table 9 and Figure 6).

The paper establishes that LTM's inference cost is linear in the number of
claims by timing it on nested subsets of the movie data and fitting a linear
regression (reporting an R-squared of 0.9913).  This module provides the
subset construction, the timing loop and the regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.base import TruthMethod
from repro.data.dataset import ClaimMatrix
from repro.exceptions import EvaluationError

__all__ = ["LinearFit", "linear_fit", "entity_subsets", "runtime_scaling_study"]


@dataclass(frozen=True)
class LinearFit:
    """Ordinary-least-squares fit ``y ~ slope * x + intercept``.

    Attributes
    ----------
    slope, intercept:
        Fitted coefficients.
    r_squared:
        Goodness of fit; close to 1 indicates the relationship is linear.
    """

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Predicted value at ``x``."""
        return self.slope * x + self.intercept


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Least-squares linear regression of ``y`` on ``x`` with R-squared."""
    x_arr = np.asarray(list(x), dtype=float)
    y_arr = np.asarray(list(y), dtype=float)
    if x_arr.size != y_arr.size:
        raise EvaluationError("x and y must have the same length")
    if x_arr.size < 2:
        raise EvaluationError("linear regression requires at least two points")
    slope, intercept = np.polyfit(x_arr, y_arr, deg=1)
    predictions = slope * x_arr + intercept
    residual = float(((y_arr - predictions) ** 2).sum())
    total = float(((y_arr - y_arr.mean()) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=float(r_squared))


def entity_subsets(
    claims: ClaimMatrix,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seed: int | None = 13,
) -> list[ClaimMatrix]:
    """Nested random entity subsets of increasing size (as in Table 9).

    Each subset keeps all facts and claims of the sampled entities, matching
    the paper's construction of the 3k/6k/9k/12k/15k movie subsets.
    """
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise EvaluationError(f"subset fractions must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    entities = list(claims.entities)
    order = rng.permutation(len(entities))
    subsets: list[ClaimMatrix] = []
    for fraction in sorted(fractions):
        count = max(1, int(round(fraction * len(entities))))
        sampled = [entities[i] for i in order[:count]]
        subsets.append(claims.restrict_to_entities(sampled))
    return subsets


def runtime_scaling_study(
    method_factory: Callable[[], TruthMethod],
    subsets: Iterable[ClaimMatrix],
    repeats: int = 1,
) -> tuple[list[dict[str, float]], LinearFit]:
    """Time a method on each subset and regress runtime on the number of claims.

    Parameters
    ----------
    method_factory:
        Zero-argument callable returning a fresh method instance (so each
        timing starts from a clean state).
    subsets:
        Claim matrices of increasing size.
    repeats:
        Number of timed passes over all subsets; each subset reports its
        fastest fit.  The minimum is the least noisy estimate of a
        deterministic computation's cost: interference (other processes, a
        one-time warm-up such as the first fit building the compiled Gibbs
        sweep) only ever adds time.

    Returns
    -------
    (measurements, fit):
        ``measurements`` is one dict per subset with the number of entities,
        facts, claims and the minimum runtime; ``fit`` is the linear
        regression of runtime on claims (Figure 6's regression line).
    """
    if repeats <= 0:
        raise EvaluationError("repeats must be positive")
    subsets = list(subsets)
    # Repeats run round-robin over the subsets, so a slow stretch of the
    # machine lands on one repeat of several points rather than on every
    # repeat of one point.
    best = [float("inf")] * len(subsets)
    for _ in range(repeats):
        for position, subset in enumerate(subsets):
            result = method_factory().fit(subset)
            best[position] = min(best[position], result.runtime_seconds)
    measurements = [
        {
            "entities": float(subset.num_entities),
            "facts": float(subset.num_facts),
            "claims": float(subset.num_claims),
            "runtime_seconds": float(runtime),
        }
        for subset, runtime in zip(subsets, best)
    ]
    fit = linear_fit(
        [m["claims"] for m in measurements],
        [m["runtime_seconds"] for m in measurements],
    )
    return measurements, fit
