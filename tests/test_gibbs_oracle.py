"""The Gibbs sampler checked against the exact collapsed LTM posterior.

The oracle shares no code with :class:`~repro.core.gibbs_vec.KernelTables`
or either sweep backend, which are only its subjects.  :func:`log_joint` writes the collapsed joint
``log p(t, o)`` of the Latent Truth Model straight from its definition (paper
Section 4) with :func:`math.lgamma`: each source's false-positive rate and
sensitivity, and each fact's prior truth probability, are Beta-distributed
and integrated out.  On corpora of at most ten facts every truth assignment
can be enumerated, which gives exact posterior marginals; long seeded chains
must land within a Monte-Carlo tolerance of them, and the per-fact log-ratio
the sweeps evaluate must equal the joint's difference under a single flip.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig
from repro.core.gibbs_vec import KernelTables
from repro.core.priors import BetaPrior, LTMPriors
from repro.data.dataset import ClaimMatrix
from repro.data.records import Fact

CHAIN_SWEEPS = 20_000
BURN_IN = 500
BATCHES = 50
#: Allowed distance from the exact marginal, in batch-means standard errors.
SIGMAS = 5.0


def log_joint(truth, claims: ClaimMatrix, priors: LTMPriors) -> float:
    """Collapsed ``log p(t, o)``: quality and truth probabilities integrated out."""
    b1, b0 = priors.truth.positive, priors.truth.negative
    total = sum(math.log(b1 if t else b0) - math.log(b1 + b0) for t in truth)
    n = [[[0, 0], [0, 0]] for _ in range(claims.num_sources)]
    for fact, source, obs in zip(
        claims.claim_fact.tolist(), claims.claim_source.tolist(), claims.claim_obs.tolist()
    ):
        n[source][truth[fact]][obs] += 1
    # Truth 0 draws observations from the false-positive rate, truth 1 from
    # the sensitivity; each is a Beta-Bernoulli marginal likelihood.
    for counts in n:
        for t, prior in ((0, priors.false_positive), (1, priors.sensitivity)):
            a1, a0 = prior.positive, prior.negative
            n0, n1 = counts[t]
            total += (
                math.lgamma(a0 + a1) - math.lgamma(a0) - math.lgamma(a1)
                + math.lgamma(a0 + n0) + math.lgamma(a1 + n1)
                - math.lgamma(a0 + a1 + n0 + n1)
            )
    return total


def exact_marginals(claims: ClaimMatrix, priors: LTMPriors) -> np.ndarray:
    """``P(t_f = 1 | o)`` for every fact, by enumerating all ``2^F`` assignments."""
    states = list(itertools.product((0, 1), repeat=claims.num_facts))
    logs = np.array([log_joint(state, claims, priors) for state in states])
    weights = np.exp(logs - logs.max())
    return weights @ np.array(states, dtype=float) / weights.sum()


def random_corpus(seed: int, num_sources: int | None = None, claimless: bool = True) -> ClaimMatrix:
    """A seeded corpus of 2-10 facts; some facts may have no claims."""
    rng = np.random.default_rng(seed)
    num_facts = int(rng.integers(2, 11))
    num_sources = num_sources or int(rng.integers(1, 5))
    claim_fact, claim_source, claim_obs = [], [], []
    for fact in range(num_facts):
        lowest = 0 if claimless else 1
        degree = int(rng.integers(lowest, num_sources + 1))
        for source in rng.choice(num_sources, size=degree, replace=False).tolist():
            claim_fact.append(fact)
            claim_source.append(source)
            claim_obs.append(bool(rng.random() < 0.6))
    return ClaimMatrix(
        facts=[Fact(f, f"e{f // 2}", f"v{f}") for f in range(num_facts)],
        source_names=[f"s{s}" for s in range(num_sources)],
        claim_fact=claim_fact,
        claim_source=claim_source,
        claim_obs=claim_obs,
    )


UNIFORM = LTMPriors.uniform()
DEFAULT = LTMPriors()
#: Weak but asymmetric: uniform priors make every marginal exactly 0.5 (the
#: posterior is symmetric under flipping all truths), which tests little.
MILD = LTMPriors(
    false_positive=BetaPrior(1.0, 4.0),
    sensitivity=BetaPrior(3.0, 1.0),
    truth=BetaPrior(1.0, 1.0),
)
#: Near-certain specificity and a strong prior against truth.
EXTREME_SKEPTIC = LTMPriors(
    false_positive=BetaPrior(1.0, 1000.0),
    sensitivity=BetaPrior(50.0, 1.0),
    truth=BetaPrior(1.0, 50.0),
)
#: Tiny pseudo-counts and a strong prior for truth.
EXTREME_CREDULOUS = LTMPriors(
    false_positive=BetaPrior(0.05, 0.05),
    sensitivity=BetaPrior(0.05, 0.05),
    truth=BetaPrior(40.0, 1.0),
)

ORACLE_CASES = {
    "random-default": (lambda: random_corpus(1), DEFAULT),
    "random-mild": (lambda: random_corpus(2), MILD),
    "random-mild-dense": (lambda: random_corpus(3, num_sources=4, claimless=False), MILD),
    "claimless-facts": (lambda: random_corpus(4, num_sources=3), MILD),
    "single-source": (lambda: random_corpus(5, num_sources=1), MILD),
    "single-source-default": (lambda: random_corpus(6, num_sources=1), DEFAULT),
    "extreme-skeptic": (lambda: random_corpus(7, num_sources=3), EXTREME_SKEPTIC),
    "extreme-credulous": (lambda: random_corpus(8, num_sources=3), EXTREME_CREDULOUS),
}


def test_oracle_cases_cover_the_edge_shapes():
    shapes = {name: build() for name, (build, _) in ORACLE_CASES.items()}
    assert all(claims.num_facts <= 10 for claims in shapes.values())
    assert any(np.any(np.diff(claims.fact_ptr) == 0) for claims in shapes.values())
    assert shapes["single-source"].num_sources == 1


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_long_chain_matches_exact_marginals(case):
    build, priors = ORACLE_CASES[case]
    claims = build()
    exact = exact_marginals(claims, priors)

    seen = []
    config = GibbsConfig(iterations=BURN_IN + CHAIN_SWEEPS, burn_in=BURN_IN, thin=1, seed=2024)
    scores, _, _ = CollapsedGibbsSampler(priors=priors, config=config).run(
        claims, callback=lambda i, t: seen.append(t) if i >= BURN_IN else None
    )
    samples = np.array(seen, dtype=float)
    assert np.array_equal(scores, samples.mean(axis=0))

    # Batch means absorb the chain's autocorrelation.
    batch_means = samples.reshape(BATCHES, -1, claims.num_facts).mean(axis=1)
    stderr = batch_means.std(axis=0, ddof=1) / math.sqrt(BATCHES)
    assert np.all(stderr < 0.02), f"chain too short to be informative: {stderr}"
    tolerance = SIGMAS * stderr + 2e-3
    assert np.all(np.abs(scores - exact) <= tolerance), (scores, exact, tolerance)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    priors=st.sampled_from([UNIFORM, MILD, DEFAULT, EXTREME_SKEPTIC, EXTREME_CREDULOUS]),
)
def test_equation2_log_ratio_is_the_joint_difference(seed, priors):
    # The sampler flips fact f when its Equation-2 log-ratio
    #     log p(t_f = cur | rest) - log p(t_f = other | rest)
    # falls below a threshold; that log-ratio is the collapsed joint's
    # difference under flipping f.  Evaluate the table expression the sweeps
    # walk (KernelTables) and compare with the oracle.
    claims = random_corpus(seed)
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=claims.num_facts)
    tables = KernelTables(claims, priors)
    counts = np.zeros((claims.num_sources, 2, 2), dtype=np.int64)
    np.add.at(counts, (claims.claim_source, truth[claims.claim_fact], claims.claim_obs), 1)
    counts_flat = counts.reshape(-1)
    totals_flat = counts.sum(axis=2).reshape(-1)
    base = log_joint(truth.tolist(), claims, priors)
    for fact in range(claims.num_facts):
        cur = int(truth[fact])
        delta = float(tables.delta_log_beta[cur])
        for i in range(claims.fact_ptr[fact], claims.fact_ptr[fact + 1]):
            code = tables.claim_code[i]
            num_base, count_idx, den_base, total_idx = tables.code_index[cur][:, code]
            num_base_o, count_idx_o, den_base_o, total_idx_o = tables.code_index[1 - cur][:, code]
            delta += (
                tables.log_num[num_base + counts_flat[count_idx] - 1]
                - tables.log_den[den_base + totals_flat[total_idx] - 1]
            ) - (
                tables.log_num[num_base_o + counts_flat[count_idx_o]]
                - tables.log_den[den_base_o + totals_flat[total_idx_o]]
            )
        flipped = truth.copy()
        flipped[fact] = 1 - cur
        expected = base - log_joint(flipped.tolist(), claims, priors)
        assert delta == pytest.approx(expected, abs=1e-9, rel=1e-9)
