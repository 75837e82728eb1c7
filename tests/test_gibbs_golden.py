"""Golden Gibbs chains, frozen from the sampler before its kernels were merged.

Each case runs one seeded chain and reduces everything observable about it —
posterior scores, final confusion counts, the per-sweep flip sequence,
checkpoint snapshots and the truth arrays handed to ``callback`` — to one
SHA-256 digest.  ``golden_chains.json`` holds the digests the original
scalar/blocked kernels produced; cases added later (the 500-sweep budgets and
the 30-60-source corpora) were frozen from the sweep as it stood before the
next kernel change.  Both sweep backends (compiled C and the Python walk) must
reproduce each of them bit for bit.  The digests are data, not a regeneration
target: a change that moves one changes the sampled chain.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig
from repro.core.priors import LTMPriors
from repro.data.claim_builder import build_claim_matrix
from repro.data.dataset import ClaimMatrix
from repro.data.records import Fact
from repro.io.catalog import PAPER_EXAMPLE_TRIPLES, default_catalog
from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator
from repro.types import Triple

GOLDEN = json.loads((Path(__file__).parent / "golden_chains.json").read_text())

#: (catalog key, paper-schedule budget) pairs; larger corpora get shorter chains.
CATALOG_CASES = [
    ("paper_example", 100),
    ("books_small", 100),
    ("books_small", 500),
    ("movies_small", 100),
    ("books", 50),
    ("movies", 20),
    ("adversarial", 20),
    ("ltm_generative", 7),
]
PAPER_BUDGETS = [7, 10, 20, 50, 100, 200, 500]


def chain_digest(result, snapshots=()) -> str:
    """SHA-256 over a chain's scores, counts, flips, checkpoints and callbacks."""
    scores, counts, trace = result
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(scores, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(counts.counts, dtype="<i8").tobytes())
    digest.update(np.asarray(trace.flips_per_iteration, dtype="<i8").tobytes())
    for iteration in sorted(trace.checkpoint_scores):
        digest.update(np.asarray([iteration], dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(trace.checkpoint_scores[iteration], dtype="<f8").tobytes())
    for truth in snapshots:
        digest.update(np.ascontiguousarray(truth, dtype="<i8").tobytes())
    return digest.hexdigest()


def _paper_claims() -> ClaimMatrix:
    return build_claim_matrix(PAPER_EXAMPLE_TRIPLES)


def _catalog_claims(key: str) -> ClaimMatrix:
    return default_catalog().create(key).to_dataset().claims


def _schedule_chain(claims: ClaimMatrix, budget: int, seed: int, priors=None) -> str:
    priors = priors or LTMPriors.adaptive(claims)
    config = GibbsConfig.paper_schedule(budget, seed=seed)
    return chain_digest(CollapsedGibbsSampler(priors=priors, config=config).run(claims))


def _checkpoint_callback_chain() -> str:
    claims = MovieDirectorSimulator(MovieDirectorConfig.small(seed=5)).generate().claims
    seen = []
    config = GibbsConfig(iterations=30, burn_in=5, thin=2, seed=11)
    sampler = CollapsedGibbsSampler(priors=LTMPriors.adaptive(claims), config=config)
    result = sampler.run(claims, checkpoints=(5, 20), callback=lambda i, t: seen.append(t.copy()))
    assert len(seen) == 30
    assert sorted(result[2].checkpoint_scores) == [5, 20]
    return chain_digest(result, seen)


def _initial_truth_chain() -> str:
    claims = _paper_claims()
    initial = np.ones(claims.num_facts, dtype=np.int64)
    config = GibbsConfig(iterations=20, burn_in=4, thin=1, seed=5)
    return chain_digest(CollapsedGibbsSampler(config=config).run(claims, initial_truth=initial))


def _single_source_chain() -> str:
    claims = build_claim_matrix([Triple(f"e{i}", f"v{i}", "lone") for i in range(12)])
    return _schedule_chain(claims, 50, seed=2)


def _claimless_chain() -> str:
    facts = [Fact(0, "e1", "a"), Fact(1, "e2", "b"), Fact(2, "e3", "c")]
    claims = ClaimMatrix(
        facts=facts, source_names=["s"], claim_fact=[0, 2], claim_source=[0, 0], claim_obs=[True, False]
    )
    return _schedule_chain(claims, 100, seed=9, priors=LTMPriors.paper_book_defaults())


def _all_claimless_chain() -> str:
    facts = [Fact(0, "e1", "a"), Fact(1, "e2", "b")]
    claims = ClaimMatrix(facts=facts, source_names=["s"], claim_fact=[], claim_source=[], claim_obs=[])
    return _schedule_chain(claims, 20, seed=1, priors=LTMPriors.paper_book_defaults())


def _random_corpus_chain(seed: int) -> str:
    rng = np.random.default_rng(seed)
    num_entities = int(rng.integers(5, 40))
    num_sources = int(rng.integers(1, 12))
    triples = []
    for e in range(num_entities):
        degree = min(num_sources, int(rng.integers(1, 5)))
        for s in rng.choice(num_sources, size=degree, replace=False):
            triples.append(Triple(f"e{e}", f"v{rng.integers(0, 3)}", f"s{s}"))
    return _schedule_chain(build_claim_matrix(triples), 20, seed=seed + 100)


def _many_source_chain(seed: int) -> str:
    """30-60 sources, some asserting only positive and some only negative claims."""
    rng = np.random.default_rng(seed)
    num_sources = int(rng.integers(30, 61))
    num_facts = int(rng.integers(40, 120))
    # Per source: 0 = mixed observations, 1 = positive only, 2 = negative only.
    kinds = rng.integers(0, 3, size=num_sources)
    kinds[:2] = (1, 2)
    claim_fact, claim_source, claim_obs = [], [], []
    for fact in range(num_facts):
        # Degree 0 interleaves claimless facts with claimed ones.
        degree = int(rng.integers(0, 9))
        for source in rng.choice(num_sources, size=degree, replace=False).tolist():
            mixed = bool(rng.random() < 0.6)
            claim_fact.append(fact)
            claim_source.append(source)
            claim_obs.append({0: mixed, 1: True, 2: False}[int(kinds[source])])
    claims = ClaimMatrix(
        facts=[Fact(f, f"e{f // 3}", f"v{f}") for f in range(num_facts)],
        source_names=[f"s{s}" for s in range(num_sources)],
        claim_fact=claim_fact,
        claim_source=claim_source,
        claim_obs=claim_obs,
    )
    return _schedule_chain(claims, 50, seed=seed + 200)


CASES = {
    **{
        f"catalog/{key}-{budget}": (lambda key=key, budget=budget: _schedule_chain(_catalog_claims(key), budget, seed=13))
        for key, budget in CATALOG_CASES
    },
    **{
        f"paper_example/budget-{budget}": (lambda budget=budget: _schedule_chain(_paper_claims(), budget, seed=budget))
        for budget in PAPER_BUDGETS
    },
    "movies_small/checkpoints-callback": _checkpoint_callback_chain,
    "paper_example/initial-truth": _initial_truth_chain,
    "degenerate/single-source": _single_source_chain,
    "degenerate/claimless-facts": _claimless_chain,
    "degenerate/all-claimless": _all_claimless_chain,
    **{f"random/seed-{seed}": (lambda seed=seed: _random_corpus_chain(seed)) for seed in range(6)},
    **{f"random/many-sources-seed-{seed}": (lambda seed=seed: _many_source_chain(seed)) for seed in range(4)},
}


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_matches_golden_digest(case, sweep_backend):
    assert CASES[case]() == GOLDEN[case]
