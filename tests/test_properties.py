"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.counts import SourceCounts
from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig
from repro.core.incremental import posterior_truth_probability
from repro.core.quality import expected_confusion_counts
from repro.data.claim_builder import build_claim_matrix
from repro.evaluation.confusion import ConfusionMatrix
from repro.evaluation.metrics import evaluate_predictions
from repro.evaluation.roc import auc_score
from repro.store.schema import Column, Schema
from repro.store.table import Table

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
entities = st.integers(min_value=0, max_value=5).map(lambda i: f"e{i}")
attributes = st.integers(min_value=0, max_value=4).map(lambda i: f"a{i}")
sources = st.integers(min_value=0, max_value=4).map(lambda i: f"s{i}")

triples = st.lists(
    st.tuples(entities, attributes, sources),
    min_size=1,
    max_size=60,
)


@st.composite
def claim_matrices(draw):
    return build_claim_matrix(draw(triples), strict=False)


# ---------------------------------------------------------------------------
# Claim construction invariants (Definitions 2-3)
# ---------------------------------------------------------------------------
@given(triples)
@settings(max_examples=60, deadline=None)
def test_claim_builder_invariants(raw_triples):
    claims = build_claim_matrix(raw_triples, strict=False)
    distinct_pairs = {(e, a) for e, a, _ in raw_triples}
    distinct_rows = {(e, a, s) for e, a, s in raw_triples}

    # One fact per distinct (entity, attribute) pair.
    assert claims.num_facts == len(distinct_pairs)
    # One positive claim per distinct raw row.
    assert claims.num_positive_claims == len(distinct_rows)
    # At most one claim per (fact, source) pair.
    pairs = list(zip(claims.claim_fact.tolist(), claims.claim_source.tolist()))
    assert len(pairs) == len(set(pairs))
    # A source has a claim on a fact only if it asserted the fact's entity.
    entity_sources = {}
    for e, _, s in raw_triples:
        entity_sources.setdefault(e, set()).add(s)
    for fact_id, source_id in pairs:
        fact = claims.fact(fact_id)
        assert claims.source_names[source_id] in entity_sources[fact.entity]


@given(claim_matrices(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_counts_match_assignment_after_any_truth(claims, seed):
    rng = np.random.default_rng(seed)
    truth = (rng.random(claims.num_facts) < 0.5).astype(np.int64)
    counts = SourceCounts.from_assignment(claims, truth)
    assert counts.total() == claims.num_claims
    assert (counts.counts >= 0).all()
    # Moving every fact to the opposite bucket and back restores the counts.
    before = counts.counts.copy()
    for f in range(claims.num_facts):
        srcs, obs = claims.claims_of(f)
        counts.move_fact(srcs, obs, int(truth[f]), 1 - int(truth[f]))
    for f in range(claims.num_facts):
        srcs, obs = claims.claims_of(f)
        counts.move_fact(srcs, obs, 1 - int(truth[f]), int(truth[f]))
    assert np.array_equal(counts.counts, before)


# ---------------------------------------------------------------------------
# Inference invariants
# ---------------------------------------------------------------------------
@given(claim_matrices(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gibbs_scores_are_probabilities(claims, seed):
    config = GibbsConfig(iterations=8, burn_in=2, thin=1, seed=seed)
    scores, counts, trace = CollapsedGibbsSampler(config=config).run(claims)
    assert scores.shape == (claims.num_facts,)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert counts.total() == claims.num_claims
    assert trace.total_iterations == 8


@given(claim_matrices())
@settings(max_examples=30, deadline=None)
def test_expected_counts_preserve_mass(claims):
    rng = np.random.default_rng(0)
    scores = rng.random(claims.num_facts)
    expected = expected_confusion_counts(claims, scores)
    assert expected.shape == (claims.num_sources, 2, 2)
    np.testing.assert_allclose(expected.sum(), claims.num_claims)
    assert (expected >= 0).all()


@given(
    claim_matrices(),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=30, deadline=None)
def test_incremental_posterior_is_probability(claims, sens, spec):
    scores = posterior_truth_probability(
        claims,
        sensitivity=np.full(claims.num_sources, sens),
        specificity=np.full(claims.num_sources, spec),
    )
    assert np.all((scores >= 0.0) & (scores <= 1.0))


# ---------------------------------------------------------------------------
# Evaluation invariants
# ---------------------------------------------------------------------------
@given(
    st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200)
)
@settings(max_examples=80, deadline=None)
def test_metrics_consistency(pairs):
    predictions = np.array([p for p, _ in pairs])
    labels = np.array([l for _, l in pairs])
    metrics = evaluate_predictions(predictions, labels)
    assert 0.0 <= metrics.precision <= 1.0
    assert 0.0 <= metrics.recall <= 1.0
    assert 0.0 <= metrics.accuracy <= 1.0
    assert 0.0 <= metrics.f1 <= 1.0
    confusion = metrics.confusion
    assert confusion.total == len(pairs)
    # Accuracy equals the weighted combination of sensitivity and specificity.
    positives = labels.sum()
    negatives = len(labels) - positives
    expected_accuracy = (
        confusion.sensitivity * positives + confusion.specificity * negatives
    ) / len(labels)
    np.testing.assert_allclose(metrics.accuracy, expected_accuracy)


@given(
    st.lists(
        st.integers(min_value=0, max_value=1000).map(lambda i: i / 1000.0),
        min_size=4,
        max_size=100,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_auc_invariant_under_monotone_transform(scores, seed):
    rng = np.random.default_rng(seed)
    scores = np.asarray(scores)
    labels = rng.random(len(scores)) < 0.5
    if labels.all() or (~labels).all():
        return
    base = auc_score(scores, labels)
    transformed = auc_score(scores * 0.5 + 0.25, labels)
    np.testing.assert_allclose(base, transformed)
    assert 0.0 <= base <= 1.0


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_confusion_matrix_measures_bounded(tp, fp, fn, tn):
    matrix = ConfusionMatrix(tp, fp, fn, tn)
    for value in (matrix.precision, matrix.sensitivity, matrix.specificity, matrix.f1):
        assert 0.0 <= value <= 1.0
    if matrix.total > 0:
        assert 0.0 <= matrix.accuracy <= 1.0
    assert matrix.false_positive_rate == 1.0 - matrix.specificity


# ---------------------------------------------------------------------------
# Store invariants
# ---------------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore:repro.store.* is deprecated:DeprecationWarning")
@given(st.lists(st.tuples(st.text(min_size=1, max_size=8), st.integers()), min_size=0, max_size=50))
@settings(max_examples=60, deadline=None)
def test_table_key_uniqueness(rows):
    schema = Schema(columns=(Column("k", str), Column("v", int)), key=("k",))
    table = Table("t", schema)
    seen = {}
    for key, value in rows:
        if key in seen:
            continue
        table.insert({"k": key, "v": value})
        seen[key] = value
    assert len(table) == len(seen)
    for key, value in seen.items():
        assert table.get(key)["v"] == value
