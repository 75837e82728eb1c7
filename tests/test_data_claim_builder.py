"""Tests for claim construction (Definitions 2-3, paper Tables 2-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claim_reference import reference_claim_matrix

from repro.baselines.voting import Voting
from repro.data.claim_builder import build_claim_matrix, build_dataset, bulk_build_claim_matrix
from repro.data.raw import RawDatabase
from repro.exceptions import DataModelError, DuplicateRowError, EmptyDatasetError
from repro.pipeline import run_integration
from repro.types import Triple, TripleColumns


@pytest.fixture
def paper_workspace(paper_triples):
    """The paper example's relations, as ``run_integration`` returns them."""
    return run_integration(paper_triples, method=Voting(), keep_workspace=True).workspace


class TestFactTable:
    def test_facts_are_distinct_entity_attribute_pairs(self, paper_claims):
        pairs = {(f.entity, f.attribute) for f in paper_claims.facts}
        assert len(pairs) == paper_claims.num_facts == 5

    def test_fact_ids_are_dense(self, paper_claims):
        assert [f.fact_id for f in paper_claims.facts] == list(range(5))

    def test_fact_table_relational_view(self, paper_workspace):
        table = paper_workspace["facts"]
        assert len(table["fact_id"]) == 5
        assert set(table) == {"fact_id", "entity", "attribute"}


class TestClaimGeneration:
    """The three claim-generation rules of Definition 3."""

    def test_total_claim_count_matches_paper_table3(self, paper_claims):
        # Table 3: 4 facts x 3 Harry Potter sources + 1 Hulu claim = 13 claims.
        assert paper_claims.num_claims == 13

    def test_positive_claims_match_raw_assertions(self, paper_claims, paper_raw):
        assert paper_claims.num_positive_claims == len(paper_raw)

    def test_rule1_positive_claim(self, paper_claims):
        # IMDB asserted Rupert Grint: positive claim.
        fact_id = next(
            f.fact_id for f in paper_claims.facts if f.attribute == "Rupert Grint"
        )
        positive = paper_claims.positive_sources_of(fact_id)
        assert paper_claims.source_id("IMDB") in positive

    def test_rule2_negative_claim(self, paper_claims):
        # Netflix asserted Harry Potter (Daniel) but not Emma Watson: negative claim.
        fact_id = next(
            f.fact_id for f in paper_claims.facts if f.attribute == "Emma Watson"
        )
        negative = paper_claims.negative_sources_of(fact_id)
        assert paper_claims.source_id("Netflix") in negative

    def test_rule3_no_claim_for_uninvolved_source(self, paper_claims):
        # Hulu.com asserted nothing about Harry Potter: no claim at all for its facts.
        hulu = paper_claims.source_id("Hulu.com")
        for fact in paper_claims.facts:
            if fact.entity != "Harry Potter":
                continue
            sources, _ = paper_claims.claims_of(fact.fact_id)
            assert hulu not in sources

    def test_one_claim_per_fact_source_pair(self, paper_claims):
        pairs = list(zip(paper_claims.claim_fact.tolist(), paper_claims.claim_source.tolist()))
        assert len(pairs) == len(set(pairs))

    def test_claim_table_relational_view(self, paper_workspace):
        table = paper_workspace["claims"]
        assert len(table["fact_id"]) == 13
        true_count = sum(1 for observation in table["observation"] if observation)
        assert true_count == 8

    def test_duplicate_triples_do_not_duplicate_claims(self):
        raw = RawDatabase(strict=False)
        raw.extend([("e", "a", "s"), ("e", "a", "s"), ("e", "b", "s2")])
        claims = build_claim_matrix(raw)
        assert claims.num_claims == 4  # 2 positive + 2 negative

    def test_empty_raw_database_rejected(self):
        with pytest.raises(EmptyDatasetError):
            build_claim_matrix(RawDatabase())


class TestBuildHelpers:
    def test_build_claim_matrix_from_tuples(self):
        claims = build_claim_matrix([("e", "a", "s1"), ("e", "b", "s2")])
        assert claims.num_facts == 2
        assert claims.num_claims == 4

    def test_build_claim_matrix_from_raw(self, paper_raw):
        claims = build_claim_matrix(paper_raw)
        assert claims.num_facts == 5

    def test_build_dataset_labels(self, paper_triples):
        dataset = build_dataset(
            paper_triples,
            truth={("Harry Potter", "Johnny Depp"): False, ("Harry Potter", "Emma Watson"): True},
        )
        assert dataset.num_labelled == 2
        values = {dataset.claims.fact(f).attribute: v for f, v in dataset.labels.items()}
        assert values == {"Johnny Depp": False, "Emma Watson": True}

    def test_build_dataset_ignores_unknown_pairs(self, paper_triples):
        dataset = build_dataset(paper_triples, truth={("No Movie", "Nobody"): True})
        assert dataset.num_labelled == 0

    def test_build_dataset_restricts_to_labelled_entities(self, paper_triples):
        dataset = build_dataset(
            paper_triples,
            truth={("Harry Potter", "Johnny Depp"): False, ("Pirates 4", "Johnny Depp"): True},
            labelled_entities=["Pirates 4"],
        )
        assert dataset.num_labelled == 1

    def test_builder_fact_ids_mapping(self, paper_workspace):
        facts = paper_workspace["facts"]
        mapping = dict(zip(zip(facts["entity"], facts["attribute"]), facts["fact_id"]))
        assert mapping[("Pirates 4", "Johnny Depp")] == 4

    def test_build_is_idempotent(self, paper_raw):
        first = build_claim_matrix(paper_raw)
        second = build_claim_matrix(paper_raw)
        assert first.num_claims == second.num_claims
        assert np.array_equal(first.claim_fact, second.claim_fact)


# ---------------------------------------------------------------------------
# Vectorized bulk ingest: must be indistinguishable from the row-at-a-time
# reference of Definitions 2-3 (tests/claim_reference.py)
# ---------------------------------------------------------------------------
_triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 6).map(lambda i: f"e{i}"),
        st.integers(0, 5).map(lambda i: f"a{i}"),
        st.integers(0, 5).map(lambda i: f"s{i}"),
    ),
    min_size=1,
    max_size=80,
)


def _assert_matrices_identical(seq, blk):
    assert list(seq.source_names) == list(blk.source_names)
    assert [(f.fact_id, f.entity, f.attribute) for f in seq.facts] == [
        (f.fact_id, f.entity, f.attribute) for f in blk.facts
    ]
    np.testing.assert_array_equal(seq.claim_fact, blk.claim_fact)
    np.testing.assert_array_equal(seq.claim_source, blk.claim_source)
    np.testing.assert_array_equal(seq.claim_obs, blk.claim_obs)
    np.testing.assert_array_equal(seq.fact_ptr, blk.fact_ptr)


class TestBulkIngestParity:
    @settings(max_examples=150, deadline=None)
    @given(triples=_triples_strategy)
    def test_bulk_matches_sequential_builder(self, triples):
        seq = reference_claim_matrix(triples)
        blk = bulk_build_claim_matrix(triples)
        _assert_matrices_identical(seq, blk)

    def test_paper_example_identical(self, paper_triples):
        _assert_matrices_identical(
            reference_claim_matrix(paper_triples), bulk_build_claim_matrix(paper_triples)
        )

    def test_accepts_triple_objects_tuples_and_mixed(self):
        as_tuples = [("e", "a", "s1"), ("e", "b", "s2")]
        as_triples = [Triple(*t) for t in as_tuples]
        mixed = [as_triples[0], as_tuples[1]]
        reference = bulk_build_claim_matrix(as_tuples)
        for variant in (as_triples, mixed):
            _assert_matrices_identical(reference, bulk_build_claim_matrix(variant))

    def test_accepts_raw_database(self, paper_triples, paper_raw):
        _assert_matrices_identical(
            reference_claim_matrix(paper_triples), bulk_build_claim_matrix(paper_raw)
        )

    def test_non_string_attributes_survive(self):
        triples = [("e1", 1, "s1"), ("e1", "x", "s2"), ("e2", 2.5, "s1"), ("e2", 2.5, "s3")]
        seq = reference_claim_matrix(triples)
        blk = bulk_build_claim_matrix(triples)
        _assert_matrices_identical(seq, blk)
        assert blk.facts[0].attribute == 1  # values, not str renderings

    def test_strict_duplicate_rejected(self):
        with pytest.raises(DuplicateRowError):
            bulk_build_claim_matrix([("e", "a", "s"), ("e", "a", "s")], strict=True)
        # Non-strict drops the duplicate, like RawDatabase(strict=False).
        assert bulk_build_claim_matrix([("e", "a", "s"), ("e", "a", "s")]).num_claims == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            bulk_build_claim_matrix([])

    def test_wrong_arity_rejected_not_truncated(self):
        with pytest.raises(DataModelError, match="expected \\(entity, attribute, source\\)"):
            bulk_build_claim_matrix([("e", "a", "s", "extra-column")])
        with pytest.raises(DataModelError):
            bulk_build_claim_matrix([("e", "a")])
        with pytest.raises(DataModelError):
            bulk_build_claim_matrix([Triple("e", "a", "s"), ("e", "a", "s", "extra")])

    def test_build_claim_matrix_routes_through_bulk(self):
        triples = [("e", "a", "s1"), ("e", "b", "s2")]
        _assert_matrices_identical(
            bulk_build_claim_matrix(triples), build_claim_matrix(triples)
        )

    def test_classmethod_alias(self, paper_triples, paper_claims):
        with pytest.warns(DeprecationWarning, match="ClaimTableBuilder"):
            from repro.data.claim_builder import ClaimTableBuilder
        _assert_matrices_identical(paper_claims, ClaimTableBuilder.bulk(paper_triples))

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_none_field_rejected_naming_column_and_triple(self, field):
        triple = ["e", "a", "s"]
        triple[field] = None
        name = ("entity", "attribute", "source")[field]
        rows = [("e0", "a0", "s0"), tuple(triple)]
        message = f"{name} is None in triple {tuple(triple)!r}"
        for data in (rows, TripleColumns(*zip(*rows))):
            with pytest.raises(DataModelError) as excinfo:
                bulk_build_claim_matrix(data)
            assert str(excinfo.value) == message
        with pytest.raises(DataModelError) as excinfo:
            RawDatabase(rows)
        assert str(excinfo.value) == message
