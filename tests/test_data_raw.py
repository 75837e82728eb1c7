"""Unit tests for the raw database (Definition 1)."""

import pytest

from repro.data.raw import RawDatabase
from repro.exceptions import DataModelError, DuplicateRowError, EmptyDatasetError
from repro.types import Triple


class TestRawDatabase:
    def test_add_and_len(self, paper_triples):
        raw = RawDatabase(paper_triples)
        assert len(raw) == len(paper_triples)

    def test_rows_are_unique(self):
        raw = RawDatabase(strict=True)
        raw.add(("e", "a", "s"))
        with pytest.raises(DuplicateRowError):
            raw.add(("e", "a", "s"))

    def test_non_strict_ignores_duplicates(self):
        raw = RawDatabase(strict=False)
        assert raw.add(("e", "a", "s")) is True
        assert raw.add(("e", "a", "s")) is False
        assert len(raw) == 1

    def test_accepts_triple_objects_and_tuples(self):
        raw = RawDatabase()
        raw.add(Triple("e", "a", "s"))
        raw.add(("e", "b", "s"))
        assert len(raw) == 2

    def test_contains(self, paper_raw):
        assert Triple("Harry Potter", "Rupert Grint", "IMDB") in paper_raw
        assert ("Harry Potter", "Rupert Grint", "Netflix") not in paper_raw
        assert "not a triple" not in paper_raw

    def test_entities_and_sources(self, paper_raw):
        assert paper_raw.num_entities == 2
        assert paper_raw.num_sources == 4
        assert "Harry Potter" in paper_raw.entities
        assert "Hulu.com" in paper_raw.sources

    def test_attributes_of(self, paper_raw):
        attrs = paper_raw.attributes_of("Harry Potter")
        assert attrs == ["Daniel Radcliffe", "Emma Watson", "Rupert Grint", "Johnny Depp"]
        assert paper_raw.attributes_of("unknown movie") == []

    def test_sources_of(self, paper_raw):
        assert paper_raw.sources_of("Harry Potter") == {"IMDB", "Netflix", "BadSource.com"}
        assert paper_raw.sources_of("Pirates 4") == {"Hulu.com"}

    def test_entities_of(self, paper_raw):
        assert paper_raw.entities_of("IMDB") == {"Harry Potter"}
        assert paper_raw.entities_of("unknown") == set()

    def test_triples_of(self, paper_raw):
        assert len(paper_raw.triples_of("Pirates 4")) == 1

    def test_extend_counts_new_rows(self):
        raw = RawDatabase(strict=False)
        added = raw.extend([("e", "a", "s"), ("e", "a", "s"), ("e", "b", "s")])
        assert added == 2

    def test_restrict_to_entities(self, paper_raw):
        restricted = paper_raw.restrict_to_entities(["Pirates 4"])
        assert restricted.num_entities == 1
        assert len(restricted) == 1

    def test_require_non_empty(self):
        with pytest.raises(EmptyDatasetError):
            RawDatabase().require_non_empty()

    def test_summary(self, paper_raw):
        assert paper_raw.summary() == {"triples": 8, "entities": 2, "sources": 4}

    def test_iteration_yields_triples(self, paper_raw):
        triples = list(paper_raw)
        assert all(isinstance(t, Triple) for t in triples)
        assert len(triples) == 8

    def test_underlying_table_has_key(self, paper_raw):
        with pytest.warns(DeprecationWarning, match="RawDatabase.table"):
            table = paper_raw.table
        assert table.contains_key(("Harry Potter", "Rupert Grint", "IMDB"))

    def test_iteration_keeps_insertion_order(self, paper_triples):
        raw = RawDatabase([*paper_triples, paper_triples[0]], strict=False)
        assert list(raw) == paper_triples

    @pytest.mark.parametrize("field", ["entity", "attribute", "source"])
    def test_none_field_rejected_before_any_change(self, paper_raw, field):
        triple = {"entity": "e", "attribute": "a", "source": "s", field: None}
        before = (list(paper_raw), paper_raw.entities, paper_raw.sources)
        with pytest.raises(DataModelError, match=f"{field} is None in triple"):
            paper_raw.add(Triple(**triple))
        assert (list(paper_raw), paper_raw.entities, paper_raw.sources) == before


class TestTripleType:
    def test_as_tuple(self):
        triple = Triple("e", "a", "s")
        assert triple.as_tuple() == ("e", "a", "s")

    def test_frozen(self):
        triple = Triple("e", "a", "s")
        with pytest.raises(AttributeError):
            triple.entity = "other"

    def test_equality_and_hash(self):
        assert Triple("e", "a", "s") == Triple("e", "a", "s")
        assert len({Triple("e", "a", "s"), Triple("e", "a", "s")}) == 1
