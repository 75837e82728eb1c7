"""Unit tests for repro.store.table and repro.store.index."""

import pytest

from repro.exceptions import DuplicateKeyError, SchemaError, UnknownColumnError
from repro.store.index import HashIndex
from repro.store.schema import Column, Schema
from repro.store.table import Table

# The relational engine is deprecated; its unit tests run until the window closes.
pytestmark = pytest.mark.filterwarnings("ignore:repro.store.* is deprecated:DeprecationWarning")


@pytest.fixture
def people_table() -> Table:
    schema = Schema(
        columns=(Column("name", str), Column("team", str), Column("age", int)),
        key=("name",),
    )
    table = Table("people", schema)
    table.insert({"name": "ada", "team": "red", "age": 36})
    table.insert({"name": "bob", "team": "blue", "age": 29})
    table.insert({"name": "cat", "team": "red", "age": 41})
    return table


class TestTable:
    def test_len_and_iteration(self, people_table):
        assert len(people_table) == 3
        assert [row["name"] for row in people_table] == ["ada", "bob", "cat"]

    def test_getitem(self, people_table):
        assert people_table[1]["name"] == "bob"

    def test_insert_returns_position(self, people_table):
        position = people_table.insert({"name": "dan", "team": "blue", "age": 22})
        assert position == 3

    def test_duplicate_key_rejected(self, people_table):
        with pytest.raises(DuplicateKeyError):
            people_table.insert({"name": "ada", "team": "blue", "age": 99})

    def test_schema_violation_rejected(self, people_table):
        with pytest.raises(SchemaError):
            people_table.insert({"name": "eve", "team": "red", "age": "old"})

    def test_get_by_key(self, people_table):
        assert people_table.get("ada")["age"] == 36
        assert people_table.get(("bob",))["team"] == "blue"
        assert people_table.get("zzz") is None

    def test_contains_key(self, people_table):
        assert people_table.contains_key("cat")
        assert not people_table.contains_key("dog")

    def test_upsert_replaces(self, people_table):
        people_table.upsert({"name": "ada", "team": "green", "age": 37})
        assert len(people_table) == 3
        assert people_table.get("ada")["team"] == "green"

    def test_upsert_inserts_new(self, people_table):
        people_table.upsert({"name": "dan", "team": "green", "age": 20})
        assert len(people_table) == 4

    def test_insert_many(self, people_table):
        positions = people_table.insert_many(
            [{"name": "dan", "team": "blue", "age": 22}, {"name": "eve", "team": "red", "age": 30}]
        )
        assert positions == [3, 4]

    def test_clear(self, people_table):
        people_table.clear()
        assert len(people_table) == 0
        assert people_table.get("ada") is None

    def test_column_and_distinct(self, people_table):
        assert people_table.column("team") == ["red", "blue", "red"]
        assert people_table.distinct("team") == ["red", "blue"]

    def test_column_unknown(self, people_table):
        with pytest.raises(UnknownColumnError):
            people_table.column("salary")

    def test_scan_with_predicate(self, people_table):
        reds = list(people_table.scan(lambda row: row["team"] == "red"))
        assert {row["name"] for row in reds} == {"ada", "cat"}

    def test_scan_without_predicate(self, people_table):
        assert len(list(people_table.scan())) == 3

    def test_to_records(self, people_table):
        records = people_table.to_records()
        assert records[0] == ("ada", "red", 36)

    def test_secondary_index_lookup(self, people_table):
        people_table.create_index("by_team", ["team"])
        rows = people_table.lookup("by_team", "red")
        assert {row["name"] for row in rows} == {"ada", "cat"}

    def test_index_maintained_on_insert(self, people_table):
        people_table.create_index("by_team", ["team"])
        people_table.insert({"name": "dan", "team": "red", "age": 22})
        assert len(people_table.lookup("by_team", "red")) == 3

    def test_index_on_unknown_column(self, people_table):
        with pytest.raises(UnknownColumnError):
            people_table.create_index("bad", ["salary"])

    def test_unknown_index_name(self, people_table):
        with pytest.raises(UnknownColumnError):
            people_table.index("missing")


class TestHashIndex:
    def test_add_and_lookup(self):
        index = HashIndex(["k"])
        index.add(0, {"k": "a"})
        index.add(1, {"k": "a"})
        index.add(2, {"k": "b"})
        assert index.lookup("a") == [0, 1]
        assert index.lookup(("b",)) == [2]
        assert index.lookup("missing") == []

    def test_remove(self):
        index = HashIndex(["k"])
        index.add(0, {"k": "a"})
        index.remove(0, {"k": "a"})
        assert "a" not in index
        # Removing again is a no-op.
        index.remove(0, {"k": "a"})

    def test_rebuild_and_len(self):
        index = HashIndex(["k"])
        index.rebuild([{"k": "a"}, {"k": "b"}, {"k": "a"}])
        assert len(index) == 2
        assert sorted(index.keys()) == [("a",), ("b",)]

    def test_multi_column_key(self):
        index = HashIndex(["a", "b"])
        index.add(0, {"a": 1, "b": 2})
        assert index.lookup((1, 2)) == [0]

    def test_requires_columns(self):
        with pytest.raises(UnknownColumnError):
            HashIndex([])
