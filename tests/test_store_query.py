"""Unit tests for repro.store.query and repro.store.database."""

import pytest

from repro.exceptions import StoreError, UnknownColumnError
from repro.store.database import Database
from repro.store.query import aggregate, distinct, equi_join, group_by, order_by, project, select
from repro.store.schema import Column, Schema
from repro.store.table import Table

# The relational engine is deprecated; its unit tests run until the window closes.
pytestmark = pytest.mark.filterwarnings("ignore:repro.store.* is deprecated:DeprecationWarning")


@pytest.fixture
def movies_table() -> Table:
    schema = Schema.of([("title", str), ("cast", str), ("source", str)])
    table = Table("movies", schema)
    table.insert_many(
        [
            {"title": "Harry Potter", "cast": "Daniel Radcliffe", "source": "imdb"},
            {"title": "Harry Potter", "cast": "Emma Watson", "source": "imdb"},
            {"title": "Harry Potter", "cast": "Daniel Radcliffe", "source": "netflix"},
            {"title": "Pirates 4", "cast": "Johnny Depp", "source": "hulu"},
        ]
    )
    return table


class TestQueryOperators:
    def test_select(self, movies_table):
        rows = select(movies_table, lambda r: r["source"] == "imdb")
        assert len(rows) == 2

    def test_project(self, movies_table):
        rows = project(movies_table, ["title"])
        assert rows[0] == {"title": "Harry Potter"}

    def test_project_unknown_column(self, movies_table):
        with pytest.raises(UnknownColumnError):
            project(movies_table, ["director"])

    def test_distinct(self, movies_table):
        rows = distinct(movies_table, ["title"])
        assert len(rows) == 2

    def test_distinct_full_rows(self, movies_table):
        rows = distinct(list(movies_table) + [dict(movies_table[0])])
        assert len(rows) == 4

    def test_equi_join(self, movies_table):
        sources = [
            {"source": "imdb", "reliability": "high"},
            {"source": "hulu", "reliability": "medium"},
        ]
        joined = equi_join(movies_table, sources, on=["source"])
        assert len(joined) == 3
        assert all("reliability" in row for row in joined)

    def test_equi_join_renames_collisions(self):
        left = [{"id": 1, "name": "a"}]
        right = [{"id": 1, "name": "b"}]
        joined = equi_join(left, right, on=["id"])
        assert joined[0]["name"] == "a"
        assert joined[0]["name_right"] == "b"

    def test_equi_join_unknown_column(self, movies_table):
        with pytest.raises(UnknownColumnError):
            equi_join(movies_table, [{"x": 1}], on=["source"])

    def test_group_by(self, movies_table):
        groups = group_by(movies_table, ["title"])
        assert len(groups[("Harry Potter",)]) == 3

    def test_aggregate(self, movies_table):
        rows = aggregate(movies_table, ["title"], {"claims": len})
        by_title = {row["title"]: row["claims"] for row in rows}
        assert by_title == {"Harry Potter": 3, "Pirates 4": 1}

    def test_order_by(self, movies_table):
        rows = order_by(movies_table, ["cast"])
        assert rows[0]["cast"] == "Daniel Radcliffe"
        rows_desc = order_by(movies_table, ["cast"], descending=True)
        assert rows_desc[0]["cast"] == "Johnny Depp"

    def test_order_by_unknown_column(self, movies_table):
        with pytest.raises(UnknownColumnError):
            order_by(movies_table, ["year"])


class TestDatabase:
    def test_create_and_fetch_table(self):
        db = Database("test")
        table = db.create_table("t", Schema.of(["a"]))
        assert db.table("t") is table
        assert "t" in db
        assert len(db) == 1

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", Schema.of(["a"]))
        with pytest.raises(StoreError):
            db.create_table("t", Schema.of(["a"]))

    def test_replace_table(self):
        db = Database()
        db.create_table("t", Schema.of(["a"]))
        replacement = db.create_table("t", Schema.of(["b"]), replace=True)
        assert db.table("t") is replacement

    def test_unknown_table(self):
        db = Database()
        with pytest.raises(StoreError):
            db.table("missing")

    def test_drop_table(self):
        db = Database()
        db.create_table("t", Schema.of(["a"]))
        db.drop_table("t")
        assert "t" not in db
        db.drop_table("t")  # idempotent

    def test_attach_existing_table(self):
        db = Database()
        table = Table("external", Schema.of(["a"]))
        db.attach(table)
        assert db.table("external") is table
        with pytest.raises(StoreError):
            db.attach(Table("external", Schema.of(["a"])))

    def test_summary(self):
        db = Database()
        t = db.create_table("t", Schema.of([("a", int)]))
        t.insert({"a": 1})
        assert db.summary() == {"t": 1}
        assert db.table_names == ["t"]
