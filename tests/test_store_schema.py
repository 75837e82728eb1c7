"""Unit tests for repro.store.schema."""

import pytest

from repro.exceptions import SchemaError
from repro.store.schema import Column, Schema

# The relational engine is deprecated; its unit tests run until the window closes.
pytestmark = pytest.mark.filterwarnings("ignore:repro.store.* is deprecated:DeprecationWarning")


class TestColumn:
    def test_validates_type(self):
        column = Column("age", int)
        column.validate(3)

    def test_rejects_wrong_type(self):
        column = Column("age", int)
        with pytest.raises(SchemaError):
            column.validate("three")

    def test_object_accepts_anything(self):
        column = Column("anything")
        column.validate(3)
        column.validate("text")
        column.validate([1, 2])

    def test_nullable_accepts_none(self):
        column = Column("note", str, nullable=True)
        column.validate(None)

    def test_non_nullable_rejects_none(self):
        column = Column("note", str)
        with pytest.raises(SchemaError):
            column.validate(None)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_tuple_dtype(self):
        column = Column("value", (int, float))
        column.validate(1)
        column.validate(1.5)
        with pytest.raises(SchemaError):
            column.validate("1")


class TestSchema:
    def test_column_names_in_order(self):
        schema = Schema.of(["a", "b", "c"])
        assert schema.column_names == ("a", "b", "c")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(["a", "a"])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema(columns=())

    def test_key_must_be_a_column(self):
        with pytest.raises(SchemaError):
            Schema.of(["a"], key=["b"])

    def test_of_accepts_mixed_specs(self):
        schema = Schema.of([Column("a", int), "b", ("c", str)])
        assert schema.column("c").dtype is str

    def test_of_rejects_bad_spec(self):
        with pytest.raises(SchemaError):
            Schema.of([123])

    def test_contains(self):
        schema = Schema.of(["a", "b"])
        assert "a" in schema
        assert "z" not in schema

    def test_len(self):
        assert len(Schema.of(["a", "b", "c"])) == 3

    def test_column_lookup_unknown(self):
        schema = Schema.of(["a"])
        with pytest.raises(SchemaError):
            schema.column("missing")

    def test_validate_row_normalises_order(self):
        schema = Schema.of([("a", int), ("b", str)])
        row = schema.validate_row({"b": "x", "a": 1})
        assert list(row) == ["a", "b"]

    def test_validate_row_missing_column(self):
        schema = Schema.of([("a", int)])
        with pytest.raises(SchemaError):
            schema.validate_row({})

    def test_validate_row_nullable_fills_none(self):
        schema = Schema(columns=(Column("a", int), Column("b", str, nullable=True)))
        row = schema.validate_row({"a": 1})
        assert row["b"] is None

    def test_validate_row_extra_column(self):
        schema = Schema.of(["a"])
        with pytest.raises(SchemaError):
            schema.validate_row({"a": 1, "zzz": 2})

    def test_key_of(self):
        schema = Schema.of(["a", "b"], key=["b", "a"])
        assert schema.key_of({"a": 1, "b": 2}) == (2, 1)

    def test_key_of_without_key(self):
        schema = Schema.of(["a"])
        assert schema.key_of({"a": 1}) is None
