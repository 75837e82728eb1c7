"""Table schemas for the in-memory relational store (deprecated; see :mod:`repro.store`).

A :class:`Schema` is an ordered collection of typed :class:`Column`
definitions plus an optional primary-key / unique-key declaration.  Schemas
validate rows before they are stored so that downstream code can rely on
column presence and types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.exceptions import SchemaError

__all__ = ["Column", "Schema"]


@dataclass(frozen=True, slots=True)
class Column:
    """A single typed column of a table schema.

    Attributes
    ----------
    name:
        Column name.  Must be a non-empty string, unique within its schema.
    dtype:
        Python type (or tuple of types) values must be instances of.
        ``object`` accepts anything.
    nullable:
        Whether ``None`` is an accepted value.
    """

    name: str
    dtype: type | tuple[type, ...] = object
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"column name must be a non-empty string, got {self.name!r}")

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` is not valid for this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if self.dtype is object:
            return
        if not isinstance(value, self.dtype):
            raise SchemaError(
                f"column {self.name!r} expects {self.dtype!r}, got {type(value).__name__}: {value!r}"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered, typed table schema with optional key constraints.

    Attributes
    ----------
    columns:
        Ordered sequence of :class:`Column` definitions.
    key:
        Optional tuple of column names forming a unique key for the table.
        Rows with a duplicate key are rejected on insert.
    """

    columns: tuple[Column, ...]
    key: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema: {names}")
        if not names:
            raise SchemaError("a schema must declare at least one column")
        for key_col in self.key:
            if key_col not in names:
                raise SchemaError(f"key column {key_col!r} is not a schema column")

    # -- construction helpers -------------------------------------------------
    @classmethod
    def of(
        cls,
        columns: Iterable[Column | str | tuple[str, type]],
        key: Sequence[str] = (),
    ) -> "Schema":
        """Build a schema from a mixed iterable of column specifications.

        Each element may be a :class:`Column`, a bare column name (typed as
        ``object``), or a ``(name, dtype)`` pair.
        """
        cols: list[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                cols.append(spec)
            elif isinstance(spec, str):
                cols.append(Column(spec))
            elif isinstance(spec, tuple) and len(spec) == 2:
                cols.append(Column(spec[0], spec[1]))
            else:
                raise SchemaError(f"unsupported column specification: {spec!r}")
        return cls(columns=tuple(cols), key=tuple(key))

    # -- introspection --------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of the schema columns, in declaration order."""
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        """Return the :class:`Column` named ``name``.

        Raises
        ------
        SchemaError
            If no such column exists.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"unknown column {name!r}; schema has {self.column_names}")

    def __contains__(self, name: object) -> bool:
        return any(c.name == name for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    # -- validation ------------------------------------------------------------
    def validate_row(self, row: Mapping[str, Any]) -> dict[str, Any]:
        """Validate ``row`` against this schema and return a normalised dict.

        The returned dict contains exactly the schema columns in schema order.
        Missing non-nullable columns and unexpected extra columns raise
        :class:`SchemaError`.
        """
        extra = set(row) - set(self.column_names)
        if extra:
            raise SchemaError(f"row has unknown columns {sorted(extra)}; schema has {self.column_names}")
        normalised: dict[str, Any] = {}
        for col in self.columns:
            value = row.get(col.name)
            if col.name not in row:
                if not col.nullable:
                    raise SchemaError(f"row is missing non-nullable column {col.name!r}")
                value = None
            col.validate(value)
            normalised[col.name] = value
        return normalised

    def key_of(self, row: Mapping[str, Any]) -> tuple[Any, ...] | None:
        """Return the key tuple of ``row``, or ``None`` when no key is declared."""
        if not self.key:
            return None
        return tuple(row[name] for name in self.key)
