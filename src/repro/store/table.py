"""Row-oriented tables with schema validation, keys and secondary indexes.

Deprecated with the rest of the in-memory relational engine (see
:mod:`repro.store`); no data path uses them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import DuplicateKeyError, UnknownColumnError
from repro.store.index import HashIndex
from repro.store.schema import Schema

__all__ = ["Table"]


class Table:
    """An in-memory table: an ordered collection of schema-validated rows.

    Rows are plain dicts keyed by column name.  The table enforces the
    schema's unique key (if any), and maintains any secondary
    :class:`~repro.store.index.HashIndex` created through
    :meth:`create_index`.

    Parameters
    ----------
    name:
        Table name, used in error messages and by :class:`~repro.store.database.Database`.
    schema:
        The :class:`~repro.store.schema.Schema` rows must conform to.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._rows: list[dict[str, Any]] = []
        self._key_index: dict[tuple[Any, ...], int] = {}
        self._indexes: dict[str, HashIndex] = {}

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._rows)

    def __getitem__(self, position: int) -> dict[str, Any]:
        return self._rows[position]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(name={self.name!r}, rows={len(self._rows)}, columns={self.schema.column_names})"

    @property
    def rows(self) -> Sequence[Mapping[str, Any]]:
        """A read-only view of the stored rows."""
        return tuple(self._rows)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return self.schema.column_names

    # -- mutation ---------------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> int:
        """Validate and insert ``row``; return its position.

        Raises
        ------
        SchemaError
            If the row does not match the schema.
        DuplicateKeyError
            If the schema declares a key and the row's key already exists.
        """
        normalised = self.schema.validate_row(row)
        key = self.schema.key_of(normalised)
        if key is not None and key in self._key_index:
            raise DuplicateKeyError(
                f"table {self.name!r} already contains a row with key {key!r}"
            )
        position = len(self._rows)
        self._rows.append(normalised)
        if key is not None:
            self._key_index[key] = position
        for index in self._indexes.values():
            index.add(position, normalised)
        return position

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert every row of ``rows``; return their positions."""
        return [self.insert(row) for row in rows]

    def upsert(self, row: Mapping[str, Any]) -> int:
        """Insert ``row``, replacing an existing row with the same key."""
        normalised = self.schema.validate_row(row)
        key = self.schema.key_of(normalised)
        if key is not None and key in self._key_index:
            position = self._key_index[key]
            old = self._rows[position]
            for index in self._indexes.values():
                index.remove(position, old)
                index.add(position, normalised)
            self._rows[position] = normalised
            return position
        return self.insert(normalised)

    def clear(self) -> None:
        """Remove all rows (indexes are kept but emptied)."""
        self._rows.clear()
        self._key_index.clear()
        for index in self._indexes.values():
            index.rebuild(())

    # -- lookups ----------------------------------------------------------------
    def get(self, key: tuple[Any, ...] | Any) -> dict[str, Any] | None:
        """Return the row with primary key ``key``, or ``None`` if absent."""
        if not isinstance(key, tuple):
            key = (key,)
        position = self._key_index.get(key)
        if position is None:
            return None
        return self._rows[position]

    def contains_key(self, key: tuple[Any, ...] | Any) -> bool:
        """Whether a row with primary key ``key`` exists."""
        return self.get(key) is not None

    def create_index(self, name: str, columns: Iterable[str]) -> HashIndex:
        """Create (or replace) a secondary hash index over ``columns``."""
        for column in columns:
            if column not in self.schema:
                raise UnknownColumnError(
                    f"cannot index unknown column {column!r} on table {self.name!r}"
                )
        index = HashIndex(columns)
        index.rebuild(self._rows)
        self._indexes[name] = index
        return index

    def index(self, name: str) -> HashIndex:
        """Return the secondary index registered under ``name``."""
        try:
            return self._indexes[name]
        except KeyError as exc:
            raise UnknownColumnError(f"table {self.name!r} has no index {name!r}") from exc

    def lookup(self, index_name: str, key: Any) -> list[dict[str, Any]]:
        """Return the rows matching ``key`` in the secondary index ``index_name``."""
        positions = self.index(index_name).lookup(key)
        return [self._rows[p] for p in positions]

    # -- scanning ---------------------------------------------------------------
    def scan(
        self, predicate: Callable[[Mapping[str, Any]], bool] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield rows, optionally filtered by ``predicate``."""
        if predicate is None:
            yield from self._rows
            return
        for row in self._rows:
            if predicate(row):
                yield row

    def column(self, name: str) -> list[Any]:
        """Return the values of column ``name`` for every row, in order."""
        if name not in self.schema:
            raise UnknownColumnError(f"table {self.name!r} has no column {name!r}")
        return [row[name] for row in self._rows]

    def distinct(self, name: str) -> list[Any]:
        """Return the distinct values of column ``name`` in first-seen order."""
        seen: dict[Any, None] = {}
        for value in self.column(name):
            seen.setdefault(value, None)
        return list(seen)

    def to_records(self) -> list[tuple[Any, ...]]:
        """Return rows as tuples in schema column order."""
        names = self.schema.column_names
        return [tuple(row[c] for c in names) for row in self._rows]
