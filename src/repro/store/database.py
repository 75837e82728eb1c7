"""A named collection of tables (deprecated, like the rest of the seed's
in-memory relational engine; see :mod:`repro.store`).

The integration workspace is no longer a :class:`Database`:
``run_integration(keep_workspace=True)`` returns the raw, fact, claim and
truth relations as read-only numpy columns.
"""

from __future__ import annotations

from typing import Iterator

from repro.exceptions import StoreError
from repro.store.schema import Schema
from repro.store.table import Table

__all__ = ["Database"]


class Database:
    """A dictionary of named :class:`~repro.store.table.Table` objects."""

    def __init__(self, name: str = "repro"):
        self.name = name
        self._tables: dict[str, Table] = {}

    # -- table management ------------------------------------------------------
    def create_table(self, name: str, schema: Schema, replace: bool = False) -> Table:
        """Create a table called ``name`` with ``schema``.

        Raises
        ------
        StoreError
            If a table with the same name already exists and ``replace`` is
            false.
        """
        if name in self._tables and not replace:
            raise StoreError(f"database {self.name!r} already has a table named {name!r}")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def attach(self, table: Table, replace: bool = False) -> Table:
        """Register an existing :class:`Table` under its own name."""
        if table.name in self._tables and not replace:
            raise StoreError(f"database {self.name!r} already has a table named {table.name!r}")
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove the table called ``name`` (missing tables are ignored)."""
        self._tables.pop(name, None)

    def table(self, name: str) -> Table:
        """Return the table called ``name``.

        Raises
        ------
        StoreError
            If the table does not exist.
        """
        try:
            return self._tables[name]
        except KeyError as exc:
            raise StoreError(
                f"database {self.name!r} has no table {name!r}; tables: {sorted(self._tables)}"
            ) from exc

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> list[str]:
        """Names of all tables, in creation order."""
        return list(self._tables)

    def summary(self) -> dict[str, int]:
        """Return ``{table_name: row_count}`` for every table."""
        return {name: len(table) for name, table in self._tables.items()}
