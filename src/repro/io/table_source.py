"""Deprecated: ``TableSource``, a relational table as a data source.

Served with a :class:`DeprecationWarning` by :mod:`repro.io` and
:mod:`repro.io.sources` until its window closes (``as_source`` still wraps a
table in it); use :class:`~repro.io.sources.MemorySource` instead.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.exceptions import ConfigurationError
from repro.io.base import DataSource, SourceSchema
from repro.store.database import Database
from repro.store.table import Table
from repro.types import AttributeValue, EntityKey, Triple

__all__ = ["TableSource"]


class TableSource(DataSource):
    """Rows of a relational table as assertion triples.

    Parameters
    ----------
    table:
        A :class:`~repro.store.Table`, or a :class:`~repro.store.Database`
        together with ``table_name``.
    table_name:
        Name of the table when ``table`` is a database.
    entity, attribute, source:
        Column names holding the triple fields.
    truth:
        Optional ``(entity, attribute) -> bool`` ground truth.
    name:
        Source name; defaults to the table name.
    """

    def __init__(
        self,
        table: Table | Database,
        table_name: str | None = None,
        *,
        entity: str = "entity",
        attribute: str = "attribute",
        source: str = "source",
        truth: Mapping[tuple[EntityKey, AttributeValue], bool] | None = None,
        name: str | None = None,
    ):
        if isinstance(table, Database):
            if table_name is None:
                raise ConfigurationError(
                    "TableSource over a Database needs table_name"
                )
            table = table.table(table_name)
        self.table = table
        self.columns = {"entity": entity, "attribute": attribute, "source": source}
        missing = [c for c in self.columns.values() if c not in table.column_names]
        if missing:
            raise ConfigurationError(
                f"table {table.name!r} has no column(s) {missing}; "
                f"columns: {list(table.column_names)}"
            )
        self._truth = dict(truth) if truth is not None else None
        self._name = name if name is not None else table.name

    def schema(self) -> SourceSchema:
        return SourceSchema(
            name=self._name,
            kind="table",
            has_labels=self._truth is not None,
            num_triples=len(self.table),
            metadata={"table": self.table.name, "columns": dict(self.columns)},
        )

    def iter_triples(self) -> Iterator[Triple]:
        e, a, s = self.columns["entity"], self.columns["attribute"], self.columns["source"]
        for row in self.table:
            yield Triple(row[e], row[a], row[s])

    def labels(self) -> dict[tuple[EntityKey, AttributeValue], bool] | None:
        return dict(self._truth) if self._truth is not None else None
