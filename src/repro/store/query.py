"""Relational query operators over :class:`~repro.store.table.Table`.

These operators are deliberately simple: they materialise their results as
lists of dicts.  Deprecated with the rest of the in-memory relational engine
(see :mod:`repro.store`); no data path uses them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.exceptions import UnknownColumnError
from repro.store.table import Table

__all__ = [
    "select",
    "project",
    "equi_join",
    "group_by",
    "aggregate",
    "order_by",
    "distinct",
]

Rows = Iterable[Mapping[str, Any]]


def _as_rows(relation: Table | Rows) -> list[Mapping[str, Any]]:
    if isinstance(relation, Table):
        return list(relation.rows)
    return list(relation)


def select(relation: Table | Rows, predicate: Callable[[Mapping[str, Any]], bool]) -> list[dict[str, Any]]:
    """Return the rows of ``relation`` for which ``predicate`` is true."""
    return [dict(row) for row in _as_rows(relation) if predicate(row)]


def project(relation: Table | Rows, columns: Sequence[str]) -> list[dict[str, Any]]:
    """Return rows restricted to ``columns`` (duplicates preserved)."""
    rows = _as_rows(relation)
    out: list[dict[str, Any]] = []
    for row in rows:
        try:
            out.append({c: row[c] for c in columns})
        except KeyError as exc:
            raise UnknownColumnError(f"projection references unknown column {exc}") from exc
    return out


def distinct(relation: Table | Rows, columns: Sequence[str] | None = None) -> list[dict[str, Any]]:
    """Return distinct rows (optionally restricted to ``columns``), preserving order."""
    rows = _as_rows(relation)
    if columns is not None:
        rows = project(rows, columns)
    seen: set[tuple[tuple[str, Any], ...]] = set()
    out: list[dict[str, Any]] = []
    for row in rows:
        key = tuple(sorted(row.items()))
        if key not in seen:
            seen.add(key)
            out.append(dict(row))
    return out


def equi_join(
    left: Table | Rows,
    right: Table | Rows,
    on: Sequence[str],
    suffix: str = "_right",
) -> list[dict[str, Any]]:
    """Hash equi-join of ``left`` and ``right`` on the columns ``on``.

    Columns of ``right`` that collide with columns of ``left`` (other than the
    join columns) are renamed with ``suffix``.
    """
    left_rows = _as_rows(left)
    right_rows = _as_rows(right)
    buckets: dict[tuple[Any, ...], list[Mapping[str, Any]]] = defaultdict(list)
    for row in right_rows:
        try:
            key = tuple(row[c] for c in on)
        except KeyError as exc:
            raise UnknownColumnError(f"join references unknown column {exc} in right relation") from exc
        buckets[key].append(row)

    out: list[dict[str, Any]] = []
    for lrow in left_rows:
        try:
            key = tuple(lrow[c] for c in on)
        except KeyError as exc:
            raise UnknownColumnError(f"join references unknown column {exc} in left relation") from exc
        for rrow in buckets.get(key, ()):
            combined = dict(lrow)
            for name, value in rrow.items():
                if name in on:
                    continue
                if name in combined:
                    combined[f"{name}{suffix}"] = value
                else:
                    combined[name] = value
            out.append(combined)
    return out


def group_by(relation: Table | Rows, columns: Sequence[str]) -> dict[tuple[Any, ...], list[dict[str, Any]]]:
    """Group rows by the values of ``columns``; returns ``{key_tuple: rows}``."""
    groups: dict[tuple[Any, ...], list[dict[str, Any]]] = defaultdict(list)
    for row in _as_rows(relation):
        try:
            key = tuple(row[c] for c in columns)
        except KeyError as exc:
            raise UnknownColumnError(f"group_by references unknown column {exc}") from exc
        groups[key].append(dict(row))
    return dict(groups)


def aggregate(
    relation: Table | Rows,
    columns: Sequence[str],
    aggregations: Mapping[str, Callable[[list[dict[str, Any]]], Any]],
) -> list[dict[str, Any]]:
    """Group by ``columns`` and apply each aggregation to the group's rows.

    ``aggregations`` maps output column names to callables receiving the list
    of rows in the group.
    """
    out: list[dict[str, Any]] = []
    for key, rows in group_by(relation, columns).items():
        record = dict(zip(columns, key))
        for name, fn in aggregations.items():
            record[name] = fn(rows)
        out.append(record)
    return out


def order_by(
    relation: Table | Rows,
    columns: Sequence[str],
    descending: bool = False,
) -> list[dict[str, Any]]:
    """Return rows sorted by ``columns``."""
    rows = [dict(row) for row in _as_rows(relation)]

    def sort_key(row: Mapping[str, Any]) -> tuple[Any, ...]:
        try:
            return tuple(row[c] for c in columns)
        except KeyError as exc:
            raise UnknownColumnError(f"order_by references unknown column {exc}") from exc

    return sorted(rows, key=sort_key, reverse=descending)
