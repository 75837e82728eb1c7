"""Hash indexes over table columns.

A :class:`HashIndex` maps the value(s) of one or more columns to the list of
row positions holding those values.  Indexes are maintained incrementally by
:class:`repro.store.table.Table` on insert and delete.  Deprecated with the
rest of the in-memory relational engine (see :mod:`repro.store`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Mapping

from repro.exceptions import UnknownColumnError

__all__ = ["HashIndex"]


class HashIndex:
    """An in-memory hash index over one or more columns of a table.

    Parameters
    ----------
    columns:
        Names of the indexed columns.  Lookups use a tuple of values in the
        same order (a single value may be passed for single-column indexes).
    """

    def __init__(self, columns: Iterable[str]):
        self.columns: tuple[str, ...] = tuple(columns)
        if not self.columns:
            raise UnknownColumnError("an index must cover at least one column")
        self._buckets: dict[tuple[Any, ...], list[int]] = defaultdict(list)

    # -- maintenance ----------------------------------------------------------
    def _key_for(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        try:
            return tuple(row[c] for c in self.columns)
        except KeyError as exc:  # pragma: no cover - defensive
            raise UnknownColumnError(f"row missing indexed column {exc}") from exc

    def add(self, position: int, row: Mapping[str, Any]) -> None:
        """Register ``row`` stored at ``position`` in the index."""
        self._buckets[self._key_for(row)].append(position)

    def remove(self, position: int, row: Mapping[str, Any]) -> None:
        """Remove the entry for ``row`` stored at ``position``."""
        key = self._key_for(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(position)
        except ValueError:
            return
        if not bucket:
            del self._buckets[key]

    def rebuild(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Discard the index contents and rebuild from ``rows``."""
        self._buckets.clear()
        for position, row in enumerate(rows):
            self.add(position, row)

    # -- lookups ---------------------------------------------------------------
    def _normalise_key(self, key: Any) -> tuple[Any, ...]:
        if isinstance(key, tuple):
            return key
        return (key,)

    def lookup(self, key: Any) -> list[int]:
        """Return the row positions whose indexed columns equal ``key``."""
        return list(self._buckets.get(self._normalise_key(key), ()))

    def __contains__(self, key: object) -> bool:
        return self._normalise_key(key) in self._buckets

    def keys(self) -> list[tuple[Any, ...]]:
        """Return all distinct key tuples present in the index."""
        return list(self._buckets.keys())

    def __len__(self) -> int:
        return len(self._buckets)
