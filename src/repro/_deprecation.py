"""Names in their deprecation window, served lazily with a warning.

A package's ``__getattr__`` from :func:`deprecated_getattr` imports the
module defining a deprecated name only on first use, so importing the
package never loads the seed's in-memory relational engine; the other
helpers let the deprecated paths reach that engine lazily too.
"""

from __future__ import annotations

import importlib
import sys
import warnings
from typing import Any, Callable, Iterable

#: Deprecated names served by more than one module: ``name -> (home, advice)``.
CLAIM_TABLE_BUILDER = {"ClaimTableBuilder": ("repro.data.claim_tables", "use build_claim_matrix")}
TABLE_SOURCE = {"TableSource": ("repro.io.table_source", "use MemorySource over the triples")}


def deprecated_getattr(module: str, names: dict[str, tuple[str, str]]) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``module``: ``names`` maps a name to its home module and advice."""

    def __getattr__(name: str) -> Any:
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        home, instead = names[name]
        warnings.warn(
            f"{module}.{name} is deprecated and will be removed; {instead}",
            DeprecationWarning,
            stacklevel=2,
        )
        return getattr(importlib.import_module(home), name)

    return __getattr__


def is_relational_table(data: Any) -> bool:
    """Whether ``data`` is a relational ``Table``, without importing its module."""
    table = sys.modules.get("repro.store.table")
    return table is not None and isinstance(data, table.Table)


def relational_table(name: str, rows: Iterable[tuple], columns: tuple, key: tuple) -> Any:
    """A ``Table`` holding ``rows``; each of ``columns`` holds ``Column`` arguments."""
    from repro.store.schema import Column, Schema
    from repro.store.table import Table

    names = [column[0] for column in columns]
    table = Table(name, Schema(tuple(Column(*column) for column in columns), key=key))
    table.insert_many(dict(zip(names, row)) for row in rows)
    return table
