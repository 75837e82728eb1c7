"""The storage engine: the out-of-core claim store.

:class:`ClaimStore` is a disk-backed (SQLite by default, pluggable via
:class:`StorageBackend`) append-only claim log with covering entity/source
indexes and windowed retention, so corpora that do not fit in RAM stream
through fit, shard, and serve via :class:`repro.io.store_source.StoreSource`.
It fails loudly: duplicate keys, unknown columns and version mismatches
raise library exceptions rather than silently corrupting state.

The seed's in-memory relational engine (:class:`Column`, :class:`Schema`,
:class:`Table`, :class:`HashIndex`, :class:`Database` and the query
operators ``select``, ``project``, ``equi_join``, ``group_by``,
``aggregate``, ``order_by``, ``distinct``) is deprecated: no data path uses
it any more.  Its names still resolve here, with a
:class:`DeprecationWarning`, until the deprecation window closes; the
modules behind them load only on first use, so importing
:class:`ClaimStore` loads none of them.  The paper's raw, fact, claim and
truth relations are the columns of a
:class:`~repro.data.dataset.ClaimMatrix`, and
``run_integration(keep_workspace=True)`` returns them as read-only views.
"""

from repro._deprecation import deprecated_getattr
from repro.store.backend import SQLiteBackend, StorageBackend
from repro.store.claims import SCHEMA_VERSION, ClaimStore

__all__ = [
    "StorageBackend",
    "SQLiteBackend",
    "ClaimStore",
    "SCHEMA_VERSION",
]

_RELATIONAL = "use ClaimMatrix columns, or the relations of run_integration(keep_workspace=True)"
_MODULES = {
    "schema": ("Column", "Schema"),
    "table": ("Table",),
    "index": ("HashIndex",),
    "database": ("Database",),
    "query": ("select", "project", "equi_join", "group_by", "aggregate", "order_by", "distinct"),
}
__getattr__ = deprecated_getattr(
    __name__,
    {
        name: (f"repro.store.{module}", _RELATIONAL)
        for module, names in _MODULES.items()
        for name in names
    },
)
