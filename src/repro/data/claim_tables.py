"""Deprecated: ``ClaimTableBuilder``, the fact and claim relations as tables.

It wraps :func:`~repro.data.claim_builder.bulk_build_claim_matrix`, the one
claim builder, and is served with a :class:`DeprecationWarning` by ``repro``,
:mod:`repro.data` and :mod:`repro.data.claim_builder` until its window
closes.  Use ``build_claim_matrix`` for the matrix and
``run_integration(keep_workspace=True)`` for the relations as columns.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro._deprecation import relational_table
from repro.data.claim_builder import bulk_build_claim_matrix
from repro.data.dataset import ClaimMatrix
from repro.data.raw import RawDatabase
from repro.types import AttributeValue, EntityKey, FactId, Triple, TripleColumns

__all__ = ["ClaimTableBuilder"]


class ClaimTableBuilder:
    """The claim matrix of a :class:`~repro.data.raw.RawDatabase`, plus table views."""

    def __init__(self, raw: RawDatabase):
        raw.require_non_empty()
        self.raw = raw
        self._matrix: ClaimMatrix | None = None

    def build(self) -> ClaimMatrix:
        """The claim matrix of :attr:`raw` (built once)."""
        if self._matrix is None:
            self._matrix = bulk_build_claim_matrix(self.raw)
        return self._matrix

    def fact_table(self) -> Any:
        """The fact table (Definition 2 / paper Table 2) as a relational ``Table``."""
        rows = ((f.fact_id, f.entity, f.attribute) for f in self.build().facts)
        columns = (("fact_id", int), ("entity",), ("attribute",))
        return relational_table("facts", rows, columns, key=("fact_id",))

    def claim_table(self) -> Any:
        """The claim table (Definition 3 / paper Table 3) as a relational ``Table``."""
        m = self.build()
        sources = (m.source_names[s] for s in m.claim_source.tolist())
        rows = zip(m.claim_fact.tolist(), sources, map(bool, m.claim_obs.tolist()))
        columns = (("fact_id", int), ("source",), ("observation", bool))
        return relational_table("claims", rows, columns, key=("fact_id", "source"))

    @property
    def fact_ids(self) -> Mapping[tuple[EntityKey, AttributeValue], FactId]:
        """Mapping of ``(entity, attribute)`` to fact id."""
        return {(f.entity, f.attribute): f.fact_id for f in self.build().facts}

    @classmethod
    def bulk(
        cls, triples: Iterable[Triple | tuple] | RawDatabase | TripleColumns, strict: bool = False
    ) -> ClaimMatrix:
        """Alias of :func:`~repro.data.claim_builder.bulk_build_claim_matrix`."""
        return bulk_build_claim_matrix(triples, strict=strict)
