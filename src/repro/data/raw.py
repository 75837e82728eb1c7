"""The raw input database of ``(entity, attribute, source)`` triples.

:class:`RawDatabase` corresponds to Definition 1 of the paper: a set of unique
rows, each stating that a *source* asserted an *attribute value* for an
*entity*.  It keeps the distinct triples in an insertion-ordered ``dict``
plus the three coverage lookups callers ask for (entities per source,
sources per entity, attributes per entity).  Claim construction does not
need it: :func:`~repro.data.claim_builder.build_claim_matrix` accepts a raw
database like any other triple iterable.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from typing import Any, Iterable, Iterator

from repro._deprecation import relational_table
from repro.exceptions import DataModelError, DuplicateRowError, EmptyDatasetError
from repro.types import AttributeValue, EntityKey, SourceName, Triple

__all__ = ["RawDatabase"]

_FIELDS = ("entity", "attribute", "source")


def none_field_error(triple: tuple) -> DataModelError:
    """The error every ingest path raises for a triple with a ``None`` field."""
    field = next(name for name, value in zip(_FIELDS, triple) if value is None)
    return DataModelError(f"{field} is None in triple {triple!r}")


class RawDatabase:
    """A validated, de-duplicated collection of raw assertion triples.

    Parameters
    ----------
    triples:
        Optional initial triples.  Each may be a :class:`~repro.types.Triple`
        or a plain ``(entity, attribute, source)`` tuple.
    strict:
        When true (the default) inserting an exact duplicate triple raises
        :class:`~repro.exceptions.DuplicateRowError`; when false duplicates
        are silently ignored (useful when ingesting noisy crawls).
    """

    def __init__(self, triples: Iterable[Triple | tuple] = (), strict: bool = True):
        self.strict = strict
        self._triples: dict[tuple[EntityKey, AttributeValue, SourceName], None] = {}
        self._entity_sources: dict[EntityKey, set[SourceName]] = defaultdict(set)
        self._entity_attributes: dict[EntityKey, dict[AttributeValue, None]] = defaultdict(dict)
        self._source_entities: dict[SourceName, set[EntityKey]] = defaultdict(set)
        for triple in triples:
            self.add(triple)

    # -- construction ------------------------------------------------------------
    def add(self, triple: Triple | tuple) -> bool:
        """Add one triple; return ``True`` if it was new.

        Raises
        ------
        DataModelError
            If a field of the triple is ``None``.
        DuplicateRowError
            If the triple already exists and ``strict`` is true.
        """
        if isinstance(triple, Triple):
            entity, attribute, source = triple.as_tuple()
        else:
            entity, attribute, source = triple
        key = (entity, attribute, source)
        if entity is None or attribute is None or source is None:
            raise none_field_error(key)
        if key in self._triples:
            if self.strict:
                raise DuplicateRowError(f"duplicate raw triple {key!r}")
            return False
        self._triples[key] = None
        self._entity_sources[entity].add(source)
        self._source_entities[source].add(entity)
        self._entity_attributes[entity][attribute] = None
        return True

    def extend(self, triples: Iterable[Triple | tuple]) -> int:
        """Add many triples; return the number of new rows."""
        return sum(1 for triple in triples if self.add(triple))

    # -- introspection -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        for key in self._triples:
            yield Triple(*key)

    def __contains__(self, triple: object) -> bool:
        if isinstance(triple, Triple):
            return triple.as_tuple() in self._triples
        if isinstance(triple, tuple) and len(triple) == 3:
            return tuple(triple) in self._triples
        return False

    @property
    def table(self) -> Any:
        """Deprecated: the triples as a relational ``Table``, built on each access."""
        message = "RawDatabase.table is deprecated and will be removed; iterate the RawDatabase"
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        columns = tuple((field,) for field in _FIELDS)
        return relational_table("raw_database", self._triples, columns, key=_FIELDS)

    @property
    def entities(self) -> list[EntityKey]:
        """Distinct entities, in first-seen order."""
        return list(self._entity_attributes)

    @property
    def sources(self) -> list[SourceName]:
        """Distinct sources, in first-seen order."""
        return list(self._source_entities)

    @property
    def num_entities(self) -> int:
        """Number of distinct entities."""
        return len(self._entity_attributes)

    @property
    def num_sources(self) -> int:
        """Number of distinct sources."""
        return len(self._source_entities)

    def attributes_of(self, entity: EntityKey) -> list[AttributeValue]:
        """Distinct attribute values asserted for ``entity`` (first-seen order)."""
        return list(self._entity_attributes.get(entity, ()))

    def sources_of(self, entity: EntityKey) -> set[SourceName]:
        """Sources that asserted at least one attribute for ``entity``."""
        return set(self._entity_sources.get(entity, set()))

    def entities_of(self, source: SourceName) -> set[EntityKey]:
        """Entities that ``source`` asserted at least one attribute for."""
        return set(self._source_entities.get(source, set()))

    def triples_of(self, entity: EntityKey) -> list[Triple]:
        """All triples about ``entity``."""
        return [t for t in self if t.entity == entity]

    def restrict_to_entities(self, entities: Iterable[EntityKey]) -> "RawDatabase":
        """Return a new raw database containing only triples about ``entities``."""
        wanted = set(entities)
        return RawDatabase(
            (t for t in self if t.entity in wanted),
            strict=self.strict,
        )

    def require_non_empty(self) -> None:
        """Raise :class:`~repro.exceptions.EmptyDatasetError` if empty."""
        if len(self) == 0:
            raise EmptyDatasetError("the raw database contains no triples")

    def summary(self) -> dict[str, int]:
        """Basic size statistics of the raw database."""
        return {
            "triples": len(self),
            "entities": self.num_entities,
            "sources": self.num_sources,
        }
