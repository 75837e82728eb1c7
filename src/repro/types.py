"""Shared type aliases and small value objects used across the library.

The truth-finding data model (paper Section 2) speaks about *entities*,
*attribute values*, *sources*, *facts* and *claims*.  This module pins down
the Python representations used throughout :mod:`repro` so that every
subpackage agrees on what those objects look like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.exceptions import DataModelError

__all__ = [
    "EntityKey",
    "AttributeValue",
    "SourceName",
    "FactId",
    "SourceId",
    "Observation",
    "TruthLabel",
    "Triple",
    "TripleColumns",
]

# An entity key identifies the real-world object a fact is about, e.g. a book
# ISBN or a movie title.  Any hashable string-like key works.
EntityKey = str

# A single value of the (multi-valued) attribute type under integration,
# e.g. one author name or one director name.
AttributeValue = Union[str, float, int]

# Human readable name of a data source, e.g. "imdb" or "netflix".
SourceName = str

# Integer primary keys assigned by the data model when building fact/claim
# tables.  Fact ids are dense indices in ``range(num_facts)`` and source ids
# are dense indices in ``range(num_sources)``.
FactId = int
SourceId = int

# A claim observation: True means the source asserted the fact (positive
# claim), False means the source asserted the entity but not this fact
# (negative claim).
Observation = bool

# A truth label for a fact.
TruthLabel = bool


@dataclass(frozen=True, slots=True)
class Triple:
    """One row of the raw input database: ``(entity, attribute, source)``.

    This mirrors Definition 1 of the paper: each row states that ``source``
    asserted that ``entity`` has attribute value ``attribute``.

    Attributes
    ----------
    entity:
        Key identifying the entity the assertion is about.
    attribute:
        The asserted attribute value (one element of the multi-valued
        attribute type).
    source:
        Name of the data source making the assertion.
    """

    entity: EntityKey
    attribute: AttributeValue
    source: SourceName

    def as_tuple(self) -> tuple[EntityKey, AttributeValue, SourceName]:
        """Return the triple as a plain ``(entity, attribute, source)`` tuple."""
        return (self.entity, self.attribute, self.source)


@dataclass(frozen=True, slots=True)
class TripleColumns:
    """Raw triples stored column-wise: ``entities[i], attributes[i], sources[i]``.

    The same rows as a sequence of :class:`Triple` (duplicates included), in
    the layout a columnar reader produces and the vectorized claim builder
    encodes — no per-row object.  The three columns must have equal length.
    """

    entities: Sequence[EntityKey]
    attributes: Sequence[AttributeValue]
    sources: Sequence[SourceName]

    def __post_init__(self) -> None:
        if not len(self.entities) == len(self.attributes) == len(self.sources):
            raise DataModelError(
                "triple columns differ in length: "
                f"{len(self.entities)}, {len(self.attributes)}, {len(self.sources)}"
            )

    def __len__(self) -> int:
        return len(self.entities)
