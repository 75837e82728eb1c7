"""The :class:`DataSource` protocol: the single way data enters the library.

Historically the library had five disjoint ingestion styles — CSV/JSON
loaders, :class:`~repro.data.raw.RawDatabase`, relational table rows (a
deprecated path), the synthetic simulators and
:class:`~repro.streaming.stream.ClaimStream` — and every new workload or
backend had to hand-wire triples into ``build_dataset`` itself.

:class:`DataSource` unifies them behind one chunk-oriented contract:

* :meth:`DataSource.schema` — cheap metadata (name, kind, labels, sizes);
* :meth:`DataSource.iter_triples` — the canonical stream of
  ``(entity, attribute, source)`` assertions;
* :meth:`DataSource.iter_batches` — the same triples grouped into
  :class:`~repro.streaming.stream.ClaimBatch` chunks, either a fixed number
  of triples at a time or entity-grouped (how crawls and feeds deliver
  data), ready for :meth:`~repro.engine.TruthEngine.partial_fit`;
* :meth:`DataSource.to_dataset` / :meth:`DataSource.to_claim_matrix` — batch
  materialisation through :func:`~repro.data.claim_builder.bulk_build_claim_matrix`,
  the one claim builder.

Concrete sources live in :mod:`repro.io.sources`; named, parameterised
sources are registered in the :class:`~repro.io.catalog.DatasetCatalog`.
Anything triple-shaped is coerced with :func:`~repro.io.catalog.as_source`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.data.claim_builder import build_dataset, bulk_build_claim_matrix
from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.data.raw import RawDatabase
from repro.exceptions import StreamError
from repro.obs import get_tracer
from repro.streaming.stream import ClaimBatch
from repro.types import AttributeValue, EntityKey, Triple

__all__ = ["SourceSchema", "DataSource"]


@dataclass(frozen=True)
class SourceSchema:
    """Cheap, side-effect-free description of a :class:`DataSource`.

    Attributes
    ----------
    name:
        Human-readable source name (also the default dataset name).
    kind:
        Source family: ``"memory"``, ``"file"``, ``"json"``, ``"table"``,
        ``"dataset"`` or ``"synthetic"``.
    fields:
        The triple fields every source yields, in order.
    has_labels:
        Whether :meth:`DataSource.labels` returns ground truth.
    num_triples:
        Number of triples when known without expensive work, else ``None``
        (e.g. a file that has not been read yet).
    metadata:
        Free-form extras (paths, config parameters, column mappings).
    """

    name: str
    kind: str
    fields: tuple[str, ...] = ("entity", "attribute", "source")
    has_labels: bool = False
    num_triples: int | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)


class DataSource(abc.ABC):
    """One logical collection of raw assertion triples.

    Subclasses implement :meth:`schema` and :meth:`iter_triples`; everything
    else (batching, claim-matrix and dataset materialisation) is derived.
    Sources are re-iterable: :meth:`iter_triples` may be called any number of
    times and must yield the same triples in the same order.

    Two class attributes advertise a source's memory behaviour so callers
    (the engine, the shard planner, the CLI ``datasets`` table) can route
    out-of-core corpora without materialising them:

    * :attr:`streams` — iterating the source holds only a bounded chunk in
      memory at a time (file and store sources), as opposed to sources that
      materialise their triples up front (memory, synthetic, json).
    * :attr:`supports_entity_ranges` — :meth:`iter_entities` and
      :meth:`entity_triples` are *indexed* operations: entity keys stream
      without touching triples, and one entity's triples resolve through a
      range read.  :meth:`~repro.parallel.ShardPlanner.plan_keys` requires
      this to partition a corpus by key ranges alone.
    """

    #: Whether iteration is chunked/bounded-memory rather than materialised.
    streams: bool = False
    #: Whether :meth:`iter_entities`/:meth:`entity_triples` are indexed scans.
    supports_entity_ranges: bool = False

    # -- abstract surface -----------------------------------------------------------
    @abc.abstractmethod
    def schema(self) -> SourceSchema:
        """Describe the source without forcing an expensive read."""

    @abc.abstractmethod
    def iter_triples(self) -> Iterator[Triple]:
        """Yield every raw triple of the source, in canonical order."""

    def labels(self) -> dict[tuple[EntityKey, AttributeValue], bool] | None:
        """Ground-truth ``(entity, attribute) -> bool`` labels, when available."""
        return None

    def iter_entities(self) -> Iterator[EntityKey]:
        """Yield the source's distinct entities in first-seen order.

        The default derivation scans :meth:`iter_triples` with a seen-set
        (entity keys only — triples are not retained).  Indexed sources
        (``supports_entity_ranges``) override this with a pure index scan.
        """
        seen: set[EntityKey] = set()
        for triple in self.iter_triples():
            if triple.entity not in seen:
                seen.add(triple.entity)
                yield triple.entity

    def entity_triples(self, entities: Sequence[EntityKey]) -> list[Triple]:
        """All triples of ``entities``, grouped per entity in the given order.

        Within each entity, triples keep source order.  The default scans
        :meth:`iter_triples` once and keeps only the requested entities'
        triples; indexed sources override this with range reads.
        """
        wanted = {entity: index for index, entity in enumerate(entities)}
        grouped: list[list[Triple]] = [[] for _ in wanted]
        for triple in self.iter_triples():
            slot = wanted.get(triple.entity)
            if slot is not None:
                grouped[slot].append(triple)
        return [triple for bucket in grouped for triple in bucket]

    # -- chunked streaming ----------------------------------------------------------
    def iter_batches(
        self,
        batch_size: int = 1000,
        *,
        by_entity: bool = False,
        shuffle: bool = False,
        seed: int | None = None,
    ) -> Iterator[ClaimBatch]:
        """Yield the source's triples as :class:`ClaimBatch` chunks.

        Ordering guarantee
        ------------------
        Batch order is **stable across interpreter runs, Python versions and
        hash seeds**.  Without ``shuffle``, entity-grouped batches list
        entities in first-seen triple order (plain batches keep triple
        order).  With ``shuffle`` and a ``seed``, the entity order is derived
        from the seeded BLAKE2b digest of
        :func:`~repro.io.partition.entity_partition_key` — never from
        Python's process-randomised ``hash()`` — so the same seed reproduces
        the same arrival order everywhere.  This is what makes sharded runs
        (:mod:`repro.parallel`) and replayed streams deterministic.

        Parameters
        ----------
        batch_size:
            Triples per batch — or entities per batch when ``by_entity``.
        by_entity:
            Group all triples of an entity into the same batch (how crawls
            and feeds deliver data, and what
            :class:`~repro.streaming.stream.ClaimStream` simulates).  This
            mode materialises the triples once to group them.
        shuffle:
            Randomise arrival order (of entities when ``by_entity``, of
            triples otherwise).
        seed:
            Seed of the shuffle.  ``None`` draws a fresh random order per
            call; any integer pins the order as documented above.
        """
        if batch_size <= 0:
            raise StreamError("batch_size must be positive")
        tracer = get_tracer()
        if not tracer.enabled:
            yield from self._batches(batch_size, by_entity, shuffle, seed)
            return
        start = tracer.now()
        batches = 0
        triples = 0
        try:
            for batch in self._batches(batch_size, by_entity, shuffle, seed):
                batches += 1
                triples += len(batch)
                yield batch
        finally:
            # Recorded even on partial consumption, so an abandoned stream
            # still shows how far it got.
            tracer.record(
                "source.iter_batches",
                start,
                end=tracer.now(),
                source=self.schema().name,
                batch_size=batch_size,
                by_entity=by_entity,
                batches=batches,
                triples=triples,
            )

    def _batches(
        self, batch_size: int, by_entity: bool, shuffle: bool, seed: int | None
    ) -> Iterator[ClaimBatch]:
        """The :meth:`iter_batches` body (telemetry-free, for wrapping)."""
        if by_entity:
            yield from self._entity_batches(batch_size, shuffle, seed)
            return
        if shuffle:
            triples = list(self.iter_triples())
            rng = np.random.default_rng(seed)
            order = rng.permutation(len(triples))
            triples = [triples[i] for i in order]
            iterator: Iterator[Triple] = iter(triples)
        else:
            iterator = self.iter_triples()
        index = 0
        chunk: list[Triple] = []
        for triple in iterator:
            chunk.append(triple)
            if len(chunk) >= batch_size:
                yield ClaimBatch(index=index, triples=tuple(chunk))
                index += 1
                chunk = []
        if chunk:
            yield ClaimBatch(index=index, triples=tuple(chunk))

    def _entity_batches(
        self, batch_entities: int, shuffle: bool, seed: int | None
    ) -> Iterator[ClaimBatch]:
        """Entity-grouped batching (the historical ``ClaimStream`` grouping).

        Entities appear in first-seen order; a *seeded* shuffle reorders
        them by their seeded :func:`~repro.io.partition.entity_partition_key`
        digest (ties broken by first-seen position), which is stable across
        Python versions and hash seeds.  An unseeded shuffle draws a fresh
        random order each call.
        """
        by_entity: dict[EntityKey, list[Triple]] = {}
        for triple in self.iter_triples():
            by_entity.setdefault(triple.entity, []).append(triple)
        entities = list(by_entity)
        if shuffle:
            if seed is not None:
                from repro.io.partition import seeded_entity_order

                entities = seeded_entity_order(entities, seed)
            else:
                rng = np.random.default_rng()
                order = rng.permutation(len(entities))
                entities = [entities[i] for i in order]
        batch_index = 0
        for start in range(0, len(entities), batch_entities):
            chunk = entities[start : start + batch_entities]
            batch_triples: list[Triple] = []
            for entity in chunk:
                batch_triples.extend(by_entity[entity])
            yield ClaimBatch(index=batch_index, triples=tuple(batch_triples))
            batch_index += 1

    # -- batch materialisation ------------------------------------------------------
    def to_raw(self, strict: bool = False) -> RawDatabase:
        """Materialise the source as a :class:`~repro.data.raw.RawDatabase`."""
        return RawDatabase(self.iter_triples(), strict=strict)

    def to_claim_matrix(self) -> ClaimMatrix:
        """Run the claim-generation rules over the source (vectorized path)."""
        return bulk_build_claim_matrix(self.iter_triples())

    def to_dataset(self, name: str | None = None) -> TruthDataset:
        """Materialise a labelled :class:`~repro.data.dataset.TruthDataset`.

        Uses the source's :meth:`labels` (when present) to label the facts
        derived from its triples.  Sources that natively hold a richer
        dataset (JSON dumps, the simulators) override this to return it.
        """
        return build_dataset(
            list(self.iter_triples()),
            truth=self.labels(),
            name=name if name is not None else self.schema().name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.schema()
        return f"{type(self).__name__}(name={info.name!r}, kind={info.kind!r})"
