"""Concrete :class:`~repro.io.base.DataSource` implementations.

One class per historical ingestion style:

* :class:`MemorySource` — in-memory triples (lists, generators,
  :class:`~repro.data.raw.RawDatabase`), optionally with ground truth;
* :class:`TripleFileSource` — delimited triple files written by
  :func:`~repro.data.loaders.save_triples_csv` (TSV by default, CSV by
  extension), optionally paired with a label file;
* :class:`JsonDatasetSource` — full dataset dumps written by
  :func:`~repro.data.loaders.save_dataset_json`;
* :class:`DatasetSource` / :class:`SyntheticSource` — an existing
  :class:`~repro.data.dataset.TruthDataset`, or one generated on demand by a
  simulator factory (the :mod:`repro.synth` generators in the catalog).

The deprecated ``TableSource`` (rows of a relational table) still resolves
here, with a :class:`DeprecationWarning`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro._deprecation import TABLE_SOURCE, deprecated_getattr
from repro.data.claim_builder import bulk_build_claim_matrix
from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.data.loaders import (
    iter_triples_csv,
    load_dataset_json,
    load_labels_csv,
    read_triple_columns,
)
from repro.data.raw import RawDatabase
from repro.exceptions import ConfigurationError
from repro.io.base import DataSource, SourceSchema
from repro.types import AttributeValue, EntityKey, Triple

__all__ = [
    "MemorySource",
    "TripleFileSource",
    "JsonDatasetSource",
    "DatasetSource",
    "SyntheticSource",
]


__getattr__ = deprecated_getattr(__name__, TABLE_SOURCE)


def _as_triple(item: Triple | tuple) -> Triple:
    return item if isinstance(item, Triple) else Triple(item[0], item[1], item[2])


class MemorySource(DataSource):
    """Triples already in memory: a list, any iterable, or a ``RawDatabase``.

    Parameters
    ----------
    triples:
        The assertions, materialised once at construction, so generators
        are safe.
    truth:
        Optional ``(entity, attribute) -> bool`` ground truth used by
        :meth:`to_dataset`.
    name:
        Source name reported by :meth:`schema`.
    """

    def __init__(
        self,
        triples: Iterable[Triple | tuple] | RawDatabase,
        truth: Mapping[tuple[EntityKey, AttributeValue], bool] | None = None,
        name: str = "memory",
    ):
        self._triples = [_as_triple(t) for t in triples]
        self._truth = dict(truth) if truth is not None else None
        self._name = name

    def schema(self) -> SourceSchema:
        return SourceSchema(
            name=self._name,
            kind="memory",
            has_labels=self._truth is not None,
            num_triples=len(self._triples),
        )

    def iter_triples(self) -> Iterator[Triple]:
        return iter(self._triples)

    def labels(self) -> dict[tuple[EntityKey, AttributeValue], bool] | None:
        return dict(self._truth) if self._truth is not None else None


class TripleFileSource(DataSource):
    """A delimited triple file with an ``entity/attribute/source`` header.

    The delimiter defaults to tab and is inferred as ``","`` for ``.csv``
    paths.  Iteration **streams**: :meth:`iter_triples` (and hence
    :meth:`iter_batches`) reads and validates the file one row at a time via
    :func:`~repro.data.loaders.iter_triples_csv`, so peak memory is one
    batch regardless of file size — the file is never materialised into a
    :class:`~repro.data.raw.RawDatabase` by the source itself.
    :meth:`to_claim_matrix`, which needs every triple anyway, instead reads
    the whole file as three columns in one pass
    (:func:`~repro.data.loaders.read_triple_columns`) and hands them to the
    vectorized builder without creating a per-row object.  Both reads
    validate identically and pass duplicate rows through; claim-matrix
    construction deduplicates, so fits see identical claims either way.

    Parameters
    ----------
    path:
        The triple file.
    delimiter:
        Field delimiter; inferred from the extension when omitted.
    labels_path:
        Optional companion label file (``entity/attribute/truth``).
    name:
        Source name; defaults to the file stem.
    """

    streams = True

    def __init__(
        self,
        path: str | Path,
        delimiter: str | None = None,
        labels_path: str | Path | None = None,
        name: str | None = None,
    ):
        self.path = Path(path)
        self.delimiter = delimiter if delimiter is not None else (
            "," if self.path.suffix.lower() == ".csv" else "\t"
        )
        self.labels_path = Path(labels_path) if labels_path is not None else None
        self._name = name if name is not None else self.path.stem
        self._num_triples: int | None = None

    def _read_rows(self) -> Iterator[Triple]:
        """One validated pass over the file (the seam tests count rows at)."""
        return iter_triples_csv(self.path, delimiter=self.delimiter)

    def schema(self) -> SourceSchema:
        return SourceSchema(
            name=self._name,
            kind="file",
            has_labels=self.labels_path is not None,
            num_triples=self._num_triples,
            metadata={"path": str(self.path), "delimiter": self.delimiter},
        )

    def iter_triples(self) -> Iterator[Triple]:
        count = 0
        for triple in self._read_rows():
            count += 1
            yield triple
        # Only a complete pass knows the size; cache it for schema().
        self._num_triples = count

    def to_claim_matrix(self) -> ClaimMatrix:
        columns = read_triple_columns(self.path, delimiter=self.delimiter)
        self._num_triples = len(columns)
        return bulk_build_claim_matrix(columns)

    def labels(self) -> dict[tuple[EntityKey, AttributeValue], bool] | None:
        if self.labels_path is None:
            return None
        # The labels file's delimiter follows its own extension (a .csv label
        # file may accompany a .tsv triple file).
        delimiter = "," if self.labels_path.suffix.lower() == ".csv" else "\t"
        return load_labels_csv(self.labels_path, delimiter=delimiter)


class DatasetSource(DataSource):
    """An existing :class:`~repro.data.dataset.TruthDataset` as a source.

    The canonical triples are the dataset's *positive* claims (what a crawl
    of the underlying sources would contain); negative claims are always
    re-derived by the standard claim-generation rules at fit time.
    :meth:`to_dataset` returns the native dataset unchanged, preserving its
    original claim structure and fact-level labels.
    """

    kind = "dataset"

    def __init__(self, dataset: TruthDataset | None = None, name: str | None = None):
        self._dataset = dataset
        self._name = name

    def dataset(self) -> TruthDataset:
        """The wrapped dataset (generated on demand by subclasses)."""
        if self._dataset is None:  # pragma: no cover - defensive
            raise ConfigurationError("DatasetSource has no dataset")
        return self._dataset

    def schema(self) -> SourceSchema:
        dataset = self.dataset()
        return SourceSchema(
            name=self._name if self._name is not None else dataset.name,
            kind=self.kind,
            has_labels=bool(dataset.labels),
            num_triples=dataset.claims.num_positive_claims,
            metadata=dataset.summary(),
        )

    def iter_triples(self) -> Iterator[Triple]:
        matrix = self.dataset().claims
        names = matrix.source_names
        for fact_id, source_id, obs in zip(
            matrix.claim_fact, matrix.claim_source, matrix.claim_obs
        ):
            if obs:
                fact = matrix.fact(int(fact_id))
                yield Triple(fact.entity, fact.attribute, names[int(source_id)])

    def labels(self) -> dict[tuple[EntityKey, AttributeValue], bool] | None:
        dataset = self.dataset()
        if not dataset.labels:
            return None
        facts = dataset.claims.facts
        return {
            (facts[fact_id].entity, facts[fact_id].attribute): bool(value)
            for fact_id, value in dataset.labels.items()
        }

    def to_dataset(self, name: str | None = None) -> TruthDataset:
        return self.dataset()


class SyntheticSource(DatasetSource):
    """A simulator-backed source: generates its dataset once, on demand.

    Parameters
    ----------
    factory:
        Zero-argument callable returning the simulated
        :class:`~repro.data.dataset.TruthDataset` (already parameterised,
        including its seed — generation is deterministic and cached).
    name:
        Source name.
    metadata:
        Extra metadata surfaced by :meth:`schema` before generation.
    """

    kind = "synthetic"

    def __init__(
        self,
        factory: Callable[[], TruthDataset],
        name: str,
        metadata: Mapping[str, Any] | None = None,
    ):
        super().__init__(dataset=None, name=name)
        self._factory = factory
        self._metadata = dict(metadata or {})

    def dataset(self) -> TruthDataset:
        if self._dataset is None:
            self._dataset = self._factory()
        return self._dataset

    def schema(self) -> SourceSchema:
        if self._dataset is None:
            # Do not force a (potentially expensive) simulation just to
            # describe the source.
            return SourceSchema(
                name=self._name or "synthetic",
                kind=self.kind,
                has_labels=True,
                num_triples=None,
                metadata=dict(self._metadata),
            )
        return super().schema()


class JsonDatasetSource(DatasetSource):
    """A dataset dump written by :func:`~repro.data.loaders.save_dataset_json`.

    Loaded lazily on first use and cached; :meth:`to_dataset` returns the
    stored dataset with its original claim matrix and labels.
    """

    kind = "json"

    def __init__(self, path: str | Path, name: str | None = None):
        self.path = Path(path)
        super().__init__(dataset=None, name=name)

    def dataset(self) -> TruthDataset:
        if self._dataset is None:
            self._dataset = load_dataset_json(self.path)
            if self._name is None:
                self._name = self._dataset.name
        return self._dataset

    def schema(self) -> SourceSchema:
        if self._dataset is None:
            return SourceSchema(
                name=self._name if self._name is not None else self.path.stem,
                kind=self.kind,
                has_labels=True,
                num_triples=None,
                metadata={"path": str(self.path)},
            )
        schema = super().schema()
        return SourceSchema(
            name=schema.name,
            kind=self.kind,
            has_labels=schema.has_labels,
            num_triples=schema.num_triples,
            metadata={**schema.metadata, "path": str(self.path)},
        )
