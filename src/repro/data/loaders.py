"""Serialisation of raw triples, datasets and ground-truth labels.

Formats are deliberately plain (CSV/TSV and JSON) so that datasets produced by
the simulators in :mod:`repro.synth` can be written to disk once and reloaded
by examples, tests and benchmarks without regeneration.

The delimited writers and readers share one explicit csv dialect
(minimal quoting with ``"`` as the quote character), so a save → load cycle
is lossless even when values contain the delimiter, quotes or newlines — a
property-based round-trip test pins this down.  Note that values are read
back as strings: numeric attribute values survive with their ``str()``
rendering.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.data.raw import RawDatabase
from repro.data.records import Fact
from repro.exceptions import DataModelError
from repro.types import Triple, TripleColumns

__all__ = [
    "iter_triples_csv",
    "read_triple_columns",
    "load_triples_csv",
    "save_triples_csv",
    "load_labels_csv",
    "save_labels_csv",
    "load_dataset_json",
    "save_dataset_json",
]


# ---------------------------------------------------------------------------
# Shared delimited dialect
# ---------------------------------------------------------------------------
#: csv options shared by every delimited writer *and* reader, so values
#: containing the delimiter, quotes or newlines survive a save → load cycle.
_CSV_DIALECT = {"quotechar": '"', "quoting": csv.QUOTE_MINIMAL, "doublequote": True}


def _check_delimiter(delimiter: str) -> str:
    if len(delimiter) != 1:
        raise DataModelError(f"delimiter must be a single character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise DataModelError(
            f"delimiter {delimiter!r} collides with the csv quote/newline characters"
        )
    return delimiter


# ---------------------------------------------------------------------------
# Raw triples (entity, attribute, source)
# ---------------------------------------------------------------------------
def save_triples_csv(triples: Iterable[Triple] | RawDatabase, path: str | Path, delimiter: str = "\t") -> int:
    """Write triples to a delimited text file with a header row; return row count.

    Values containing the delimiter, quotes or newlines are quoted, so
    :func:`load_triples_csv` (with the same delimiter) reads them back
    verbatim.  Non-string values are written as their ``str()`` rendering.
    """
    path = Path(path)
    _check_delimiter(delimiter)
    count = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, **_CSV_DIALECT)
        writer.writerow(["entity", "attribute", "source"])
        for triple in triples:
            writer.writerow([triple.entity, triple.attribute, triple.source])
            count += 1
    return count


_TRIPLE_HEADER = ["entity", "attribute", "source"]


@contextmanager
def _validated_reader(path: Path, delimiter: str, kind: str, header: list[str]) -> Iterator:
    """Open ``path`` as a csv reader positioned after a validated header row.

    The one place the delimited readers check their header, so the triple
    and label readers raise the same messages for empty and mis-headed files.
    """
    _check_delimiter(delimiter)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter, **_CSV_DIALECT)
        found = next(reader, None)
        if found is None:
            raise DataModelError(f"{kind} file {path} is empty")
        if [h.strip().lower() for h in found] != header:
            raise DataModelError(f"{kind} file {path} must have header {header}, got {found}")
        yield reader


def _arity_error(path: Path, reader: Any, row: list[str]) -> DataModelError:
    """The error for a non-blank row without exactly three fields.

    ``reader.line_num`` is the physical line the row ended on, so quoted
    fields spanning several lines do not shift the reported position.
    """
    return DataModelError(f"{path}:{reader.line_num}: expected 3 columns, got {len(row)}")


def iter_triples_csv(path: str | Path, delimiter: str = "\t") -> Iterator[Triple]:
    """Stream a delimited triple file (with header) one row at a time.

    This is the out-of-core read path :class:`~repro.io.sources.TripleFileSource`
    iterates with: the file is validated (header, per-row arity) exactly like
    :func:`read_triple_columns`, but rows are yielded as they are read — peak
    memory is one row, regardless of file size.  Unlike the eager loader,
    duplicate rows are *not* collapsed here; claim-matrix construction
    deduplicates downstream.
    """
    path = Path(path)
    with _validated_reader(path, delimiter, "triple", _TRIPLE_HEADER) as reader:
        for row in reader:
            if len(row) == 3:
                yield Triple(row[0], row[1], row[2])
            elif row:
                raise _arity_error(path, reader, row)


def read_triple_columns(path: str | Path, delimiter: str = "\t") -> TripleColumns:
    """Read a whole delimited triple file as three columns in one pass.

    The batch counterpart of :func:`iter_triples_csv`: same dialect, same
    validation and error messages, same rows (blank lines skipped,
    duplicates kept), but no per-row :class:`~repro.types.Triple` — the
    fields go straight into entity / attribute / source lists, the input
    :func:`~repro.data.claim_builder.bulk_build_claim_matrix` encodes
    without a further pass over the rows.
    """
    path = Path(path)
    entities: list[str] = []
    attributes: list[str] = []
    sources: list[str] = []
    add_entity, add_attribute, add_source = entities.append, attributes.append, sources.append
    with _validated_reader(path, delimiter, "triple", _TRIPLE_HEADER) as reader:
        for row in reader:
            if len(row) == 3:
                entity, attribute, source = row
                add_entity(entity)
                add_attribute(attribute)
                add_source(source)
            elif row:
                raise _arity_error(path, reader, row)
    return TripleColumns(entities, attributes, sources)


def load_triples_csv(path: str | Path, delimiter: str = "\t", strict: bool = False) -> RawDatabase:
    """Read a delimited triple file (with header) into a :class:`RawDatabase`."""
    raw = RawDatabase(strict=strict)
    for triple in iter_triples_csv(path, delimiter=delimiter):
        raw.add(triple)
    return raw


# ---------------------------------------------------------------------------
# Ground-truth labels
# ---------------------------------------------------------------------------
def save_labels_csv(
    labels: Mapping[tuple[str, str], bool],
    path: str | Path,
    delimiter: str = "\t",
) -> int:
    """Write ``(entity, attribute) -> truth`` labels to a delimited file."""
    path = Path(path)
    _check_delimiter(delimiter)
    count = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, **_CSV_DIALECT)
        writer.writerow(["entity", "attribute", "truth"])
        for (entity, attribute), value in labels.items():
            writer.writerow([entity, attribute, int(bool(value))])
            count += 1
    return count


#: The only truth values a label file may hold.
_LABEL_VALUES = {"0": False, "1": True}


def load_labels_csv(path: str | Path, delimiter: str = "\t") -> dict[tuple[str, str], bool]:
    """Read ``(entity, attribute) -> truth`` labels from a delimited file."""
    path = Path(path)
    labels: dict[tuple[str, str], bool] = {}
    with _validated_reader(path, delimiter, "label", ["entity", "attribute", "truth"]) as reader:
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise _arity_error(path, reader, row)
            truth = _LABEL_VALUES.get(row[2].strip())
            if truth is None:
                raise DataModelError(
                    f"{path}:{reader.line_num}: truth column must be 0 or 1, got {row[2]!r}"
                )
            labels[(row[0], row[1])] = truth
    return labels


# ---------------------------------------------------------------------------
# Full datasets (claim matrix + labels) as JSON
# ---------------------------------------------------------------------------
def save_dataset_json(dataset: TruthDataset, path: str | Path) -> None:
    """Serialise a full :class:`TruthDataset` (claim matrix + labels) to JSON."""
    path = Path(path)
    payload = {
        "name": dataset.name,
        "facts": [
            {"fact_id": f.fact_id, "entity": f.entity, "attribute": f.attribute}
            for f in dataset.claims.facts
        ],
        "sources": list(dataset.claims.source_names),
        "claims": {
            "fact": dataset.claims.claim_fact.tolist(),
            "source": dataset.claims.claim_source.tolist(),
            "observation": dataset.claims.claim_obs.astype(int).tolist(),
        },
        "labels": {str(fact_id): bool(value) for fact_id, value in dataset.labels.items()},
        "labelled_entities": list(dataset.labelled_entities),
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_dataset_json(path: str | Path) -> TruthDataset:
    """Load a :class:`TruthDataset` previously written by :func:`save_dataset_json`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        facts = [
            Fact(fact_id=int(f["fact_id"]), entity=f["entity"], attribute=f["attribute"])
            for f in payload["facts"]
        ]
        matrix = ClaimMatrix(
            facts=facts,
            source_names=payload["sources"],
            claim_fact=np.asarray(payload["claims"]["fact"], dtype=np.int64),
            claim_source=np.asarray(payload["claims"]["source"], dtype=np.int64),
            claim_obs=np.asarray(payload["claims"]["observation"], dtype=np.int8),
        )
        labels = {int(k): bool(v) for k, v in payload["labels"].items()}
        return TruthDataset(
            name=payload["name"],
            claims=matrix,
            labels=labels,
            labelled_entities=tuple(payload.get("labelled_entities", ())),
        )
    except KeyError as exc:
        raise DataModelError(f"dataset file {path} is missing field {exc}") from exc
