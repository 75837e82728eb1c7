"""Seeded corpus generator for the benchmark (numpy only, never imports repro).

The program under test must not shape its own inputs, so this module is a
self-contained simulator of the paper's setting: ``S`` sources with
two-sided quality (sensitivity and false-positive rate from Betas),
per-source coverage of entities, one or more true values per entity, some
false candidate values, and ground-truth labels for every fact a source
asserts.  Equal seeds give byte-identical files; :func:`digest` fingerprints
them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_SOURCES = 12


@dataclass(frozen=True)
class Corpus:
    """One generated corpus: positive triples in entity-major order plus labels.

    ``labels`` maps every asserted ``(entity, value)`` fact to its ground truth.
    """

    entity_names: list[str]
    triples: list[tuple[str, str, str]]
    labels: dict[tuple[str, str], bool]

    def entity_triples(self) -> dict[str, list[tuple[str, str, str]]]:
        grouped: dict[str, list[tuple[str, str, str]]] = {}
        for triple in self.triples:
            grouped.setdefault(triple[0], []).append(triple)
        return grouped


def _beta_levels(a: float, b: float, size: int, salt: int) -> np.ndarray:
    """Beta(a, b) values at the ``size`` stratum midpoints ``(k + 1/2) / size``.

    The levels are assigned to sources by a fixed, ``salt``-keyed shuffle, so
    every corpus has the same source profile and the seed varies only the
    entity-level draws.  Seeded draws of just 12 sources moved corpus size
    and difficulty by 4-15% between seeds, more than the benchmark's bounds.
    """
    fixed = np.random.default_rng(salt)
    levels = np.quantile(fixed.beta(a, b, 1 << 16), (np.arange(size) + 0.5) / size)
    return levels[fixed.permutation(size)]


def generate(seed: int, entities: int, prefix: str = "e") -> Corpus:
    """Simulate ``entities`` entities observed by :data:`NUM_SOURCES` sources.

    Per source: coverage from Beta(5, 6) (mean 0.45), sensitivity from
    Beta(8, 2) (mean 0.8) and false-positive rate from Beta(1, 12) (mean
    0.08), at fixed quantiles (:func:`_beta_levels`).  Per
    entity: ``1 + Binomial(3, 0.2)`` true values and ``Poisson(1.2)`` false
    candidates.  A covering source asserts each true value with its
    sensitivity and each false candidate with its false-positive rate.
    """
    rng = np.random.default_rng(seed)
    num_sources = NUM_SOURCES
    coverage = _beta_levels(5.0, 6.0, num_sources, salt=1)
    sensitivity = _beta_levels(8.0, 2.0, num_sources, salt=2)
    false_positive = _beta_levels(1.0, 12.0, num_sources, salt=3)

    num_true = 1 + rng.binomial(3, 0.2, entities)
    num_false = rng.poisson(1.2, entities)
    width = int((num_true + num_false).max())
    slot = np.arange(width)[None, :]
    valid = slot < (num_true + num_false)[:, None]
    is_true = slot < num_true[:, None]

    covers = rng.random((entities, num_sources)) < coverage[None, :]
    uncovered = ~covers.any(axis=1)
    covers[uncovered, rng.integers(0, num_sources, int(uncovered.sum()))] = True

    rate = np.where(is_true[:, None, :], sensitivity[None, :, None], false_positive[None, :, None])
    asserted = (rng.random((entities, num_sources, width)) < rate) & covers[:, :, None] & valid[:, None, :]
    # Value names carry no hint of their truth: each entity's candidate slots
    # are named through a random permutation.
    names = rng.permuted(np.tile(np.arange(width), (entities, 1)), axis=1)

    entity_names = [f"{prefix}{i:06d}" for i in range(entities)]
    source_names = [f"src{s:02d}" for s in range(num_sources)]
    e_idx, s_idx, v_idx = np.nonzero(asserted)
    value_codes = names[e_idx, v_idx]
    truth = is_true[e_idx, v_idx]
    triples: list[tuple[str, str, str]] = []
    labels: dict[tuple[str, str], bool] = {}
    for e, s, code, flag in zip(e_idx.tolist(), s_idx.tolist(), value_codes.tolist(), truth.tolist()):
        entity = entity_names[e]
        value = f"{entity}.v{code}"
        triples.append((entity, value, source_names[s]))
        labels[(entity, value)] = flag
    return Corpus(entity_names, triples, labels)


def write_triples(path: Path, triples: list[tuple[str, str, str]]) -> None:
    """Write a tab-separated ``entity/attribute/source`` file with header."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("entity\tattribute\tsource\n")
        handle.writelines(f"{e}\t{a}\t{s}\n" for e, a, s in triples)


def write_labels(path: Path, labels: dict[tuple[str, str], bool]) -> None:
    """Write ``entity/attribute/truth`` labels, one fact per line."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("entity\tattribute\ttruth\n")
        handle.writelines(
            f"{e}\t{a}\t{int(flag)}\n" for (e, a), flag in sorted(labels.items())
        )


def read_labels(path: Path) -> dict[tuple[str, str], bool]:
    """Read a file written by :func:`write_labels`."""
    with path.open(encoding="utf-8") as handle:
        next(handle)
        rows = (line.rstrip("\n").split("\t") for line in handle)
        return {(e, a): flag == "1" for e, a, flag in rows}


def digest(paths: list[Path]) -> str:
    """SHA-256 over the named files' bytes, in the given order."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.name.encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()
