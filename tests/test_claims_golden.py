"""Golden claim matrices, frozen from the claim builders before the seed
relational engine left the data path.

Each case is a triple corpus; ``golden_claims.json`` holds the digests of its
claim matrix (source names, the ``(fact_id, entity, attribute)`` list and the
three claim arrays, see :func:`claim_reference.claim_digests`).  Every ingest
path must reproduce them: the bulk builder on rows and on columns,
``build_claim_matrix`` over a :class:`~repro.data.raw.RawDatabase`, the
in-memory and file sources, and the row-at-a-time test reference.  The
digests are data, not a regeneration target: a change that moves one
changes the claim relations every solver sees.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from claim_reference import claim_digests, reference_claim_matrix
from test_io_catalog import SMALL_PARAMS

from repro.data.claim_builder import build_claim_matrix, bulk_build_claim_matrix
from repro.data.loaders import save_triples_csv
from repro.data.raw import RawDatabase
from repro.io import MemorySource, TripleFileSource, default_catalog
from repro.io.catalog import PAPER_EXAMPLE_TRIPLES
from repro.types import Triple, TripleColumns

GOLDEN = json.loads((Path(__file__).parent / "golden_claims.json").read_text())


def _e10_workload() -> list[Triple]:
    """E10's 100k-triple crawl (``benchmarks/test_ingest_throughput.py``):
    20 sources cover each of 2,500 entities with 2 of 10 values."""
    rng = np.random.default_rng(1234)
    triples = []
    for e in range(2_500):
        entity = f"entity_{e:05d}"
        for s in rng.choice(20, size=20, replace=False):
            source = f"source_{s:02d}"
            for a in rng.choice(10, size=2, replace=False):
                triples.append(Triple(entity, f"value_{e:05d}_{a}", source))
    return triples


def _duplicate_heavy() -> list[Triple]:
    """3,000 draws from 1,920 possible triples: about half are repeats."""
    rng = np.random.default_rng(7)
    picks = rng.integers(0, [40, 6, 8], size=(3_000, 3)).tolist()
    return [Triple(f"e{e}", f"a{a}", f"s{s}") for e, a, s in picks]


def _non_string_attributes() -> list[Triple]:
    """Integer, float and tuple values next to strings that render alike."""
    rng = np.random.default_rng(11)
    values = [0, 1, "1", 2.5, "2.5", -3, 10**20, (1, 2), "x", "(1, 2)"]
    picks = rng.integers(0, [30, len(values), 6], size=(600, 3)).tolist()
    return [Triple(f"e{e}", values[v], f"s{s}") for e, v, s in picks]


CASES = {
    **{
        f"catalog/{key}": (
            lambda key=key: list(default_catalog().create(key, **SMALL_PARAMS[key]).iter_triples())
        )
        for key in SMALL_PARAMS
    },
    "paper_example": lambda: list(PAPER_EXAMPLE_TRIPLES),
    "e10-100k": _e10_workload,
    "duplicate-heavy": _duplicate_heavy,
    "non-string-attributes": _non_string_attributes,
}


@pytest.fixture(scope="module")
def corpora() -> dict[str, list[Triple]]:
    return {case: make() for case, make in CASES.items()}


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_row_at_a_time_reference(case, corpora):
    assert claim_digests(reference_claim_matrix(corpora[case])) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_bulk_builder_on_rows(case, corpora):
    triples = corpora[case]
    assert claim_digests(bulk_build_claim_matrix(triples)) == GOLDEN[case]
    tuples = [t.as_tuple() for t in triples]
    assert claim_digests(bulk_build_claim_matrix(tuples)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_bulk_builder_on_columns(case, corpora):
    columns = TripleColumns(*zip(*(t.as_tuple() for t in corpora[case])))
    assert claim_digests(bulk_build_claim_matrix(columns)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_claim_matrix_on_raw_database(case, corpora):
    raw = RawDatabase(corpora[case], strict=False)
    assert claim_digests(build_claim_matrix(raw)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_memory_source(case, corpora):
    assert claim_digests(MemorySource(corpora[case]).to_claim_matrix()) == GOLDEN[case]


#: A triple file holds strings, so the non-string corpus cannot round-trip.
FILE_CASES = sorted(case for case in CASES if case != "non-string-attributes")


@pytest.mark.parametrize("case", FILE_CASES)
def test_triple_file_source(case, corpora, tmp_path):
    path = tmp_path / "triples.tsv"
    save_triples_csv(corpora[case], path)
    assert claim_digests(TripleFileSource(path).to_claim_matrix()) == GOLDEN[case]
