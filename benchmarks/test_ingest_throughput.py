"""E10 — Ingestion throughput of the vectorized claim builder.

The claim-construction rules of Definitions 2-3 have one implementation in
the library: :func:`repro.data.claim_builder.bulk_build_claim_matrix`, which
factorizes the entity / attribute / source columns into dense codes and runs
claim generation as numpy array passes.

This benchmark times it at 100 000 triples on a conflict-heavy workload (20
sources covering every entity, multi-valued attributes — the regime the
paper's movie feed lives in, where negative-claim generation dominates),
asserts its matrix equals the row-at-a-time reference of Definitions 2-3
(``tests/claim_reference.py``) and the frozen ``e10-100k`` digests of
``tests/golden_claims.json``, and records triples/sec under
``benchmarks/results/``.

The **out-of-core row** (ISSUE 7) extends the same report: a 1M-triple
corpus is streamed from a generator into a :class:`~repro.store.ClaimStore`
(never materialised), then fitted through the engine's streaming LTMinc path
over a :class:`~repro.io.StoreSource` with ``retain_history=False`` — peak
traced memory of the fit loop must stay bounded by the batch size, orders of
magnitude under the corpus.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.data.claim_builder import bulk_build_claim_matrix

from conftest import write_result

# The claim reference and frozen digests live with the tier-1 tests.
TESTS_DIR = Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(TESTS_DIR))
from claim_reference import claim_digests, reference_claim_matrix  # noqa: E402

NUM_ENTITIES = 2_500
NUM_SOURCES = 20
ATTRS_PER_ENTITY = 10
ASSERTED_PER_SOURCE = 2
REPEATS = 3

# Out-of-core workload: 100k entities x 10 triples = 1M triples.
OOC_ENTITIES = 100_000
OOC_TRIPLES_PER_ENTITY = 10
OOC_BATCH_ENTITIES = 10_000
OOC_BOOTSTRAP_ENTITIES = 1_000
OOC_PEAK_CAP_MB = 256.0


def _make_triples() -> list[tuple[str, str, str]]:
    """A seeded 100k-triple crawl: every source covers every entity."""
    rng = np.random.default_rng(1234)
    triples: list[tuple[str, str, str]] = []
    for e in range(NUM_ENTITIES):
        entity = f"entity_{e:05d}"
        for s in rng.choice(NUM_SOURCES, size=NUM_SOURCES, replace=False):
            source = f"source_{s:02d}"
            for a in rng.choice(ATTRS_PER_ENTITY, size=ASSERTED_PER_SOURCE, replace=False):
                triples.append((entity, f"value_{e:05d}_{a}", source))
    return triples


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs (GC collected and paused per run)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = min(best, elapsed)
    return best, result


def test_ingest_throughput(results_dir):
    triples = _make_triples()
    num_triples = len(triples)
    assert num_triples == 100_000

    bulk_s, bulk_matrix = _best_of(lambda: bulk_build_claim_matrix(triples))

    # Speed must not change semantics: the matrix is the reference's, and
    # the one frozen for this workload.
    reference = reference_claim_matrix(triples)
    assert reference.source_names == bulk_matrix.source_names
    assert np.array_equal(reference.claim_fact, bulk_matrix.claim_fact)
    assert np.array_equal(reference.claim_source, bulk_matrix.claim_source)
    assert np.array_equal(reference.claim_obs, bulk_matrix.claim_obs)
    golden = json.loads((TESTS_DIR / "golden_claims.json").read_text())["e10-100k"]
    assert claim_digests(bulk_matrix) == golden

    bulk_tps = num_triples / bulk_s

    lines = [
        "E10  Ingestion throughput: vectorized bulk claim building",
        "",
        f"workload: {num_triples} triples, {bulk_matrix.num_entities} entities, "
        f"{bulk_matrix.num_sources} sources, {bulk_matrix.num_facts} facts, "
        f"{bulk_matrix.num_claims} claims "
        f"({bulk_matrix.num_negative_claims} negative)",
        f"timing:   best of {REPEATS} runs",
        "",
        f"{'path':12s}  {'seconds':>9s}  {'triples/sec':>12s}",
        f"{'-' * 12}  {'-' * 9}  {'-' * 12}",
        f"{'bulk':12s}  {bulk_s:9.3f}  {bulk_tps:12,.0f}",
        "",
    ]
    write_result(results_dir, "ingest_throughput.txt", "\n".join(lines))


def _ooc_stream():
    """A 1M-triple generator: 5 reliable and 5 unreliable sources per entity."""
    for e in range(OOC_ENTITIES):
        entity = f"entity_{e:06d}"
        for s in range(5):
            yield (entity, f"true_{e}", f"good_{s}")
        for s in range(5):
            yield (entity, f"junk_{e}", f"bad_{s}")


def test_out_of_core_store_throughput(results_dir, tmp_path):
    """1M triples: generator -> ClaimStore -> streaming LTMinc fit, bounded RAM."""
    from repro.engine import EngineConfig, TruthEngine
    from repro.io import StoreSource
    from repro.store import ClaimStore

    path = tmp_path / "claims.db"
    num_triples = OOC_ENTITIES * OOC_TRIPLES_PER_ENTITY

    start = time.perf_counter()
    with ClaimStore(path) as store:
        appended = store.append(_ooc_stream())
    ingest_s = time.perf_counter() - start
    assert appended == num_triples

    # Bootstrap source quality on a small prefix (full Gibbs fit), then
    # stream the whole corpus through the closed-form LTMinc scorer.
    # retain_history=False: the corpus's history IS the store.
    engine = TruthEngine(
        EngineConfig(
            method="ltm",
            params={"iterations": 10, "seed": 7},
            retrain_every=0,
            retain_history=False,
        )
    )
    with StoreSource(path) as source:
        bootstrap = source.entity_triples(
            [f"entity_{e:06d}" for e in range(OOC_BOOTSTRAP_ENTITIES)]
        )
        engine.fit(bootstrap)
        history_after_bootstrap = len(engine._history)

        tracemalloc.start()
        start = time.perf_counter()
        num_batches = 0
        for batch in source.iter_batches(OOC_BATCH_ENTITIES, by_entity=True):
            engine.partial_fit(batch)
            num_batches += 1
        fit_s = time.perf_counter() - start
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    # The engine must not have accumulated the stream: its history is still
    # just the bootstrap window, and the fit loop's peak memory is batch-
    # sized, not corpus-sized.
    assert len(engine._history) == history_after_bootstrap
    assert len(engine.fact_scores) == 2 * OOC_ENTITIES
    peak_mb = peak_bytes / 2**20
    assert peak_mb < OOC_PEAK_CAP_MB, (
        f"streaming fit peaked at {peak_mb:.0f} MiB; "
        f"out-of-core bound is {OOC_PEAK_CAP_MB:.0f} MiB"
    )

    ingest_tps = num_triples / ingest_s
    fit_tps = num_triples / fit_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    store_mb = path.stat().st_size / 2**20

    lines = [
        "",
        "E10b  Out-of-core ingest + streaming fit (ISSUE 7)",
        "",
        f"workload: {num_triples:,} triples, {OOC_ENTITIES:,} entities, "
        f"10 sources; store file {store_mb:.0f} MiB",
        f"stream:   {OOC_BATCH_ENTITIES:,} entities/batch "
        f"({num_batches} batches), LTMinc scoring, retain_history=False",
        "",
        f"{'stage':24s}  {'seconds':>9s}  {'triples/sec':>12s}",
        f"{'-' * 24}  {'-' * 9}  {'-' * 12}",
        f"{'generator -> ClaimStore':24s}  {ingest_s:9.3f}  {ingest_tps:12,.0f}",
        f"{'StoreSource -> LTMinc':24s}  {fit_s:9.3f}  {fit_tps:12,.0f}",
        "",
        f"peak traced memory of the fit loop: {peak_mb:.1f} MiB "
        f"(bound {OOC_PEAK_CAP_MB:.0f} MiB); process peak RSS {rss_mb:.0f} MiB",
        "",
    ]
    report_path = results_dir / "ingest_throughput.txt"
    existing = report_path.read_text(encoding="utf-8") if report_path.exists() else ""
    write_result(results_dir, "ingest_throughput.txt", existing + "\n".join(lines))
