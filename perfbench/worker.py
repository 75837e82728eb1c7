"""One measured process of a workload; spawned by ``run.py``, never run by hand.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with ``src`` on
``PYTHONPATH``.  The worker prints ``ready`` once its set-up is done (the
parent times fresh interpreter -> ``ready`` as ``setup_s``), then runs the
timed operation and prints one JSON object as its last line.  With
``"trace": true`` it first wraps the program's layers (``layers.py``) and
adds per-layer statistics to its result.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import json
import re
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro  # noqa: E402  (the import is part of the measured set-up)
from repro import ClaimStore, StoreSource, TruthEngine  # noqa: E402
from repro.api import ASGIClient, create_app  # noqa: E402
from repro.api.codec import encode_json  # noqa: E402
from repro.data import loaders  # noqa: E402
import repro.io  # noqa: E402
from repro.serving import TruthArtifact  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402

perf_counter = time.perf_counter
EXPORT_EXTRA_SAVES = 20
MIN_EXPORTS = 3  # timed exports per run, however long they take
STREAM_BATCH_ENTITIES = 500
#: The stream corpus is appended in generations of this many triples, so a
#: run times ~50 appends rather than one.
STREAM_GENERATION_TRIPLES = 5000
SERVE_CLIENTS = 2
SERVE_POOL = 8000  # pre-built requests per client (a multiple of INGEST_EVERY), cycled
#: Entity popularity follows the classic Zipf law (exponent 1).  This is an
#: assumption: the service has no recorded traffic to fit a skew to.
ZIPF_EXPONENT = 1.0
#: Read kinds of the serve workload, in equal shares as in the repository's
#: API latency benchmark (benchmarks/test_api_latency.py); exact counts per pool.
READ_KINDS = ("point", "list", "batch", "top_k")
#: Every 500th request is an /ingest.  On a 2-core Xeon VM one write costs
#: as much as ~300 reads, so a randomly drawn write count would swing
#: throughput between seeds.
INGEST_EVERY = 500
BATCH_PAIRS = 32
INGEST_ENTITIES = 3  # ~24 triples per /ingest
#: Distinct /ingest bodies per client, cycled: once each has been sent, the
#: served state stops growing, so memory and write latency do not depend on
#: how many requests a run completes.
INGEST_BATCHES = 32


def scores_digest(scores: dict[tuple[str, str], float]) -> str:
    hasher = hashlib.sha256()
    for (entity, attribute), score in sorted(scores.items()):
        hasher.update(f"{entity}\t{attribute}\t{score!r}\n".encode())
    return hasher.hexdigest()


def accuracy(scores: dict[tuple[str, str], float], labels: dict[tuple[str, str], bool]) -> float:
    correct = sum((scores[fact] >= 0.5) == truth for fact, truth in labels.items() if fact in scores)
    return correct / len(labels)


def peak_rss_mib() -> float:
    """Peak RSS since ``ready()`` reset it (Linux); the process's peak elsewhere."""
    try:
        match = re.search(r"VmHWM:\s+(\d+) kB", Path("/proc/self/status").read_text())
    except OSError:
        match = None
    return int(match.group(1)) / 1024.0 if match else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fit_export(tsv: str, seed: int, out: str) -> tuple[TruthEngine, float]:
    """The export path: TSV -> LTM fit -> artifact; returns the write time."""
    engine = TruthEngine(method="ltm", iterations=100, seed=seed).fit(repro.io.as_source(tsv))
    started = perf_counter()
    engine.to_artifact().save(out)
    return engine, perf_counter() - started


def attributed_since(clock: layers.LayerClock | None, before: dict[str, float]) -> dict[str, float]:
    return clock.attributed_since(before) if clock else {"covered_s": 0.0, "catch_all_s": 0.0}


# -- workloads -------------------------------------------------------------------------
def run_export(spec: dict, clock: layers.LayerClock | None) -> dict:
    """Export back to back: one warm-up, then timed exports for ``seconds``."""
    ready()
    labels = gen.read_labels(Path(spec["labels"]))
    before = clock.busy() if clock else {}
    walls: list[float] = []
    writes: list[float] = []
    digests: set[str] = set()
    checks: dict = {}

    def export() -> None:
        out = f"{spec['out']}-{len(walls)}"
        gc.collect()  # each export starts from a collected heap, untimed
        started = perf_counter()
        engine, write_s = fit_export(spec["tsv"], spec["seed"], out)
        walls.append(perf_counter() - started)
        # One save per export is too few samples for a steady write latency;
        # traced runs skip the extra saves so their layer times stay per export.
        writes.append(write_s)
        for extra in range(0 if clock else EXPORT_EXTRA_SAVES):
            began = perf_counter()
            engine.to_artifact().save(f"{out}-{extra}")
            writes.append(perf_counter() - began)
        for path in Path(out).parent.glob(f"{Path(out).name}*"):
            shutil.rmtree(path)
        scores = engine.fact_scores
        digests.add(scores_digest(scores))
        checks.update(accuracy=accuracy(scores, labels), scored_all=set(scores) == set(labels))

    # The first export of a process also pays lazy imports and allocator
    # growth; it is checked but not timed.
    export()
    writes.clear()
    deadline = perf_counter() + spec["seconds"]
    while len(walls) <= MIN_EXPORTS or perf_counter() < deadline:
        export()
    return {
        "ops": walls[1:],
        "writes": writes,
        "timed_s": sum(walls),
        "reps": len(walls),
        **attributed_since(clock, before),
        "digest": min(digests),
        "repeatable": len(digests) == 1,
        **checks,
    }


def run_setup(spec: dict, clock: layers.LayerClock | None) -> dict:
    """Only the imports: a start-up probe."""
    ready()
    return {}


def run_prepare(spec: dict, clock: layers.LayerClock | None) -> dict:
    """Fit the serve workload's artifact and dump its scores for the checks."""
    engine, _ = fit_export(spec["tsv"], spec["seed"], spec["out"])
    with open(spec["scores"], "w", encoding="utf-8") as handle:
        for (entity, attribute), score in sorted(engine.fact_scores.items()):
            handle.write(f"{entity}\t{attribute}\t{score!r}\n")
    return {}


def run_stream(spec: dict, clock: layers.LayerClock | None) -> dict:
    store = ClaimStore(spec["db"])
    engine = TruthEngine(
        method="ltm", iterations=100, seed=spec["seed"], retrain_every=0, retain_history=False
    ).fit(spec["prefix"])
    ready()
    before = clock.busy() if clock else {}
    started = perf_counter()
    appends: list[float] = []
    appended = 0
    triples = loaders.iter_triples_csv(spec["tsv"])
    while True:
        began = perf_counter()
        added = store.append(itertools.islice(triples, STREAM_GENERATION_TRIPLES))
        if not added:
            break
        appends.append(perf_counter() - began)
        appended += added
    batch_s: list[float] = []
    source = StoreSource(store)
    mark = perf_counter()
    for batch in source.iter_batches(STREAM_BATCH_ENTITIES, by_entity=True):
        engine.partial_fit(batch)
        now = perf_counter()
        batch_s.append(now - mark)
        mark = now
    wall = perf_counter() - started
    attributed = attributed_since(clock, before)
    rows = len(store)
    store.close()
    labels = gen.read_labels(Path(spec["labels"]))
    scores = engine.fact_scores
    entities = {entity for entity, _ in labels}
    return {
        "ops": batch_s,
        "writes": appends,
        "timed_s": wall,
        **attributed,
        "triples": appended,
        "rows_match": rows == appended == spec["triples"],
        "scored_all": {entity for entity, _ in scores} == entities,
        "digest": scores_digest(scores),
        "accuracy": accuracy(scores, labels),
        "db_bytes": Path(spec["db"]).stat().st_size,
    }


def build_requests(spec: dict, client: int) -> list[tuple]:
    """A seeded, pre-encoded request sequence for one closed-loop client."""
    rng = np.random.default_rng([spec["seed"], client])
    by_entity: dict[str, list[str]] = {}
    for line in Path(spec["scores"]).read_text().splitlines():
        entity, attribute, _ = line.split("\t")
        by_entity.setdefault(entity, []).append(attribute)
    # Zipf-skewed popularity over a seeded rank -> entity permutation.
    names = sorted(by_entity)
    entities = [names[i] for i in rng.permutation(len(names))]
    weights = 1.0 / np.arange(1, len(entities) + 1) ** ZIPF_EXPONENT
    kinds = [kind for kind in READ_KINDS for _ in range(SERVE_POOL // len(READ_KINDS))]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    # Each client opens with an /ingest, so every run has writes to check;
    # the two clients' writes are staggered by half a period.
    offset = client * INGEST_EVERY // SERVE_CLIENTS
    for n in range(offset, len(kinds), INGEST_EVERY):
        kinds[n] = "ingest"
    picks = rng.choice(len(entities), size=SERVE_POOL * (BATCH_PAIRS + 1), p=weights / weights.sum())
    slots = rng.random(len(picks))
    holdout = gen.generate(spec["seed"] + 7919, INGEST_BATCHES * INGEST_ENTITIES, prefix=f"h{client}_")
    ingest_groups = list(holdout.entity_triples().values())
    requests: list[tuple] = []
    ingests = 0

    def fact(i: int) -> tuple[str, str]:
        entity = entities[picks[i]]
        attributes = by_entity[entity]
        return entity, attributes[int(slots[i] * len(attributes))]

    for n, kind in enumerate(kinds):
        if kind == "point":
            entity, attribute = fact(n)
            requests.append((kind, "GET", f"/truth/{entity}?attribute={attribute}", None, (entity, attribute)))
        elif kind == "list":
            requests.append((kind, "GET", f"/truth/{fact(n)[0]}", None, None))
        elif kind == "batch":
            base = SERVE_POOL + n * BATCH_PAIRS
            pairs = [list(fact(i)) for i in range(base, base + BATCH_PAIRS)]
            requests.append((kind, "POST", "/batch", encode_json({"pairs": pairs}), None))
        elif kind == "top_k":
            requests.append((kind, "GET", f"/top-k?k=3&entity={fact(n)[0]}", None, None))
        else:
            start = (ingests * INGEST_ENTITIES) % len(ingest_groups)
            triples = [list(t) for group in ingest_groups[start : start + INGEST_ENTITIES] for t in group]
            ingests += 1
            requests.append((kind, "POST", "/ingest", encode_json({"triples": triples}), None))
    return requests


def run_serve(spec: dict, clock: layers.LayerClock | None) -> dict:
    artifact = TruthArtifact.load(spec["artifact"])
    app = create_app(artifact, rate=None)
    ready()
    expected = {}
    for line in Path(spec["scores"]).read_text().splitlines():
        entity, attribute, score = line.split("\t")
        expected[(entity, attribute)] = float(score)
    labels = gen.read_labels(Path(spec["labels"]))
    pools = [build_requests(spec, client) for client in range(SERVE_CLIENTS)]
    client = ASGIClient(app)
    state = {"failed": 0, "generation": 1, "monotonic": True, "mismatch": 0, "checked": 0}

    def check_point(body: bytes, fact: tuple[str, str]) -> None:
        state["checked"] += 1
        state["mismatch"] += json.loads(body)["score"] != expected[fact]

    async def probe() -> str:
        """Sequential read-only checks before the loop: digest, latency, accuracy.

        Runs a read-only prefix of the mix (point-read latency for the
        loopback comparison) and then serves every labelled fact through
        /batch, scoring the served verdicts against ground truth.
        """
        hasher = hashlib.sha256()
        point_s: list[float] = []
        for kind, method, target, body, fact in [r for r in pools[0] if r[0] != "ingest"][: spec["probe"]]:
            began = perf_counter()
            response = await client.request(method, target, body=body)
            if kind == "point":
                point_s.append(perf_counter() - began)
                check_point(response.body, fact)
            state["failed"] += not 200 <= response.status < 300
            hasher.update(response.body)
        state["point_p50_s"] = sorted(point_s)[len(point_s) // 2]
        facts = sorted(labels)
        right = 0
        for start in range(0, len(facts), BATCH_PAIRS):
            chunk = facts[start : start + BATCH_PAIRS]
            response = await client.request("POST", "/batch", body=encode_json({"pairs": [list(f) for f in chunk]}))
            state["failed"] += response.status != 200
            hasher.update(response.body)
            scores = json.loads(response.body)["scores"]
            right += sum((score >= 0.5) == labels[fact] for score, fact in zip(scores, chunk))
        state["accuracy"] = right / len(facts)
        return hasher.hexdigest()

    reads: list[float] = []
    writes: list[float] = []

    async def closed_loop_client(pool: list[tuple], deadline: float) -> None:
        index = 0
        size = len(pool)
        while perf_counter() < deadline:
            kind, method, target, body, fact = pool[index % size]
            index += 1
            began = perf_counter()
            response = await client.request(method, target, body=body)
            elapsed = perf_counter() - began
            if not 200 <= response.status < 300:
                state["failed"] += 1
            elif kind == "ingest":
                writes.append(elapsed)
                generation = json.loads(response.body)["generation"]
                state["monotonic"] &= generation > state["generation"]
                state["generation"] = generation
                continue
            elif fact is not None and index % 16 == 0:
                check_point(response.body, fact)
            reads.append(elapsed)

    async def main() -> tuple[str, float, dict[str, float]]:
        digest = await probe()
        before = clock.busy() if clock else {}
        started = perf_counter()
        deadline = started + spec["seconds"]
        run_client = clock.coroutine(layers.CLIENT, closed_loop_client) if clock else closed_loop_client
        await asyncio.gather(*(run_client(pool, deadline) for pool in pools))
        wall = perf_counter() - started
        return digest, wall, attributed_since(clock, before)

    digest, wall, attributed = asyncio.run(main())
    client_s = clock.stats[layers.CLIENT].busy_s if clock else 0.0
    return {
        "ops": reads,
        "writes": writes,
        "timed_s": wall,
        **attributed,
        "client_s": client_s,
        "requests": len(reads) + len(writes) + state["failed"],
        "failed": state["failed"],
        "digest": digest,
        "monotonic": state["monotonic"],
        "scores_match": state["mismatch"] == 0 and state["checked"] > 0,
        "accuracy": state["accuracy"],
        "point_p50_s": state["point_p50_s"],
    }


WORKLOADS = {"export": run_export, "setup": run_setup, "prepare": run_prepare, "stream": run_stream, "serve": run_serve}


def ready() -> None:
    """End of set-up: from here on, peak RSS is the timed work's.

    Stream's bootstrap fit would otherwise set its peak, hiding the memory
    of the streaming pass itself.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")  # resets VmHWM
    except OSError:
        pass
    print("ready", flush=True)


def fingerprint() -> dict:
    from repro.core.gibbs import GibbsConfig

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {"gibbs_kernel": GibbsConfig().resolved_kernel(), "numba": has_numba}


def layer_report(clock: layers.LayerClock) -> dict:
    clock.harvest_caches()
    return {
        "layers": {
            name: {"calls": s.calls, "failures": s.failures, "busy_s": s.busy_s}
            for name, s in clock.stats.items()
        },
        "counters": clock.counters,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    clock = None
    if spec.get("trace"):
        clock = layers.LayerClock()
        layers.install(clock)
    result = WORKLOADS[spec["workload"]](spec, clock)
    result["peak_rss_mib"] = peak_rss_mib()
    result["fingerprint"] = fingerprint()
    if clock is not None:
        result.update(layer_report(clock))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
