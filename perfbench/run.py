"""The repository benchmark: seeded ``export``, ``stream`` and ``serve`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload export --seed 1 --seconds 15 --trace 0

Each run generates its inputs from ``--seed`` (``gen.py``, numpy only), runs
the workload in fresh worker processes against ``src/``, checks the outputs,
and prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
repeats the workload untraced, to report ``trace_overhead`` and to check
that tracing changed no output.  Earlier lines give the input digest, the
source revision and machine fingerprint, and a readable metric table.
Exit code 1 means a correctness check failed; 2 means the program is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench-work"

#: Corpus sizes at ``--scale 1``.
EXPORT_ENTITIES = 10_000
STREAM_ENTITIES = 34_000
BOOTSTRAP_ENTITIES = 1_000
SERVE_FIT_SEED = 0  # the serve artifact is the export corpus fitted with this seed
SERVE_PROBE_REQUESTS = 400
SETUP_PROBES = 5  # start-ups timed per export and serve run
RTT_REQUESTS = 500
ACCURACY_FLOOR = 0.8  # generated corpora score ~0.97 at the default scale
COVERAGE_FLOOR = 0.95  # share of timed wall the named layers must explain at --scale 1
MIN_REPS = 2  # stream passes per run, however long they take
WORKER_TIMEOUT_S = 150

#: End-to-end metrics: name -> (unit, per-workload meaning).  Every workload
#: reports all of them; ``error_rate`` is printed but carried by the result's
#: ``attempted``/``failed`` counts.
END_TO_END = {
    "setup_s": ("s", {
        "export": "fresh interpreter -> `import repro` done",
        "stream": "fresh interpreter -> import + store open + bootstrap fit",
        "serve": "`repro-truth serve ART --port 0 --rate 0` -> its serving line",
    }),
    "peak_rss_mib": ("MiB", {w: "peak RSS of the workload process after its set-up" for w in ("export", "stream", "serve")}),
    "accuracy": ("ratio", {
        "export": "ground-truth facts decided correctly at threshold 0.5",
        "stream": "ground-truth facts decided correctly at threshold 0.5",
        "serve": "labelled facts whose served /batch verdict matches ground truth",
    }),
    "items_per_s": ("1/s", {
        "export": "input triples / median export wall (TSV -> artifact)",
        "stream": "triples_per_s: triples / (append + streaming-fit wall)",
        "serve": "requests_per_s across the mix",
    }),
    "op_p50_ms": ("ms", {
        "export": "export_s: median wall of one TSV -> artifact export",
        "stream": "batch_p50_ms: median partial_fit batch incl. its store read",
        "serve": "read_p50_ms: median read latency",
    }),
    "write_p50_ms": ("ms", {
        "export": "median to_artifact + save",
        "stream": "median ClaimStore.append of one 5000-triple generation",
        "serve": "median /ingest latency",
    }),
}

#: Per-layer metrics: name -> (unit, end-to-end metrics it should move).
#: Times are per repetition (one export, one stream pass, one serve loop)
#: and are self times: nested layers are excluded.
PER_LAYER = {
    "io.parse_s": ("s", "export op_p50_ms; stream items_per_s, op_p50_ms; serve write_p50_ms"),
    "data.claims_s": ("s", "export op_p50_ms; stream items_per_s, op_p50_ms; serve write_p50_ms"),
    "data.claims": ("count", "claims built; same as data.claims_s"),
    "core.priors_s": ("s", "export op_p50_ms"),
    "core.quality_s": ("s", "export op_p50_ms"),
    "core.gibbs_s": ("s", "export op_p50_ms; stream setup_s; nothing on serve"),
    "core.gibbs.sweeps": ("count", "export op_p50_ms"),
    "core.gibbs.ns_per_claim_sweep": ("ns", "export op_p50_ms"),
    "core.gibbs.flip_fraction": ("ratio", "export op_p50_ms"),
    "core.incremental_s": ("s", "stream items_per_s; serve write_p50_ms"),
    "engine.fit.self_s": ("s", "export op_p50_ms"),
    "engine.partial_fit.self_s": ("s", "stream op_p50_ms; serve write_p50_ms"),
    "engine.to_artifact_s": ("s", "export op_p50_ms, write_p50_ms; serve write_p50_ms"),
    "store.append_s": ("s", "stream items_per_s, write_p50_ms"),
    "store.bytes_per_triple": ("bytes", "stream items_per_s, write_p50_ms"),
    "io.store_source.batch_s": ("s", "stream items_per_s, op_p50_ms"),
    "serving.artifact.save_s": ("s", "export op_p50_ms, write_p50_ms"),
    "serving.artifact.bytes": ("bytes", "export write_p50_ms; serve setup_s"),
    "serving.artifact.load_s": ("s", "serve setup_s"),
    "serving.service.lookup_us": ("us", "serve items_per_s, op_p50_ms"),
    "serving.service.entity_top.hit_ratio": ("ratio", "serve items_per_s, op_p50_ms"),
    "serving.service.refresh_s": ("s", "serve write_p50_ms, items_per_s"),
    "api.app.self_us": ("us", "serve items_per_s, op_p50_ms"),
    "api.event_loop_s": ("s", "serve items_per_s, op_p50_ms"),
    "api.server.rtt_ms": ("ms", "loopback cost outside the in-process numbers (serve)"),
    "coverage": ("ratio", "named layer time / timed wall; must stay >= 0.95"),
    "catch_all_share": ("ratio", "self time of engine.fit, engine.partial_fit, api.event_loop / timed wall"),
    "trace_overhead": ("ratio", "traced wall / untraced wall - 1"),
}
#: Layer -> name of its busy-time metric (busy seconds unless noted).
LAYER_TIME = {
    "io.parse": "io.parse_s",
    "data.claims": "data.claims_s",
    "core.priors": "core.priors_s",
    "core.quality": "core.quality_s",
    "core.gibbs": "core.gibbs_s",
    "core.incremental": "core.incremental_s",
    "engine.fit": "engine.fit.self_s",
    "engine.partial_fit": "engine.partial_fit.self_s",
    "engine.to_artifact": "engine.to_artifact_s",
    "store.append": "store.append_s",
    "io.store_source.batch": "io.store_source.batch_s",
    "serving.artifact.save": "serving.artifact.save_s",
    "serving.artifact.load": "serving.artifact.load_s",
    "serving.service.refresh": "serving.service.refresh_s",
    "api.event_loop": "api.event_loop_s",
}
PER_CALL_US = {"serving.service.lookup": "serving.service.lookup_us", "api.app": "api.app.self_us"}


def fail_unless(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- processes ----------------------------------------------------------------------------
def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Keep SQLite and numpy temporaries inside the checkout.
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = str(work)
    return env


def run_worker(spec: dict, work: Path) -> tuple[float, dict]:
    """Run one worker; return (fresh interpreter -> ``ready`` seconds, result)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=child_env(work),
        cwd=ROOT,
        text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)  # a hung worker cannot stall the run
    watchdog.start()
    setup_s = float("nan")
    last = ""
    try:
        for line in proc.stdout:
            if line == "ready\n":
                setup_s = time.perf_counter() - started
            elif line.strip():
                last = line
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"{spec['workload']} worker exited with {code}")
    return setup_s, json.loads(last)


class ServeProcess:
    """A ``repro-truth serve`` child, started and timed to its serving line."""

    def __init__(self, artifact: Path, work: Path):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact), "--port", "0", "--rate", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(work),
            cwd=ROOT,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        try:
            if not line.startswith("serving artifact"):
                raise ValueError(line)
            self.port = int(line.rsplit(":", 1)[1])
        except ValueError:
            self.stop()
            raise RuntimeError(f"repro-truth serve did not start: {line!r}") from None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def loopback_point_p50_s(server: ServeProcess, targets: list[str]) -> float:
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    times = []
    try:
        for target in targets:
            began = time.perf_counter()
            conn.request("GET", target)
            response = conn.getresponse()
            response.read()
            times.append(time.perf_counter() - began)
            if response.status != 200:
                raise RuntimeError(f"loopback GET {target} answered {response.status}")
    finally:
        conn.close()
    return median(times)


# -- inputs -------------------------------------------------------------------------------
def make_inputs(workload: str, seed: int, scale: float, work: Path) -> dict:
    entities = STREAM_ENTITIES if workload == "stream" else EXPORT_ENTITIES
    corpus = gen.generate(seed, max(20, int(entities * scale)))
    tsv, labels = work / "triples.tsv", work / "labels.tsv"
    gen.write_triples(tsv, corpus.triples)
    gen.write_labels(labels, corpus.labels)
    files = [tsv, labels]
    inputs = {"tsv": str(tsv), "labels": str(labels), "triples": len(corpus.triples)}
    if workload == "stream":
        prefix = work / "prefix.tsv"
        cut = set(corpus.entity_names[: max(5, int(BOOTSTRAP_ENTITIES * scale))])
        gen.write_triples(prefix, [t for t in corpus.triples if t[0] in cut])
        files.append(prefix)
        inputs["prefix"] = str(prefix)
    inputs["digest"] = gen.digest(files)
    return inputs


# -- workloads ----------------------------------------------------------------------------
def repeat(spec: dict, work: Path, seconds: float, min_reps: int) -> list[tuple[float, dict]]:
    """Fresh-process repetitions until ``seconds`` have passed (at least ``min_reps``)."""
    runs: list[tuple[float, dict]] = []
    started = time.perf_counter()
    while len(runs) < min_reps or time.perf_counter() - started < seconds:
        rep = dict(spec, out=str(work / f"artifact-{len(runs)}"), db=str(work / f"claims-{len(runs)}.db"))
        runs.append(run_worker(rep, work))
        for leftover in work.glob(f"claims-{len(runs) - 1}.db*"):
            leftover.unlink()
        for leftover in work.glob(f"artifact-{len(runs) - 1}*"):
            shutil.rmtree(leftover)
    return runs


def measure_batch(workload: str, args: argparse.Namespace, inputs: dict, work: Path, trace: bool, failures: list[str]) -> dict:
    spec = dict(inputs, workload=workload, seed=args.seed, trace=trace)
    if workload == "export":
        # One process exports back to back; start-up is probed separately.
        runs = [run_worker(dict(spec, seconds=args.seconds, out=str(work / "artifact")), work)]
        setups = [] if trace else [run_worker(dict(spec, workload="setup"), work)[0] for _ in range(SETUP_PROBES)]
    else:
        runs = repeat(spec, work, args.seconds, MIN_REPS)
        setups = [setup for setup, _ in runs]
    results = [result for _, result in runs]
    digests = {result["digest"] for result in results}
    fail_unless(
        len(digests) == 1 and all(r.get("repeatable", True) for r in results),
        f"{workload}: scores differ across repeats",
        failures,
    )
    fail_unless(all(r["scored_all"] for r in results), f"{workload}: not every fact/entity was scored", failures)
    acc = median([r["accuracy"] for r in results])
    fail_unless(acc >= ACCURACY_FLOOR, f"{workload}: accuracy {acc:.4f} below floor {ACCURACY_FLOOR}", failures)
    if workload == "stream":
        fail_unless(all(r["rows_match"] for r in results), "stream: store rows != triples appended", failures)
    ops = [op for r in results for op in r["ops"]]
    if workload == "export":
        wall = median(ops)
        attempted = len(ops)
    else:
        wall = median([r["timed_s"] for r in results])
        attempted = len(ops) + sum(len(r["writes"]) for r in results)  # batches + appends
    return {
        "runs": runs,
        "digest": digests.pop() if len(digests) == 1 else None,
        "attempted": attempted,
        "failed": 0,
        "wall": wall,
        "metrics": {
            "setup_s": median(setups) if setups else float("nan"),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in results]),
            "accuracy": acc,
            "items_per_s": inputs["triples"] / wall,
            "op_p50_ms": median(ops) * 1e3,
            "write_p50_ms": median([w for r in results for w in r["writes"]]) * 1e3,
        },
    }


def prepare_serve(args: argparse.Namespace, inputs: dict, work: Path) -> dict:
    spec = dict(
        inputs,
        workload="prepare",
        seed=SERVE_FIT_SEED,
        out=str(work / "serve-artifact"),
        scores=str(work / "serve-scores.tsv"),
    )
    run_worker(spec, work)
    return dict(
        inputs,
        artifact=spec["out"],
        scores=spec["scores"],
        probe=SERVE_PROBE_REQUESTS,
    )


def measure_serve(args: argparse.Namespace, inputs: dict, work: Path, trace: bool, failures: list[str]) -> dict:
    spec = dict(inputs, workload="serve", seed=args.seed, seconds=args.seconds, trace=trace)
    _, result = run_worker(spec, work)
    fail_unless(result["scores_match"], "serve: /truth bodies differ from the artifact's scores", failures)
    fail_unless(result["monotonic"], "serve: /ingest generations not increasing", failures)
    fail_unless(len(result["writes"]) > 0, "serve: no /ingest completed", failures)
    fail_unless(result["accuracy"] >= ACCURACY_FLOOR, f"serve: accuracy {result['accuracy']:.4f} below floor", failures)
    reads = result["ops"]
    return {
        "runs": [(float("nan"), result)],
        "digest": result["digest"],
        "attempted": result["requests"],
        "failed": result["failed"],
        "wall": result["timed_s"] / max(result["requests"], 1),
        "read_p99_ms": percentile(reads, 0.99) * 1e3,
        "metrics": {
            "setup_s": float("nan"),
            "peak_rss_mib": result["peak_rss_mib"],
            "accuracy": result["accuracy"],
            "items_per_s": result["requests"] / result["timed_s"],
            "op_p50_ms": median(reads) * 1e3,
            "write_p50_ms": median(result["writes"]) * 1e3,
        },
    }


def serve_setup(inputs: dict, work: Path, probes: int) -> float:
    times = []
    for _ in range(probes):
        server = ServeProcess(Path(inputs["artifact"]), work)
        times.append(server.setup_s)
        server.stop()
    return median(times)


def serve_rtt_ms(inputs: dict, work: Path, in_process_s: float) -> float:
    lines = Path(inputs["scores"]).read_text().splitlines()[:RTT_REQUESTS]
    targets = [f"/truth/{e}?attribute={a}" for e, a, _ in (line.split("\t") for line in lines)]
    server = ServeProcess(Path(inputs["artifact"]), work)
    try:
        return (loopback_point_p50_s(server, targets) - in_process_s) * 1e3
    finally:
        server.stop()


# -- per-layer report ---------------------------------------------------------------------
def layer_metrics(traced: dict, untraced: dict, rtt_ms: float) -> tuple[dict, dict]:
    results = [result for _, result in traced["runs"]]
    reps = sum(r.get("reps", 1) for r in results)
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for result in results:
        for name, stats in result["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "failures": 0, "busy_s": 0.0})
            for key in total:
                total[key] += stats[key]
        for name, value in result["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for layer, name in LAYER_TIME.items():
        metrics[name] = layers[layer]["busy_s"] / reps
    for layer, name in PER_CALL_US.items():
        metrics[name] = ratio(layers[layer]["busy_s"], layers[layer]["calls"]) * 1e6
    metrics["data.claims"] = counters["data.claims"] / reps
    metrics["core.gibbs.sweeps"] = counters["core.gibbs.sweeps"] / reps
    metrics["core.gibbs.ns_per_claim_sweep"] = ratio(layers["core.gibbs"]["busy_s"], counters["core.gibbs.claim_sweeps"]) * 1e9
    metrics["core.gibbs.flip_fraction"] = ratio(counters["core.gibbs.flips"], counters["core.gibbs.fact_visits"])
    metrics["store.bytes_per_triple"] = ratio(sum(r.get("db_bytes", 0) for r in results), sum(r.get("triples", 0) for r in results))
    metrics["serving.artifact.bytes"] = ratio(counters["serving.artifact.bytes"], layers["serving.artifact.save"]["calls"])
    hits, misses = counters["entity_top.hits"], counters["entity_top.misses"]
    metrics["serving.service.entity_top.hit_ratio"] = ratio(hits, hits + misses)
    metrics["api.server.rtt_ms"] = rtt_ms
    # The closed-loop clients are the benchmark's own code, not the program's.
    program_s = sum(r["timed_s"] - r.get("client_s", 0.0) for r in results)
    metrics["coverage"] = ratio(sum(r["covered_s"] for r in results), program_s)
    metrics["catch_all_share"] = ratio(sum(r["catch_all_s"] for r in results), program_s)
    metrics["trace_overhead"] = traced["wall"] / untraced["wall"] - 1.0
    return metrics, layers


# -- context ------------------------------------------------------------------------------
def source_context(fingerprint: dict) -> dict:
    sha = None  # checkouts without git metadata are identified by src_digest
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_digest": hasher.hexdigest(),
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **fingerprint,
    }


def with_units(values: dict[str, float], spec: dict[str, tuple]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in spec.items()}


def print_table(rows: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {note}")


# -- main ---------------------------------------------------------------------------------
def run(args: argparse.Namespace, work: Path) -> tuple[dict, list[str]]:
    failures: list[str] = []
    workload = args.workload
    inputs = make_inputs(workload, args.seed, args.scale, work)
    print(f"workload {workload} seed {args.seed}: {inputs['triples']} triples, input digest {inputs['digest']}")
    if workload == "serve":
        inputs = prepare_serve(args, inputs, work)

    def measure(trace: bool) -> dict:
        if workload == "serve":
            return measure_serve(args, inputs, work, trace, failures)
        return measure_batch(workload, args, inputs, work, trace, failures)

    untraced = measure(False)
    if workload == "serve":
        untraced["metrics"]["setup_s"] = serve_setup(inputs, work, SETUP_PROBES)
    fingerprint = untraced["runs"][0][1]["fingerprint"]
    print("context " + json.dumps(source_context(fingerprint), sort_keys=True))
    error_rate = untraced["failed"] / untraced["attempted"]
    print(f"end-to-end (telemetry off, {len(untraced['runs'])} measured process(es)):")
    print_table(
        [(name, untraced["metrics"][name], unit, meaning[workload]) for name, (unit, meaning) in END_TO_END.items()]
        + [("error_rate", error_rate, "ratio", f"{untraced['failed']} failed of {untraced['attempted']} attempted")]
        + ([("read_p99_ms", untraced["read_p99_ms"], "ms", "p99 read latency")] if workload == "serve" else [])
    )
    report = {"attempted": untraced["attempted"], "failed": untraced["failed"], "metrics": with_units(untraced["metrics"], END_TO_END)}
    if args.trace:
        traced = measure(True)
        fail_unless(traced["digest"] == untraced["digest"], f"{workload}: traced outputs differ from untraced", failures)
        rtt_ms = 0.0
        if workload == "serve":
            rtt_ms = serve_rtt_ms(inputs, work, traced["runs"][0][1]["point_p50_s"])
        metrics, layers = layer_metrics(traced, untraced, rtt_ms)
        if args.scale >= 1:  # fixed per-call costs weigh more on smaller corpora
            fail_unless(
                metrics["coverage"] >= COVERAGE_FLOOR,
                f"{workload}: coverage {metrics['coverage']:.4f} below {COVERAGE_FLOOR}",
                failures,
            )
        print("per-layer (traced run):")
        print(f"  {'layer':<28} {'calls':>10} {'failures':>9} {'busy_s':>12}")
        for name, stats in layers.items():
            print(f"  {name:<28} {stats['calls']:>10} {stats['failures']:>9} {stats['busy_s']:>12.6f}")
        print_table([(name, metrics[name], unit, moves) for name, (unit, moves) in PER_LAYER.items()])
        report = {"attempted": traced["attempted"], "failed": traced["failed"], "metrics": with_units(metrics, PER_LAYER)}
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("export", "stream", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (tests use a small one)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report, failures = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, **report}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
