"""Tests of the benchmark itself: inputs, metric names and a smoke run.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run = _load_run()
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digest(tmp_path: Path, seed: int, tag: str) -> str:
    corpus = gen.generate(seed, 300)
    (tmp_path / tag).mkdir()
    triples, labels = tmp_path / tag / "triples.tsv", tmp_path / tag / "labels.tsv"
    gen.write_triples(triples, corpus.triples)
    gen.write_labels(labels, corpus.labels)
    return gen.digest([triples, labels])


def test_generator_same_seed_same_digest(tmp_path):
    assert _digest(tmp_path, 5, "a") == _digest(tmp_path, 5, "b")


def test_generator_different_seed_different_digest(tmp_path):
    assert _digest(tmp_path, 5, "a") != _digest(tmp_path, 6, "b")


def test_generator_labels_cover_every_asserted_fact():
    corpus = gen.generate(3, 200)
    assert {(e, a) for e, a, _ in corpus.triples} == set(corpus.labels)
    assert any(corpus.labels.values()) and not all(corpus.labels.values())


def test_generator_does_not_import_the_program():
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import gen; gen.generate(1, 50); print('repro' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in CONFIG["end_to_end"]] == list(bench_run.END_TO_END)
    assert [m["name"] for m in CONFIG["per_layer"]] == list(bench_run.PER_LAYER)
    for entry in CONFIG["end_to_end"]:
        assert entry["unit"] == bench_run.END_TO_END[entry["name"]][0]
    for entry in CONFIG["per_layer"]:
        assert entry["unit"] == bench_run.PER_LAYER[entry["name"]][0]
    assert [w["name"] for w in CONFIG["workloads"]] == ["export", "stream", "serve"]


def test_metric_names_and_units_use_the_allowed_charset():
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"] + CONFIG["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in CONFIG["end_to_end"] + CONFIG["per_layer"])


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["export", "stream", "serve"])
def test_smoke_traced_run_reports_every_layer_metric(workload):
    result = _run(workload, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in CONFIG["per_layer"]]
    # Fixed per-call costs weigh more on smoke-sized corpora; full-size runs
    # are held to 0.95.
    assert result["metrics"]["coverage"]["value"] >= 0.9


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    result = _run("export", trace=0)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in CONFIG["end_to_end"]]
    assert all(metrics[name]["value"] > 0 for name in metrics)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "export", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
