"""Kernel A/B — the Python reference walk vs the compiled sweep, Figure-6 workload.

Times `CollapsedGibbsSampler` under both sweep backends on the same
100-iteration chain and seed, requires bit-identical output, and pins the
speedup to a recorded floor of 15x.  Each backend is timed as the minimum of
a few repeats, so a one-off stall cannot decide the ratio; the compiled
sweep is built before timing starts, so the ratio compares sweeps, not the
one-time compiler run.
"""

import time

import numpy as np
import pytest

from conftest import SEED, write_result

from repro.core import gibbs_vec
from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig
from repro.core.priors import LTMPriors

ITERATIONS = 100
REPEATS = 5
# Asserted floor for the compiled sweep vs the Python walk, same seed.
SPEEDUP_FLOOR = 15.0


def _time_backend(claims, priors, monkeypatch, backend: str):
    config = GibbsConfig.paper_schedule(ITERATIONS, seed=SEED)
    best = float("inf")
    with monkeypatch.context() as patch:
        if backend == "python":
            patch.setattr(gibbs_vec, "_build_result", [None])
        for _ in range(REPEATS):
            sampler = CollapsedGibbsSampler(priors=priors, config=config)
            started = time.perf_counter()
            scores, counts, trace = sampler.run(claims)
            best = min(best, time.perf_counter() - started)
    return best, scores, counts, trace


def test_compiled_kernel_speedup(benchmark, movie_dataset, results_dir, monkeypatch):
    if gibbs_vec.compiled_sweep() is None:
        pytest.skip("no working C compiler: nothing to compare the Python walk with")
    claims = movie_dataset.claims
    priors = LTMPriors.adaptive(claims)

    def study():
        # Python first, compiled second: if anything, cache warm-up favours
        # the baseline.
        python = _time_backend(claims, priors, monkeypatch, "python")
        compiled = _time_backend(claims, priors, monkeypatch, "compiled")
        return python, compiled

    python, compiled = benchmark.pedantic(study, rounds=1, iterations=1)
    python_time, python_scores, python_counts, python_trace = python
    compiled_time, compiled_scores, compiled_counts, compiled_trace = compiled

    # Exactness before speed: the compiled sweep must reproduce the Python
    # walk's chain bit for bit.
    assert python_trace.kernel == "python" and compiled_trace.kernel == "compiled"
    assert python_scores.tobytes() == compiled_scores.tobytes()
    assert np.array_equal(python_counts.counts, compiled_counts.counts)
    assert python_trace.flips_per_iteration == compiled_trace.flips_per_iteration

    speedup = python_time / compiled_time
    sweeps = ITERATIONS * claims.num_claims
    assert speedup >= SPEEDUP_FLOOR

    lines = [
        "Gibbs kernel A/B — Python walk vs compiled sweep on the Figure-6 movie workload "
        f"({ITERATIONS} iterations, {claims.num_claims} claims, "
        f"{claims.num_facts} facts, {claims.num_sources} sources; min of {REPEATS} fits)",
        "",
        f"{'backend':<10} {'runtime (s)':>14} {'ns/claim/sweep':>16}",
        f"{'python':<10} {python_time:>14.4f} {python_time / sweeps * 1e9:>16.1f}",
        f"{'compiled':<10} {compiled_time:>14.4f} {compiled_time / sweeps * 1e9:>16.1f}",
        "",
        f"speedup compiled vs python: {speedup:.1f}x (asserted floor {SPEEDUP_FLOOR:.0f}x)",
        "scores, counts and per-sweep flips: identical",
    ]
    text = "\n".join(lines) + "\n"
    write_result(results_dir, "gibbs_kernel_speedup.txt", text)
    print("\n" + text)

    benchmark.extra_info["speedup_vs_python"] = speedup
    benchmark.extra_info["compiled_seconds"] = compiled_time
    benchmark.extra_info["python_seconds"] = python_time
