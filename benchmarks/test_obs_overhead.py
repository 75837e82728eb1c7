"""E12 — telemetry overhead: the disabled path costs <2% of a Figure-6 fit.

Telemetry must be free when off.  The disabled path a fit pays is a handful
of no-op primitives: the ``fit`` and ``claims.build`` spans through the noop
tracer, a few ``get_tracer()`` resolutions, one ``tracer.enabled`` guard per
Gibbs sweep and the always-on metric observations at fit completion.  This
benchmark micro-times each primitive, scales it by its per-fit call count on
the Figure-6 movie workload (100-iteration LTM), and asserts the modelled
disabled-path overhead stays under 2% of the measured fit time.  An
enabled-vs-disabled A/B timing of the same fit is recorded alongside for
reference.
"""

from __future__ import annotations

import time
import timeit

from conftest import SEED, write_result

from repro import obs
from repro.engine import TruthEngine
from repro.obs import NOOP_TRACER
from repro.obs.metrics import EngineMetrics, MetricsRegistry

ITERATIONS = 100
SPANS = 2  # fit, claims.build
TRACER_LOOKUPS = 4
OVERHEAD_BUDGET = 0.02


def _timed_fit(claims, telemetry: bool) -> float:
    obs.reset()
    if telemetry:
        obs.configure()
    engine = TruthEngine(method="ltm", iterations=ITERATIONS, seed=SEED)
    started = time.perf_counter()
    engine.fit(claims)
    elapsed = time.perf_counter() - started
    obs.reset()
    return elapsed


def _per_call(stmt, number: int = 20000) -> float:
    return timeit.timeit(stmt, number=number) / number


def test_disabled_telemetry_overhead_under_budget(benchmark, movie_dataset, results_dir):
    claims = movie_dataset.claims

    def measure():
        _timed_fit(claims, telemetry=False)  # warm-up: JIT-free but cache/alloc warm
        disabled = _timed_fit(claims, telemetry=False)
        enabled = _timed_fit(claims, telemetry=True)
        return disabled, enabled

    disabled_s, enabled_s = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Micro-costs of every primitive the disabled path touches.
    def noop_span():
        with NOOP_TRACER.span("fit", method="ltm", backend="serial"):
            pass

    registry = MetricsRegistry()
    metrics = EngineMetrics(registry)
    span_cost = _per_call(noop_span)
    get_tracer_cost = _per_call(obs.get_tracer)
    guard_cost = _per_call(lambda: NOOP_TRACER.enabled)
    counter_cost = _per_call(lambda: metrics.fits_total.inc(method="ltm", mode="batch"))
    histogram_cost = _per_call(
        lambda: metrics.fit_seconds.observe(0.01, method="ltm", backend="serial")
    )

    # Per-fit call counts on the serial path: the fit span and its
    # claims.build child, ~4 tracer resolutions (facade, sampler, metrics
    # helper, solver), one enabled guard per Gibbs sweep plus the
    # claims.build attribute guard, and the fit-completion metric writes
    # (2 counters + 3 histogram observations + span attribute no-ops).
    modelled = (
        SPANS * span_cost
        + TRACER_LOOKUPS * get_tracer_cost
        + (ITERATIONS + 1) * guard_cost
        + 2 * counter_cost
        + 3 * histogram_cost
    )
    overhead_fraction = modelled / disabled_s
    ab_delta = (enabled_s - disabled_s) / disabled_s

    assert overhead_fraction < OVERHEAD_BUDGET

    lines = [
        "Telemetry overhead — 100-iteration LTM fit on the Figure-6 movie workload",
        "",
        f"fit time, telemetry disabled: {disabled_s:.3f} s",
        f"fit time, telemetry enabled:  {enabled_s:.3f} s  "
        f"(A/B delta {100 * ab_delta:+.2f}%)",
        "",
        "disabled-path primitives (micro-timed):",
        f"  noop span enter/exit:   {1e9 * span_cost:>8.1f} ns  x {SPANS} per fit",
        f"  get_tracer():           {1e9 * get_tracer_cost:>8.1f} ns  x {TRACER_LOOKUPS} per fit",
        f"  tracer.enabled guard:   {1e9 * guard_cost:>8.1f} ns  x {ITERATIONS + 1} per fit",
        f"  counter inc:            {1e9 * counter_cost:>8.1f} ns  x 2 per fit",
        f"  histogram observe:      {1e9 * histogram_cost:>8.1f} ns  x 3 per fit",
        "",
        f"modelled disabled-path cost: {1e6 * modelled:.1f} us per fit "
        f"= {100 * overhead_fraction:.4f}% of fit time (budget {100 * OVERHEAD_BUDGET:.0f}%)",
    ]
    text = "\n".join(lines) + "\n"
    write_result(results_dir, "obs_overhead.txt", text)
    print("\n" + text)

    benchmark.extra_info["overhead_fraction"] = overhead_fraction
    benchmark.extra_info["ab_delta"] = ab_delta
