"""E7 — paper Figure 6: LTM's runtime is linear in the number of claims.

Times 100-iteration LTM fits on nested entity subsets of the movie data and
regresses runtime on the number of claims.  The paper reports an R-squared of
0.9913 for the linear fit; the exact slope depends on the machine, but the
relationship must remain strongly linear here too.

With the compiled Gibbs sweep a fit takes a few milliseconds, and on a
shared machine speed swings by ~1.5x for stretches of a few fits.  Each
point is therefore the fastest of ``REPEATS`` fits, taken round-robin over
the subsets, so a slow stretch cannot land on every fit of one point (and
the process's one-time build of the sweep never decides a point).
"""

from conftest import SEED, write_result

from repro.core.model import LatentTruthModel
from repro.evaluation.scaling import entity_subsets, runtime_scaling_study

FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
ITERATIONS = 100
REPEATS = 10


def test_fig6_runtime_linear_in_claims(benchmark, movie_dataset, results_dir):
    subsets = entity_subsets(movie_dataset.claims, fractions=FRACTIONS, seed=SEED)

    def study():
        return runtime_scaling_study(
            lambda: LatentTruthModel(iterations=ITERATIONS, seed=SEED),
            subsets,
            repeats=REPEATS,
        )

    measurements, fit = benchmark.pedantic(study, rounds=1, iterations=1)

    # Strong linearity and increasing runtimes with claim count.
    assert fit.r_squared > 0.95
    assert fit.slope > 0
    runtimes = [m["runtime_seconds"] for m in measurements]
    claims = [m["claims"] for m in measurements]
    assert runtimes == sorted(runtimes) or fit.r_squared > 0.98
    assert claims == sorted(claims)

    lines = ["Figure 6 (reproduced) — LTM runtime vs number of claims "
             f"({ITERATIONS} iterations per fit, fastest of {REPEATS})", ""]
    lines.append(f"{'claims':>10} {'entities':>10} {'runtime (s)':>14}")
    for m in measurements:
        lines.append(f"{int(m['claims']):>10d} {int(m['entities']):>10d} {m['runtime_seconds']:>14.4f}")
    lines.append("")
    lines.append(
        f"linear fit: runtime = {fit.slope:.3e} * claims + {fit.intercept:.3e}   R^2 = {fit.r_squared:.4f}"
    )
    text = "\n".join(lines) + "\n"
    write_result(results_dir, "fig6_runtime_linearity.txt", text)
    print("\n" + text)

    benchmark.extra_info["r_squared"] = fit.r_squared
    benchmark.extra_info["slope_seconds_per_claim"] = fit.slope
