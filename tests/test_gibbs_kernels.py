"""Sweep backends, their fallback, and the deprecated ``kernel`` aliases.

The sampler has one sweep with two backends of the same arithmetic: a C walk
compiled on first use and the pure-Python reference walk.  For the same seed
they must be *bit-identical* — same scores, final confusion counts, per-sweep
flips, checkpoint snapshots and callback truths — and both must reproduce the
golden chains frozen in ``golden_chains.json``.  The C walk caches each
claim's term per (truth, code) between flips, so a hypothesis test also
compares it with the uncached Python walk on random corpora.  Every way the
C build can fail must land on the Python walk with the same chain.
``kernel="scalar"`` and ``"blocked"`` name kernels that no longer exist; they
stay accepted (and ignored) because recorded configurations and artifacts
carry them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import gibbs_vec
from repro.core.gibbs import KERNELS, CollapsedGibbsSampler, GibbsConfig, GibbsTrace
from repro.core.gibbs_vec import KernelTables
from repro.core.model import LatentTruthModel
from repro.core.ltmpos import PositiveOnlyLTM
from repro.core.priors import LTMPriors
from repro.data.dataset import ClaimMatrix
from repro.data.records import Fact
from repro.engine import EngineConfig, ExecutionConfig, TruthEngine
from repro.exceptions import ConfigurationError
from repro.io.catalog import default_catalog

from test_gibbs_golden import CASES, CATALOG_CASES, GOLDEN, PAPER_BUDGETS, chain_digest
from test_gibbs_oracle import DEFAULT, EXTREME_CREDULOUS, EXTREME_SKEPTIC, MILD

BACKENDS = ("compiled", "python")


@pytest.fixture
def fresh_build(monkeypatch):
    """Forget the process's build attempt for the duration of one test."""
    monkeypatch.setattr(gibbs_vec, "_build_result", [])


def _under_backend(backend, monkeypatch, run):
    """Call ``run()`` with the given sweep backend forced for this process."""
    if backend == "compiled" and gibbs_vec.compiled_sweep() is None:
        pytest.skip("no working C compiler: the compiled sweep is unavailable")
    with monkeypatch.context() as patch:
        if backend == "python":
            patch.setattr(gibbs_vec, "_build_result", [None])
        return run()


def _legacy(kernel):
    """A config with a deprecated kernel alias, without the warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return GibbsConfig.paper_schedule(20, seed=13, kernel=kernel)


def _chain(claims, config, priors=None, **kwargs):
    priors = priors or LTMPriors.adaptive(claims)
    return CollapsedGibbsSampler(priors=priors, config=config).run(claims, **kwargs)


def _assert_same_chain(a, b):
    scores_a, counts_a, trace_a = a
    scores_b, counts_b, trace_b = b
    assert np.array_equal(scores_a, scores_b)
    assert np.array_equal(counts_a.counts, counts_b.counts)
    assert trace_a.flips_per_iteration == trace_b.flips_per_iteration
    assert trace_a.checkpoint_scores.keys() == trace_b.checkpoint_scores.keys()
    for key in trace_a.checkpoint_scores:
        assert np.array_equal(trace_a.checkpoint_scores[key], trace_b.checkpoint_scores[key])


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------
class TestKernelConfig:
    def test_kernel_choices_exported(self):
        assert KERNELS == ("scalar", "blocked", "auto")

    def test_default_is_auto_and_resolves_to_backend(self):
        config = GibbsConfig()
        assert config.kernel == "auto"
        assert config.resolved_kernel() in BACKENDS
        # The deprecated aliases select nothing: every config resolves alike.
        assert _legacy("scalar").resolved_kernel() == config.resolved_kernel()

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            GibbsConfig(kernel="simd")

    def test_legacy_kernels_warn(self):
        for kernel in ("scalar", "blocked"):
            with pytest.deprecated_call(match=kernel):
                GibbsConfig(kernel=kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GibbsConfig(kernel="auto")

    def test_paper_schedule_threads_kernel(self):
        with pytest.deprecated_call():
            config = GibbsConfig.paper_schedule(50, seed=3, kernel="blocked")
        assert config.kernel == "blocked"
        assert (config.iterations, config.burn_in, config.thin) == (50, 10, 2)

    def test_trace_defaults(self):
        trace = GibbsTrace()
        assert trace.kernel == "python"
        assert not hasattr(trace, "block_count")

    def test_run_reports_backend(self, paper_claims, sweep_backend):
        sampler = CollapsedGibbsSampler(config=GibbsConfig(iterations=10, burn_in=2, thin=1, seed=0))
        _, _, trace = sampler.run(paper_claims)
        assert trace.kernel == sweep_backend
        assert GibbsConfig().resolved_kernel() == sweep_backend


# ---------------------------------------------------------------------------
# Exact parity: aliases, backends and the golden chains
# ---------------------------------------------------------------------------
class TestCatalogParity:
    @pytest.mark.parametrize("key, budget", CATALOG_CASES)
    def test_blocked_matches_scalar(self, key, budget):
        # Configurations recorded under either retired kernel still run —
        # and run the golden chain.
        claims = default_catalog().create(key).to_dataset().claims
        priors = LTMPriors.adaptive(claims)
        digests = set()
        for kernel in ("scalar", "blocked"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                config = GibbsConfig.paper_schedule(budget, seed=13, kernel=kernel)
            digests.add(chain_digest(_chain(claims, config, priors)))
        assert digests == {GOLDEN[f"catalog/{key}-{budget}"]}

    @pytest.mark.parametrize("budget", PAPER_BUDGETS)
    def test_paper_schedule_budgets(self, paper_claims, budget, monkeypatch):
        config = GibbsConfig.paper_schedule(budget, seed=budget)
        runs = [
            _under_backend(backend, monkeypatch, lambda: _chain(paper_claims, config))
            for backend in BACKENDS
        ]
        assert [run[2].kernel for run in runs] == list(BACKENDS)
        _assert_same_chain(*runs)
        assert chain_digest(runs[0]) == GOLDEN[f"paper_example/budget-{budget}"]

    def test_checkpoints_and_callback_parity(self, small_movie_dataset, monkeypatch):
        claims = small_movie_dataset.claims
        config = GibbsConfig(iterations=30, burn_in=5, thin=2, seed=11)
        snapshots = {}

        def run(backend):
            seen = []

            def callback(iteration, truth):
                seen.append(truth.copy())
                truth[:] = 1 - truth  # the callback's array is a copy: harmless

            out = _chain(claims, config, checkpoints=(5, 20), callback=callback)
            snapshots[backend] = seen
            return out

        runs = [_under_backend(b, monkeypatch, lambda b=b: run(b)) for b in BACKENDS]
        _assert_same_chain(*runs)
        assert sorted(runs[0][2].checkpoint_scores) == [5, 20]
        assert len(snapshots["compiled"]) == len(snapshots["python"]) == 30
        for a, b in zip(snapshots["compiled"], snapshots["python"]):
            assert np.array_equal(a, b)
        assert chain_digest(runs[0], snapshots["compiled"]) == GOLDEN["movies_small/checkpoints-callback"]

    def test_initial_truth_parity(self, paper_claims, monkeypatch):
        initial = np.ones(paper_claims.num_facts, dtype=np.int64)
        config = GibbsConfig(iterations=20, burn_in=4, thin=1, seed=5)
        runs = [
            _under_backend(
                backend,
                monkeypatch,
                lambda: CollapsedGibbsSampler(config=config).run(paper_claims, initial_truth=initial),
            )
            for backend in BACKENDS
        ]
        _assert_same_chain(*runs)
        assert chain_digest(runs[0]) == GOLDEN["paper_example/initial-truth"]
        assert np.array_equal(initial, np.ones(paper_claims.num_facts))  # not mutated


# ---------------------------------------------------------------------------
# The compiled sweep's term cache against the uncached Python walk
# ---------------------------------------------------------------------------
def _random_claims(seed: int, num_sources: int) -> ClaimMatrix:
    """Up to 80 facts; claimless facts interleave with claimed ones.

    Each source observes either both ways, only positively or only
    negatively, and with up to 60 sources over few facts many sources hold
    a single observation.
    """
    rng = np.random.default_rng(seed)
    num_facts = int(rng.integers(1, 81))
    kinds = rng.integers(0, 3, size=num_sources)  # mixed, positive only, negative only
    claim_fact, claim_source, claim_obs = [], [], []
    for fact in range(num_facts):
        degree = int(rng.integers(0, min(num_sources, 8) + 1))
        for source in rng.choice(num_sources, size=degree, replace=False).tolist():
            mixed = bool(rng.random() < 0.6)
            claim_fact.append(fact)
            claim_source.append(source)
            claim_obs.append({0: mixed, 1: True, 2: False}[int(kinds[source])])
    return ClaimMatrix(
        facts=[Fact(f, f"e{f // 3}", f"v{f}") for f in range(num_facts)],
        source_names=[f"s{s}" for s in range(num_sources)],
        claim_fact=claim_fact,
        claim_source=claim_source,
        claim_obs=claim_obs,
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sources=st.integers(1, 60),
    priors=st.sampled_from([None, DEFAULT, MILD, EXTREME_SKEPTIC, EXTREME_CREDULOUS]),
    iterations=st.integers(1, 60),
)
def test_cached_compiled_walk_matches_python_walk(seed, num_sources, priors, iterations):
    # The C sweep reads each claim's term from a per-(truth, code) cache it
    # refreshes after every flip; the Python walk evaluates every term afresh.
    # Same seed, same chain: flips per sweep, final counts and score bytes.
    if gibbs_vec.compiled_sweep() is None:
        pytest.skip("no working C compiler: the compiled sweep is unavailable")
    claims = _random_claims(seed, num_sources)
    priors = priors or LTMPriors.adaptive(claims)
    config = GibbsConfig(iterations=iterations, burn_in=iterations // 5, thin=1, seed=seed)
    runs = {}
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as patch:
            if backend == "python":
                patch.setattr(gibbs_vec, "_build_result", [None])
            runs[backend] = CollapsedGibbsSampler(priors=priors, config=config).run(claims)
    (scores_c, counts_c, trace_c), (scores_p, counts_p, trace_p) = runs["compiled"], runs["python"]
    assert (trace_c.kernel, trace_p.kernel) == BACKENDS
    assert trace_c.flips_per_iteration == trace_p.flips_per_iteration
    assert np.array_equal(counts_c.counts, counts_p.counts)
    assert scores_c.tobytes() == scores_p.tobytes()


# ---------------------------------------------------------------------------
# Building the compiled backend, and falling back
# ---------------------------------------------------------------------------
class TestBackendFallback:
    CASE = "catalog/books_small-100"

    def _assert_python_golden(self):
        assert gibbs_vec.compiled_sweep() is None
        assert GibbsConfig().resolved_kernel() == "python"
        trace = CollapsedGibbsSampler(config=GibbsConfig(iterations=5, burn_in=1)).run(
            default_catalog().create("paper_example").to_dataset().claims
        )[2]
        assert trace.kernel == "python"
        assert CASES[self.CASE]() == GOLDEN[self.CASE]

    def test_no_compiler_falls_back(self, fresh_build, monkeypatch):
        monkeypatch.setattr(gibbs_vec.shutil, "which", lambda name: None)
        assert GibbsConfig().resolved_kernel() == "python"
        self._assert_python_golden()

    def test_failed_compile_falls_back(self, fresh_build, monkeypatch):
        calls = []

        def failing_run(args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 1, b"", b"error: no")

        monkeypatch.setattr(gibbs_vec.subprocess, "run", failing_run)
        self._assert_python_golden()
        assert len(calls) == 1  # the failure is remembered, not retried

    def test_failed_load_falls_back(self, fresh_build, monkeypatch):
        def failing_load(path):
            raise OSError("cannot load")

        monkeypatch.setattr(gibbs_vec.ctypes, "CDLL", failing_load)
        self._assert_python_golden()

    def test_missing_symbol_falls_back(self, fresh_build, monkeypatch):
        monkeypatch.setattr(gibbs_vec.ctypes, "CDLL", lambda path: object())
        self._assert_python_golden()

    def test_build_flags_keep_ieee_arithmetic(self):
        assert "-ffp-contract=off" in gibbs_vec._CFLAGS
        for flag in ("-ffast-math", "-Ofast", "-march=native"):
            assert flag not in gibbs_vec._CFLAGS

    def test_build_once_under_threads_and_cleans_up(self, fresh_build, monkeypatch):
        if gibbs_vec._find_compiler() is None:
            pytest.skip("no C compiler")
        builds, dirs = [], []
        real_build, real_mkdtemp = gibbs_vec._build, gibbs_vec.tempfile.mkdtemp
        monkeypatch.setattr(gibbs_vec, "_build", lambda: builds.append(1) or real_build())
        monkeypatch.setattr(
            gibbs_vec.tempfile, "mkdtemp", lambda **kw: dirs.append(real_mkdtemp(**kw)) or dirs[-1]
        )
        claims = default_catalog().create("paper_example").to_dataset().claims
        kernels = []

        def fit():
            config = GibbsConfig(iterations=5, burn_in=1, seed=1)
            kernels.append(CollapsedGibbsSampler(config=config).run(claims)[2].kernel)

        threads = [threading.Thread(target=fit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(builds) == 1 and len(dirs) == 1
        assert kernels == ["compiled"] * 4
        assert not os.path.exists(dirs[0])

    def test_import_does_not_build(self):
        code = (
            "import repro, repro.core.gibbs_vec as g; "
            "assert g._build_result == [], g._build_result; "
            "print(repro.core.GibbsConfig().resolved_kernel())"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() in BACKENDS


# ---------------------------------------------------------------------------
# Kernel tables
# ---------------------------------------------------------------------------
class TestKernelTables:
    def test_threshold_rule_matches_sigmoid_rule(self):
        # "u < 1 / (1 + exp(delta))" and "delta < log((1 - u) / u)" are the
        # same decision; the tables evaluate the latter so each sweep costs
        # one whole-array log instead of a per-fact exp.
        rng = np.random.default_rng(0)
        uniforms = rng.random(1000)
        deltas = rng.normal(scale=30.0, size=1000)
        thresholds = KernelTables.switch_thresholds(uniforms)
        old_rule = uniforms < 1.0 / (1.0 + np.exp(deltas))
        new_rule = deltas < thresholds
        assert np.array_equal(old_rule, new_rule)

    def test_zero_uniform_always_flips(self):
        thresholds = KernelTables.switch_thresholds(np.array([0.0, 0.5]))
        assert thresholds[0] == np.inf
        assert thresholds[1] == pytest.approx(0.0)

    def test_table_entries_are_log_counts_plus_alpha(self, paper_claims):
        priors = LTMPriors.adaptive(paper_claims)
        tables = KernelTables(paper_claims, priors)
        alpha = priors.alpha_array(paper_claims.source_names)
        # Source 0's (t=0, o=0) sub-table starts at offset 0: entry m must be
        # log(m + alpha[0, 0, 0]).
        d0 = int(paper_claims.claim_counts_per_source()[0])
        expected = np.log(np.arange(d0 + 1) + alpha[0, 0, 0])
        assert np.array_equal(tables.log_num[: d0 + 1], expected)
        assert tables.delta_log_beta[0] == -tables.delta_log_beta[1]
        # The index bases live per code (2 * source + obs) in one (2, 4, 2S)
        # block, and every claim reaches its bases through its code.
        assert tables.code_index.shape == (2, 4, 2 * paper_claims.num_sources)
        assert np.array_equal(
            tables.claim_code, 2 * paper_claims.claim_source + paper_claims.claim_obs
        )
        count_idx = tables.code_index[1][:, tables.claim_code][1]
        assert np.array_equal(
            count_idx, (paper_claims.claim_source * 2 + 1) * 2 + paper_claims.claim_obs
        )


# ---------------------------------------------------------------------------
# Model / engine / CLI integration
# ---------------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestKernelIntegration:
    def test_latent_truth_model_kernel_parity(self, small_book_dataset):
        claims = small_book_dataset.claims
        results = {
            kernel: LatentTruthModel(iterations=30, seed=4, kernel=kernel).fit(claims)
            for kernel in KERNELS
        }
        assert np.array_equal(results["scalar"].scores, results["blocked"].scores)
        assert np.array_equal(results["auto"].scores, results["blocked"].scores)
        assert results["blocked"].extras["trace"].kernel == GibbsConfig().resolved_kernel()

    def test_positive_only_ltm_forwards_kernel(self, paper_claims):
        results = {
            kernel: PositiveOnlyLTM(iterations=30, seed=4, kernel=kernel).fit(paper_claims)
            for kernel in ("scalar", "blocked")
        }
        assert np.array_equal(results["scalar"].scores, results["blocked"].scores)

    def test_engine_params_reach_sampler_and_artifact(self, tmp_path):
        engine = TruthEngine(
            method="ltm", params={"iterations": 25, "seed": 11, "kernel": "blocked"}
        ).fit("paper_example")
        assert engine.last_trace.kernel in BACKENDS
        reference = TruthEngine(
            method="ltm", params={"iterations": 25, "seed": 11, "kernel": "scalar"}
        ).fit("paper_example")
        assert np.array_equal(engine.result().scores, reference.result().scores)
        # The recorded (deprecated) kernel survives the artifact round-trip.
        path = engine.save(tmp_path / "artifact")
        loaded = TruthEngine.load(path)
        assert loaded.config.params["kernel"] == "blocked"

    def test_sharded_execution_kernel_parity(self):
        def sharded(kernel):
            engine = TruthEngine(
                EngineConfig(
                    method="ltm",
                    params={"iterations": 20, "seed": 6, "kernel": kernel},
                    execution=ExecutionConfig(num_shards=3, backend="serial"),
                )
            )
            return engine.fit("movies_small")

        scalar, blocked = sharded("scalar"), sharded("blocked")
        scores = scalar.fact_scores
        assert all(
            scores[key] == value for key, value in blocked.fact_scores.items()
        )

    def test_fit_span_reports_kernel(self):
        obs.reset()
        try:
            tracer = obs.configure()
            TruthEngine(method="ltm", iterations=20, seed=7).fit("paper_example")
            fit = [s for s in tracer.collector.spans if s["name"] == "fit"][0]
            assert fit["attributes"]["kernel"] == GibbsConfig().resolved_kernel()
            assert "block_count" not in fit["attributes"]
        finally:
            obs.reset()

    def test_cli_kernel_artifacts_byte_identical(self, tmp_path, capsys):
        # The CI smoke in miniature: export paper_example under every
        # accepted kernel value and require byte-identical artifact scores.
        from repro.cli import main

        for kernel in KERNELS:
            code = main(
                [
                    "export",
                    "paper_example",
                    str(tmp_path / kernel),
                    "--iterations",
                    "30",
                    "--seed",
                    "7",
                    "--kernel",
                    kernel,
                ]
            )
            assert code == 0
        capsys.readouterr()
        scores = {
            np.load(tmp_path / kernel / "arrays.npz")["fact_score"].tobytes() for kernel in KERNELS
        }
        assert len(scores) == 1

    def test_obs_summary_prints_kernel(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "integrate",
                    "--source",
                    "paper_example",
                    "--iterations",
                    "20",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert f"kernel={GibbsConfig().resolved_kernel()}" in out
        assert "block_count=" not in out
