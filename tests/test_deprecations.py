"""Deprecation windows: removed shims stay gone, open windows warn, and the
canonical entry points are warning-free.

The two-PR deprecation window promised in CHANGES.md (PR 1, reiterated in
PR 2) has elapsed: ``IntegrationPipeline``, ``OnlineTruthFinder`` and the
``repro.baselines.registry`` module (``all_methods`` / ``get_method`` /
``default_method_suite``) were removed in 1.4.  These tests pin the removal —
imports fail cleanly with ``ImportError`` — and verify that the canonical
replacements neither warn nor regress.

The seed's in-memory relational engine (``repro.store.Table`` and friends),
``TableSource``, ``ClaimTableBuilder`` and ``RawDatabase.table`` are inside
their window: each still works and warns on use, and no canonical path
touches them.
"""

import importlib
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.store
from repro.data.claim_builder import build_claim_matrix
from repro.data.loaders import load_triples_csv, save_triples_csv
from repro.data.raw import RawDatabase
from repro.engine import ExecutionConfig, TruthEngine, default_registry, method_suite
from repro.io import as_source
from repro.pipeline import run_integration
from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator


TRIPLES = [
    ("e1", "a", "s1"),
    ("e1", "a", "s2"),
    ("e1", "b", "s3"),
    ("e2", "c", "s1"),
    ("e2", "c", "s3"),
]


class TestShimsAreRemoved:
    def test_baselines_registry_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.baselines.registry")

    def test_baselines_registry_names_are_gone(self):
        with pytest.raises(ImportError):
            from repro.baselines import all_methods  # noqa: F401
        with pytest.raises(ImportError):
            from repro.baselines import get_method  # noqa: F401
        with pytest.raises(ImportError):
            from repro.baselines import default_method_suite  # noqa: F401

    def test_integration_pipeline_is_gone(self):
        with pytest.raises(ImportError):
            from repro.pipeline import IntegrationPipeline  # noqa: F401
        with pytest.raises(ImportError):
            from repro.pipeline.integrate import IntegrationPipeline  # noqa: F401

    def test_online_truth_finder_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.streaming.online")
        with pytest.raises(ImportError):
            from repro.streaming import OnlineTruthFinder  # noqa: F401

    def test_package_root_no_longer_exports_shims(self):
        for name in ("IntegrationPipeline", "OnlineTruthFinder", "default_method_suite"):
            assert name not in repro.__all__
            assert not hasattr(repro, name)


class TestCanonicalReplacementsAreWarningFree:
    def test_method_suite_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            suite = method_suite(iterations=5, seed=0)
        assert len(suite) == 9

    def test_registry_resolves_legacy_display_names(self):
        registry = default_registry()
        assert registry.resolve("3-Estimates") == "three_estimates"
        assert registry.resolve("LTM") == "ltm"

    def test_run_integration_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = run_integration(TRIPLES, method="voting")
        assert result.num_accepted() >= 1

    def test_streaming_engine_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = TruthEngine(
                method="ltm", params={"iterations": 5, "seed": 0}, retrain_every=0
            )
            engine.partial_fit(TRIPLES)
        assert engine.last_report is not None

    def test_discover_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = repro.discover(TRIPLES, method="voting")
        assert result.num_accepted() >= 1


#: Deprecated ``repro.store`` names and the modules defining them.
RELATIONAL_NAMES = {
    "Column": "repro.store.schema",
    "Schema": "repro.store.schema",
    "Table": "repro.store.table",
    "HashIndex": "repro.store.index",
    "Database": "repro.store.database",
    **{
        name: "repro.store.query"
        for name in (
            "select", "project", "equi_join", "group_by", "aggregate", "order_by", "distinct"
        )
    },
}
RELATIONAL_MODULES = sorted(set(RELATIONAL_NAMES.values()))


class TestRelationalEngineWindow:
    @pytest.mark.parametrize("name", sorted(RELATIONAL_NAMES))
    def test_store_name_warns_and_still_works(self, name):
        with pytest.warns(DeprecationWarning, match=f"repro.store.{name} is deprecated"):
            value = getattr(repro.store, name)
        assert value is getattr(importlib.import_module(RELATIONAL_NAMES[name]), name)
        assert name not in repro.store.__all__

    def test_unknown_store_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'Tabel'"):
            repro.store.Tabel  # noqa: B018

    @pytest.mark.parametrize("module", ["repro", "repro.data", "repro.data.claim_builder"])
    def test_claim_table_builder_warns_and_wraps_the_bulk_builder(self, module, paper_raw):
        with pytest.warns(DeprecationWarning, match="ClaimTableBuilder is deprecated"):
            builder_cls = getattr(importlib.import_module(module), "ClaimTableBuilder")
        assert "ClaimTableBuilder" not in getattr(importlib.import_module(module), "__all__")
        builder = builder_cls(paper_raw)
        matrix = builder.build()
        expected = build_claim_matrix(paper_raw)
        assert matrix.source_names == expected.source_names
        np.testing.assert_array_equal(matrix.claim_fact, expected.claim_fact)
        np.testing.assert_array_equal(matrix.claim_source, expected.claim_source)
        np.testing.assert_array_equal(matrix.claim_obs, expected.claim_obs)
        assert builder.fact_ids[("Pirates 4", "Johnny Depp")] == 4
        facts, claims = builder.fact_table(), builder.claim_table()
        assert len(facts) == 5 and set(facts.column_names) == {"fact_id", "entity", "attribute"}
        assert len(claims) == 13 and sum(1 for row in claims if row["observation"]) == 8

    @pytest.mark.parametrize("module", ["repro.io", "repro.io.sources"])
    def test_table_source_warns_and_still_reads_tables(self, module, paper_triples):
        with pytest.warns(DeprecationWarning, match="TableSource is deprecated"):
            source_cls = getattr(importlib.import_module(module), "TableSource")
        assert "TableSource" not in getattr(importlib.import_module(module), "__all__")
        with pytest.warns(DeprecationWarning, match="RawDatabase.table is deprecated"):
            table = RawDatabase(paper_triples).table
        assert list(source_cls(table).iter_triples()) == paper_triples
        # A table passed as data still resolves, to the same source type.
        assert isinstance(as_source(table), source_cls)

    def test_raw_database_table_warns_and_still_works(self, paper_raw):
        with pytest.warns(DeprecationWarning, match="RawDatabase.table is deprecated"):
            table = paper_raw.table
        assert len(table) == len(paper_raw)
        assert table.contains_key(("Harry Potter", "Rupert Grint", "IMDB"))

    def test_importing_the_package_loads_no_relational_module(self):
        code = (
            "import sys, repro, repro.cli; from repro.store import ClaimStore; "
            "from repro.io import as_source; "
            f"print(sorted(m for m in {RELATIONAL_MODULES!r} if m in sys.modules))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src, "PATH": ""},
        )
        assert out.stdout.strip() == "[]"


def _warning_free(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return fn()


class TestCanonicalDataPathsAreWarningFree:
    """Every canonical data path runs with DeprecationWarning as an error."""

    def test_fit_and_partial_fit(self):
        engine = TruthEngine(method="ltm", params={"iterations": 5, "seed": 0}, retrain_every=1)
        _warning_free(lambda: engine.fit(TRIPLES))
        _warning_free(lambda: engine.partial_fit([("e3", "d", "s1"), ("e3", "d", "s2")]))
        assert engine.last_report.retrained

    def test_as_source_and_build_claim_matrix(self):
        matrix = _warning_free(lambda: as_source(TRIPLES).to_claim_matrix())
        raw = _warning_free(lambda: RawDatabase(TRIPLES))
        assert _warning_free(lambda: build_claim_matrix(raw)).num_claims == matrix.num_claims

    @pytest.mark.parametrize("execution", [None, ExecutionConfig(num_shards=2)])
    def test_run_integration_keeping_the_workspace(self, execution):
        result = _warning_free(
            lambda: run_integration(
                TRIPLES, method="voting", keep_workspace=True, execution=execution
            )
        )
        assert set(result.workspace) == {"raw_database", "facts", "claims", "truths"}

    def test_discover_keeping_the_workspace(self):
        result = _warning_free(
            lambda: repro.discover(TRIPLES, method="voting", keep_workspace=True)
        )
        assert result.workspace is not None

    def test_load_triples_csv(self, tmp_path):
        path = tmp_path / "triples.tsv"
        save_triples_csv(RawDatabase(TRIPLES), path)
        assert len(_warning_free(lambda: load_triples_csv(path))) == len(TRIPLES)

    def test_movie_simulator(self):
        config = MovieDirectorConfig(num_movies=40, labelled_movies=10, seed=3)
        dataset = _warning_free(lambda: MovieDirectorSimulator(config).generate())
        assert dataset.claims.num_facts > 0
