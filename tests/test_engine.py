"""Tests for the unified engine API: registry, config, facade and discover."""

import numpy as np
import pytest

import repro
from repro import EngineConfig, TruthEngine, default_registry, discover
from repro.baselines import Voting
from repro.core.model import LatentTruthModel
from repro.data.claim_builder import build_claim_matrix
from repro.engine.registry import MethodRegistry, MethodSpec
from repro.exceptions import ConfigurationError, DataModelError, NotFittedError, StreamError
from repro.io import as_source
from repro.pipeline import run_integration
from repro.streaming import ClaimStream
from repro.types import Triple


def _triples_for(num_entities: int, good_sources: int = 5) -> list[Triple]:
    triples = []
    for e in range(num_entities):
        for s in range(good_sources):
            triples.append(Triple(f"e{e}", f"true_{e}", f"good{s}"))
        triples.append(Triple(f"e{e}", f"junk_{e}", "spammer"))
    return triples


class TestMethodRegistry:
    def test_default_registry_covers_all_solver_families(self):
        registry = default_registry()
        for key in ("ltm", "ltm_inc", "ltm_pos", "voting", "truthfinder",
                    "hub_authority", "avg_log", "investment", "pooled_investment",
                    "three_estimates", "gaussian_ltm", "multi_attribute"):
            assert key in registry

    def test_alias_resolution_is_case_and_separator_insensitive(self):
        registry = default_registry()
        for name in ("LTM", "ltm", "Latent-Truth-Model"):
            assert registry.resolve(name) == "ltm"
        assert registry.resolve("3-Estimates") == "three_estimates"
        assert registry.resolve("LTMpos") == "ltm_pos"

    def test_unknown_method_raises_configuration_error(self):
        registry = default_registry()
        with pytest.raises(ConfigurationError, match="unknown method"):
            registry.create("no-such-method")
        assert "no_such_method" not in registry

    def test_metadata_flags(self):
        registry = default_registry()
        ltm = registry.spec("ltm")
        assert ltm.supports_incremental and ltm.supports_quality and ltm.claim_based
        voting = registry.spec("voting")
        assert not voting.supports_incremental and not voting.supports_quality
        gaussian = registry.spec("gaussian_ltm")
        assert not gaussian.claim_based and gaussian.output_range == "real"
        inc = registry.spec("ltm_inc")
        assert inc.requires_quality
        assert set(ltm.metadata()) >= {"key", "summary", "supports_incremental",
                                       "supports_quality", "output_range"}

    def test_duplicate_registration_rejected(self):
        registry = MethodRegistry()
        registry.register_method("m", Voting, "a method")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register_method("m", Voting, "again")

    def test_create_builds_configured_instances(self):
        model = default_registry().create("ltm", iterations=7, seed=3)
        assert isinstance(model, LatentTruthModel)
        assert model.config.iterations == 7

    def test_alias_colliding_with_canonical_key_rejected(self):
        registry = MethodRegistry()
        registry.register_method("voting", Voting, "a method")
        with pytest.raises(ConfigurationError, match="collides"):
            registry.register_method("other", Voting, "x", aliases=("voting",))

    def test_private_registry_is_isolated(self):
        registry = MethodRegistry()
        registry.register(MethodSpec(key="only", factory=Voting, summary="x"))
        assert registry.names() == ["only"]
        assert "ltm" not in registry


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(threshold=1.5)
        with pytest.raises(ConfigurationError):
            EngineConfig(retrain_every=-1)
        with pytest.raises(ConfigurationError):
            EngineConfig(method="")

    def test_round_trip_and_overrides(self):
        config = EngineConfig(method="voting", params={"a": 1}, threshold=0.7)
        assert EngineConfig.from_dict(config.to_dict()) == config
        assert config.with_overrides(threshold=0.2).threshold == 0.2
        assert config.with_params(b=2).params == {"a": 1, "b": 2}

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict({"method": "ltm", "tresh": 0.5})


class TestTruthEngine:
    def test_fit_predict_quality_lifecycle(self, paper_triples):
        engine = TruthEngine(method="ltm", params={"iterations": 40, "seed": 0})
        assert not engine.is_fitted
        engine.fit(paper_triples)
        assert engine.is_fitted
        scores = engine.predict_proba()
        assert scores.shape == (5,)
        quality = engine.quality_report()
        assert quality.num_sources == 4
        assert "Harry Potter" in engine.merged_records()

    def test_unfitted_engine_raises(self):
        engine = TruthEngine(method="voting")
        with pytest.raises(NotFittedError):
            engine.result()
        with pytest.raises(NotFittedError):
            engine.quality_report()
        with pytest.raises(NotFittedError):
            engine.predict_proba()

    def test_unknown_method_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown method"):
            TruthEngine(method="nope")

    def test_non_claim_based_method_rejected_at_fit(self, paper_triples):
        engine = TruthEngine(method="gaussian_ltm")
        with pytest.raises(ConfigurationError, match="cannot be driven"):
            engine.fit(paper_triples)

    def test_predict_proba_on_new_data_uses_learned_quality(self, paper_triples):
        engine = TruthEngine(method="ltm", params={"iterations": 40, "seed": 0})
        engine.fit(paper_triples)
        scores = engine.predict_proba([("New Movie", "Someone", "IMDB")])
        assert scores.shape == (1,)
        assert 0.0 <= float(scores[0]) <= 1.0

    def test_predict_proba_new_data_without_quality_raises(self, paper_triples):
        engine = TruthEngine(method="voting")
        engine.fit(paper_triples)
        with pytest.raises(NotFittedError, match="source quality"):
            engine.predict_proba([("New Movie", "Someone", "IMDB")])

    def test_quality_requiring_method_without_quality_raises(self, paper_claims):
        engine = TruthEngine(method="ltm_inc")
        with pytest.raises(ConfigurationError, match="previously learned source quality"):
            engine.fit(paper_claims)

    def test_threshold_governs_merged_records(self, paper_triples):
        engine = TruthEngine(method="voting", threshold=0.9)
        engine.fit(paper_triples)
        strict = engine.merged_records()
        lenient = engine.merged_records(threshold=0.3)
        assert sum(map(len, strict.values())) <= sum(map(len, lenient.values()))

    def test_solver_instance_bypasses_registry(self, paper_claims):
        solver = LatentTruthModel(iterations=30, seed=0)
        engine = TruthEngine(solver=solver)
        engine.fit(paper_claims)
        assert engine.result().method == "LTM"

    def test_non_truthmethod_solver_rejected(self):
        with pytest.raises(ConfigurationError, match="TruthMethod"):
            TruthEngine(solver=object())

    def test_ingest_then_fit(self, paper_triples):
        engine = TruthEngine(method="voting")
        assert engine.ingest(paper_triples) == len(paper_triples)
        assert engine.ingest(paper_triples) == 0  # duplicates dropped
        engine.fit()
        assert engine.result().num_facts == 5

    def test_partial_fit_accepts_raw_triples(self):
        engine = TruthEngine(method="ltm", params={"iterations": 15, "seed": 1},
                             retrain_every=1)
        engine.partial_fit(_triples_for(4))
        assert engine.last_report is not None
        assert engine.last_report.retrained
        assert engine.quality_report().num_sources == 6

    def test_fit_with_data_is_a_fresh_fit(self, paper_triples):
        engine = TruthEngine(method="voting")
        engine.fit(_triples_for(3))
        engine.fit(paper_triples)
        # Scores of the first corpus are gone: fit(data) resets state.
        assert engine.result().num_facts == 5
        assert all(entity.startswith(("Harry", "Pirates")) for entity in engine.merged_records())
        direct = default_registry().create("voting").fit(build_claim_matrix(paper_triples))
        np.testing.assert_array_equal(engine.predict_proba(), direct.scores)

    def test_fit_none_keeps_accumulating(self, paper_triples):
        engine = TruthEngine(method="voting")
        engine.ingest(_triples_for(2))
        engine.fit()
        first = engine.result().num_facts
        engine.ingest(paper_triples)
        engine.fit()
        assert engine.result().num_facts == first + 5

    def test_engine_config_stays_live_mid_stream(self):
        engine = TruthEngine(
            method="ltm", params={"iterations": 10, "seed": 1}, retrain_every=1
        )
        for batch in ClaimStream(_triples_for(4), batch_entities=2):
            engine.partial_fit(batch)
        assert all(r.retrained for r in engine.reports)
        engine.config = engine.config.with_overrides(retrain_every=0)
        report = engine.partial_fit(
            next(iter(ClaimStream(_triples_for(6)[-12:], batch_entities=2)))
        ).last_report
        assert not report.retrained

    def test_partial_fit_empty_batch_rejected(self):
        engine = TruthEngine(method="ltm")
        with pytest.raises(StreamError):
            engine.partial_fit([])


class TestDiscover:
    @pytest.mark.parametrize(
        "method,kwargs",
        [
            ("ltm", {"iterations": 40, "seed": 0}),
            ("voting", {}),
            ("truthfinder", {}),
            ("investment", {}),
        ],
    )
    def test_discover_matches_direct_solver(self, paper_triples, method, kwargs):
        result = discover(paper_triples, method=method, **kwargs)
        direct = default_registry().create(method, **kwargs).fit(
            build_claim_matrix(paper_triples)
        )
        np.testing.assert_array_equal(result.truth_result.scores, direct.scores)

    def test_discover_matches_run_integration(self, paper_triples):
        via_discover = discover(paper_triples, method="ltm", iterations=40, seed=0)
        via_pipeline = run_integration(
            paper_triples, method=LatentTruthModel(iterations=40, seed=0)
        )
        assert via_discover.fact_scores == via_pipeline.fact_scores
        assert via_discover.merged_records == via_pipeline.merged_records
        assert via_discover.rejected_records == via_pipeline.rejected_records

    def test_discover_is_importable_from_package_root(self):
        assert repro.discover is discover
        assert "discover" in repro.__all__ and "TruthEngine" in repro.__all__

    def test_discover_unknown_method(self, paper_triples):
        with pytest.raises(ConfigurationError, match="unknown method"):
            discover(paper_triples, method="wat")

    def test_discover_keep_workspace(self, paper_triples):
        result = discover(paper_triples, method="voting", keep_workspace=True)
        assert result.workspace is not None
        assert "truths" in result.workspace


class TestStreamingParity:
    def test_partial_fit_is_reproducible(self):
        """Two identically-configured engines stream to identical state.

        Mirrors the examples/streaming_integration.py workload shape:
        bootstrap on a historical prefix, then integrate entity batches with
        periodic re-training.
        """
        triples = _triples_for(24)
        historical, future = ClaimStream.split_prefix(triples, fraction=0.4, seed=1)

        def run_stream():
            engine = TruthEngine(
                method="ltm",
                params={"iterations": 25, "seed": 11},
                retrain_every=2,
            )
            engine.ingest(historical)
            engine.fit()
            for batch in ClaimStream(
                future, batch_entities=4, shuffle_entities=True, seed=2
            ):
                engine.partial_fit(batch)
            return engine

        first, second = run_stream(), run_stream()
        assert first.fact_scores == second.fact_scores
        assert [r.retrained for r in first.reports] == [
            r.retrained for r in second.reports
        ]
        assert first.merged_records(0.5) == second.merged_records(0.5)


class TestRunIntegrationEntryPoint:
    def test_run_integration_accepts_registry_names(self, paper_triples):
        result = run_integration(paper_triples, method="voting")
        assert result.truth_result.method == "Voting"
        with pytest.raises(ConfigurationError):
            run_integration(paper_triples, method=Voting(), iterations=5)


class TestNoneFieldsAreRejected:
    """``None`` is no entity, value or source: every ingest path raises the
    same ``DataModelError``, before any state changes."""

    BAD = [("new", None, "IMDB"), ("new", "x", "Netflix")]
    MESSAGE = "attribute is None in triple \\('new', None, 'IMDB'\\)"

    def test_fit_rejects_none(self):
        with pytest.raises(DataModelError, match=self.MESSAGE):
            TruthEngine(method="voting").fit(self.BAD)

    def test_as_source_claim_matrix_rejects_none(self):
        with pytest.raises(DataModelError, match=self.MESSAGE):
            as_source(self.BAD).to_claim_matrix()
        with pytest.raises(DataModelError, match=self.MESSAGE):
            build_claim_matrix(self.BAD)

    def test_partial_fit_rejects_none_and_leaves_state_unchanged(self, paper_triples):
        engine = TruthEngine(method="ltm", params={"iterations": 10, "seed": 0})
        engine.fit(paper_triples)
        engine.partial_fit([("Pirates 4", "Keira Knightley", "IMDB")])
        scores, reports = dict(engine.fact_scores), list(engine.reports)
        history = len(engine._history)
        with pytest.raises(DataModelError, match=self.MESSAGE):
            engine.partial_fit(self.BAD)
        assert engine.fact_scores == scores
        assert ("new", "None") not in engine.fact_scores
        assert engine.reports == reports
        assert len(engine._history) == history
