"""Integration tests spanning the whole system (paper-shape assertions).

These tests reproduce, at reduced scale, the qualitative findings of the
paper's evaluation section: LTM (and LTMinc) dominate the baselines on both
simulated datasets, positive-claim-only methods over-predict, propagation
methods under-predict, LTM degrades gracefully with source quality, and the
incremental workflow carries quality forward correctly.
"""

import numpy as np
import pytest

from repro.baselines import Voting
from repro.engine.registry import method_suite
from repro.core.incremental import IncrementalLTM
from repro.core.model import LatentTruthModel
from repro.evaluation import compare_methods, evaluate_scores
from repro.evaluation.protocol import EvaluationProtocol
from repro.synth.ltm_generative import LTMGenerativeConfig, generate_ltm_dataset


@pytest.fixture(scope="module")
def book_comparison(medium_book_dataset_module):
    suite = method_suite(iterations=60, seed=0)
    return compare_methods(
        medium_book_dataset_module,
        suite,
        protocol=EvaluationProtocol(),
        include_incremental=True,
        incremental_kwargs={"iterations": 60, "seed": 0},
    )


@pytest.fixture(scope="module")
def medium_book_dataset_module():
    from repro.synth.books import BookAuthorConfig, BookAuthorSimulator

    config = BookAuthorConfig(num_books=150, num_sellers=60, labelled_books=60, seed=9)
    return BookAuthorSimulator(config).generate()


class TestTable7Shape:
    """The method ordering of paper Table 7 on the simulated book data."""

    def test_ltm_is_best(self, book_comparison):
        ranked = [name for name, _ in book_comparison.ranked_by("accuracy")]
        assert ranked[0] in {"LTM", "LTMinc"}
        assert ranked[1] in {"LTM", "LTMinc"}

    def test_ltm_beats_voting_and_three_estimates(self, book_comparison):
        ltm = book_comparison.metric("LTM", "accuracy")
        assert ltm > book_comparison.metric("Voting", "accuracy")
        assert ltm > book_comparison.metric("3-Estimates", "accuracy")

    def test_ltm_and_ltminc_close(self, book_comparison):
        assert abs(
            book_comparison.metric("LTM", "accuracy") - book_comparison.metric("LTMinc", "accuracy")
        ) < 0.1

    def test_optimistic_methods_have_full_fpr(self, book_comparison):
        for method in ("TruthFinder", "Investment", "LTMpos"):
            assert book_comparison.metric(method, "fpr") > 0.9
            assert book_comparison.metric(method, "recall") == pytest.approx(1.0)

    def test_conservative_methods_have_low_recall(self, book_comparison):
        for method in ("HubAuthority", "AvgLog", "PooledInvestment"):
            assert book_comparison.metric(method, "recall") < 0.6
            assert book_comparison.metric(method, "precision") > 0.9

    def test_voting_has_perfect_precision_but_misses_coauthors(self, book_comparison):
        assert book_comparison.metric("Voting", "precision") > 0.97
        assert book_comparison.metric("Voting", "recall") < 0.9

    def test_ltm_auc_near_one(self, book_comparison):
        assert book_comparison.metric("LTM", "auc") > 0.95


class TestFigure4Shape:
    """LTM accuracy under degraded synthetic source quality."""

    def test_accuracy_high_when_quality_high(self):
        config = LTMGenerativeConfig.with_expected_quality(
            0.9, 0.9, num_facts=400, num_sources=10, seed=0
        )
        dataset = generate_ltm_dataset(config)
        result = LatentTruthModel(iterations=50, seed=0).fit(dataset.claims)
        assert evaluate_scores(result, dataset.labels).accuracy > 0.9

    def test_low_specificity_hurts_more_than_low_sensitivity(self):
        low_sens = LTMGenerativeConfig.with_expected_quality(0.3, 0.9, num_facts=400, num_sources=10, seed=1)
        low_spec = LTMGenerativeConfig.with_expected_quality(0.9, 0.4, num_facts=400, num_sources=10, seed=1)
        acc = {}
        for name, config in (("low_sens", low_sens), ("low_spec", low_spec)):
            dataset = generate_ltm_dataset(config)
            result = LatentTruthModel(iterations=50, seed=0).fit(dataset.claims)
            acc[name] = evaluate_scores(result, dataset.labels).accuracy
        assert acc["low_sens"] > acc["low_spec"]
        assert acc["low_sens"] > 0.7


class TestIncrementalWorkflow:
    def test_quality_carryover_improves_over_cold_start(self, medium_book_dataset_module):
        dataset = medium_book_dataset_module
        training, held_out = dataset.split_labelled_entities()
        model = LatentTruthModel(iterations=60, seed=0)
        training_result = model.fit(training)

        labelled_matrix, labels, _ = dataset.label_subset_matrix()
        warm = IncrementalLTM(training_result.source_quality).fit(labelled_matrix)
        warm_acc = evaluate_scores(warm.scores, labels).accuracy

        cold_scores = Voting().fit(labelled_matrix).scores
        cold_acc = evaluate_scores(cold_scores, labels).accuracy
        assert warm_acc >= cold_acc

    def test_learned_priors_round_trip(self, medium_book_dataset_module):
        dataset = medium_book_dataset_module
        model = LatentTruthModel(iterations=40, seed=0)
        model.fit(dataset.claims)
        priors = model.learned_quality_priors(dataset.claims)
        refit = LatentTruthModel(priors=priors, iterations=40, seed=0).fit(dataset.claims)
        metrics = evaluate_scores(refit, dataset.labels)
        assert metrics.accuracy > 0.85


class TestRuntimeScaling:
    def test_gibbs_runtime_grows_roughly_linearly(self, medium_book_dataset_module):
        """Figure 6 shape: runtime against claims fits a line with high R^2."""
        from repro.evaluation.scaling import entity_subsets, runtime_scaling_study

        subsets = entity_subsets(
            medium_book_dataset_module.claims, fractions=(0.25, 0.5, 0.75, 1.0), seed=0
        )
        measurements, fit = runtime_scaling_study(
            lambda: LatentTruthModel(iterations=20, seed=0), subsets, repeats=5
        )
        assert len(measurements) == 4
        assert fit.slope > 0
        assert fit.r_squared > 0.8
