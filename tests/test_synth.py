"""Tests for the dataset generators (synthetic + simulated crawls)."""

import hashlib

import numpy as np
import pytest

from repro.evaluation.confusion import source_quality_from_truth
from repro.exceptions import ConfigurationError
from repro.synth.books import BookAuthorConfig, BookAuthorSimulator
from repro.synth.ltm_generative import (
    LTMGenerativeConfig,
    generate_ltm_dataset,
    generate_ltm_dataset_with_parameters,
)
from repro.synth.movies import PAPER_MOVIE_SOURCES, MovieDirectorConfig, MovieDirectorSimulator
from repro.synth.names import NameGenerator
from repro.synth.profiles import SourceBehaviour, SourceProfile


class TestNameGenerator:
    def test_unique_person_names(self):
        names = NameGenerator(np.random.default_rng(0))
        people = names.person_names(200)
        assert len(set(people)) == 200

    def test_unique_titles(self):
        names = NameGenerator(np.random.default_rng(0))
        titles = names.work_titles(300)
        assert len(set(titles)) == 300

    def test_misspell_changes_name(self):
        names = NameGenerator(np.random.default_rng(0))
        assert names.misspell("Alice Smith") != "Alice Smith" or True  # may replace with same char rarely
        assert names.misspell("") == "Unknown"

    def test_deterministic_given_seed(self):
        a = NameGenerator(np.random.default_rng(7)).person_names(10)
        b = NameGenerator(np.random.default_rng(7)).person_names(10)
        assert a == b

    def test_exhausted_pools_keep_their_random_stream(self):
        # 64 x 64 person names and 30 x 30 titles: both pools run out here, so
        # every retry and serial-suffix fallback draw is in the digest.
        names = NameGenerator(np.random.default_rng(0))
        drawn = names.person_names(4200) + names.work_titles(1000, prefix="")
        drawn += [names.misspell(name) for name in drawn[:200]]
        digest = hashlib.sha256("\n".join(drawn).encode("utf-8")).hexdigest()
        assert digest == "7245b11b9e6aa0053270efb1e02a3218807e7e87bca24e1aabf8de5cb2cfdde4"


class TestFrozenSimulations:
    """Simulated crawls are byte-identical to the ones the seeds always made.

    1,000 entities exhaust the 900 adjective x noun titles, so the retry
    loop and the serial-suffixed fallback are part of each digest.
    """

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("movies", "d3f4523185facaa33c0ed026154b0d6d8ec0e62917ed104e6bed2b6730fafda5"),
            ("books", "a701ad40ad3882a8c0bbdcb5844af9d6d36e9e306c61b6062d5ed249c67a4b3d"),
        ],
    )
    def test_simulate_cli_output_digest(self, kind, digest, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / f"{kind}.tsv"
        assert main(["simulate", kind, str(path), "--entities", "1000", "--seed", "11"]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSourceProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SourceProfile("s", SourceBehaviour.COMPLETE, sensitivity=1.5, false_value_rate=0, first_value_bias=1, coverage=0.5)
        with pytest.raises(ConfigurationError):
            SourceProfile("s", SourceBehaviour.COMPLETE, sensitivity=0.5, false_value_rate=-1, first_value_bias=1, coverage=0.5)

    def test_complete_profile_reports_everything(self):
        rng = np.random.default_rng(0)
        profile = SourceProfile.complete("s")
        reported = profile.reported_values(["a", "b", "c"], ["x", "y"], rng)
        # With sensitivity 0.95 reporting all three is overwhelmingly likely over many draws.
        counts = [len(profile.reported_values(["a", "b", "c"], ["x"], rng)) for _ in range(200)]
        assert np.mean(counts) > 2.5
        assert set(reported) <= {"a", "b", "c", "x", "y"}

    def test_first_value_only_profile(self):
        rng = np.random.default_rng(1)
        profile = SourceProfile.first_value_only("s")
        reports = [profile.reported_values(["first", "second", "third"], [], rng) for _ in range(200)]
        first_rate = np.mean(["first" in r for r in reports])
        second_rate = np.mean(["second" in r for r in reports])
        assert first_rate > 0.9
        assert second_rate < 0.2

    def test_noisy_profile_injects_false_values(self):
        rng = np.random.default_rng(2)
        profile = SourceProfile.noisy("s")
        pool = [f"wrong{i}" for i in range(50)]
        injected = sum(
            any(value in pool for value in profile.reported_values(["a"], pool, rng))
            for _ in range(300)
        )
        assert injected > 30

    def test_adversarial_profile_mostly_wrong(self):
        rng = np.random.default_rng(3)
        profile = SourceProfile.adversarial("s")
        pool = [f"wrong{i}" for i in range(50)]
        reports = [profile.reported_values(["a", "b"], pool, rng) for _ in range(200)]
        false_fraction = np.mean(
            [np.mean([v in pool for v in r]) if r else 0.0 for r in reports]
        )
        assert false_fraction > 0.5

    def test_coverage_probability(self):
        rng = np.random.default_rng(4)
        profile = SourceProfile.complete("s", coverage=0.2)
        covers = np.mean([profile.covers(rng) for _ in range(2000)])
        assert covers == pytest.approx(0.2, abs=0.05)


class TestLTMGenerative:
    def test_scale_matches_config(self):
        config = LTMGenerativeConfig(num_facts=100, num_sources=5, seed=1)
        dataset = generate_ltm_dataset(config)
        assert dataset.claims.num_facts == 100
        assert dataset.claims.num_sources == 5
        assert dataset.claims.num_claims == 500
        assert dataset.num_labelled == 100

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LTMGenerativeConfig(num_facts=0)
        with pytest.raises(ConfigurationError):
            LTMGenerativeConfig(alpha0=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            LTMGenerativeConfig(facts_per_entity=0)

    def test_with_expected_quality(self):
        config = LTMGenerativeConfig.with_expected_quality(0.3, 0.9, strength=100.0, num_facts=50, num_sources=3, seed=0)
        assert config.alpha1 == pytest.approx((30.0, 70.0))
        assert config.alpha0 == pytest.approx((10.0, 90.0))
        with pytest.raises(ConfigurationError):
            LTMGenerativeConfig.with_expected_quality(0.0, 0.5)

    def test_parameters_returned_and_consistent(self, small_synthetic):
        dataset, params = small_synthetic
        assert params["sensitivity"].shape == (dataset.claims.num_sources,)
        assert params["truth"].shape == (dataset.claims.num_facts,)
        # Labels must equal the sampled truth.
        for fact_id, label in dataset.labels.items():
            assert label == bool(params["truth"][fact_id])

    def test_observed_quality_tracks_parameters(self, small_synthetic):
        dataset, params = small_synthetic
        observed = source_quality_from_truth(dataset.claims, dataset.labels)
        corr = np.corrcoef(params["sensitivity"], observed.sensitivity)[0, 1]
        assert corr > 0.7

    def test_reproducible(self):
        config = LTMGenerativeConfig(num_facts=50, num_sources=4, seed=9)
        a = generate_ltm_dataset(config)
        b = generate_ltm_dataset(config)
        assert np.array_equal(a.claims.claim_obs, b.claims.claim_obs)


class TestBookSimulator:
    def test_scale_and_labels(self, small_book_dataset):
        summary = small_book_dataset.summary()
        assert summary["entities"] == 60
        assert summary["labelled_entities"] == 30
        assert summary["claims"] > summary["facts"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BookAuthorConfig(num_books=0)
        with pytest.raises(ConfigurationError):
            BookAuthorConfig(labelled_books=0)
        with pytest.raises(ConfigurationError):
            BookAuthorConfig(num_books=10, labelled_books=20)
        with pytest.raises(ConfigurationError):
            BookAuthorConfig(first_author_only_fraction=0.6, complete_fraction=0.3, noisy_fraction=0.3)
        with pytest.raises(ConfigurationError):
            BookAuthorConfig(sellers_per_book=0.0)

    def test_multi_valued_attribute(self, small_book_dataset):
        groups = small_book_dataset.claims.entity_groups
        assert any(len(fact_ids) > 1 for fact_ids in groups.values())

    def test_labels_cover_true_and_false_facts(self, medium_book_dataset):
        values = list(medium_book_dataset.labels.values())
        assert any(values) and not all(values)

    def test_paper_scale_config(self):
        config = BookAuthorConfig.paper_scale()
        assert config.num_books == 1263
        assert config.num_sellers == 879

    def test_reproducible(self):
        a = BookAuthorSimulator(BookAuthorConfig.small(seed=2)).generate()
        b = BookAuthorSimulator(BookAuthorConfig.small(seed=2)).generate()
        assert a.claims.num_claims == b.claims.num_claims
        assert a.labels == b.labels

    def test_first_author_bias_creates_false_negatives(self, medium_book_dataset):
        """Primary authors must be much better covered than co-authors."""
        claims = medium_book_dataset.claims
        positives = claims.positive_counts_per_fact()
        primary, secondary = [], []
        for entity, fact_ids in claims.entity_groups.items():
            true_ids = [f for f in fact_ids if medium_book_dataset.labels.get(f)]
            if len(true_ids) >= 2:
                counted = sorted(true_ids, key=lambda f: -positives[f])
                primary.append(positives[counted[0]])
                secondary.extend(positives[counted[1:]])
        if primary and secondary:
            assert np.mean(primary) > np.mean(secondary)


class TestMovieSimulator:
    def test_sources_are_paper_table8(self, small_movie_dataset):
        assert set(small_movie_dataset.claims.source_names) <= set(PAPER_MOVIE_SOURCES)

    def test_conflicting_filter(self, small_movie_dataset):
        claims = small_movie_dataset.claims
        for entity, fact_ids in claims.entity_groups.items():
            sources = set()
            for fact_id in fact_ids:
                sources.update(claims.positive_sources_of(fact_id).tolist())
            assert len(fact_ids) > 1
            assert len(sources) > 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MovieDirectorConfig(num_movies=0)
        with pytest.raises(ConfigurationError):
            MovieDirectorConfig(coverage=0.0)
        with pytest.raises(ConfigurationError):
            MovieDirectorConfig(decoy_affinity=2.0)

    def test_labels_cover_true_and_false_facts(self, small_movie_dataset):
        values = list(small_movie_dataset.labels.values())
        assert any(values) and not all(values)

    def test_paper_scale_config(self):
        assert MovieDirectorConfig.paper_scale().num_movies == 15073

    def test_source_quality_ordering_recoverable(self):
        """On a larger sample the generated data preserves Table 8's ordering:
        imdb more sensitive than fandango, and amg the least specific."""
        dataset = MovieDirectorSimulator(MovieDirectorConfig(num_movies=800, seed=13)).generate()
        quality = source_quality_from_truth(dataset.claims, dataset.labels)
        names = list(quality.source_names)
        if "imdb" in names and "fandango" in names:
            assert quality.sensitivity[names.index("imdb")] > quality.sensitivity[names.index("fandango")]
        if "amg" in names:
            amg_spec = quality.specificity[names.index("amg")]
            assert amg_spec <= np.median(quality.specificity) + 1e-9

    def test_reproducible(self):
        a = MovieDirectorSimulator(MovieDirectorConfig.small(seed=4)).generate()
        b = MovieDirectorSimulator(MovieDirectorConfig.small(seed=4)).generate()
        assert a.claims.num_claims == b.claims.num_claims
