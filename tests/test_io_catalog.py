"""Tests for the dataset catalog, `as_source` coercion, and — the acceptance
criterion of the `repro.io` unification — score parity: for every catalog
source, `TruthEngine.fit(source)` and streaming `partial_fit` over
`source.iter_batches(...)` must produce scores identical to a solver fitted on
the row-at-a-time reference claim matrix (`tests/claim_reference.py`)."""

import numpy as np
import pytest

from claim_reference import reference_claim_matrix

from repro.baselines.voting import Voting
from repro.core.model import LatentTruthModel
from repro.core.priors import LTMPriors
from repro.data.claim_builder import build_dataset
from repro.data.loaders import save_dataset_json, save_triples_csv
from repro.data.raw import RawDatabase
from repro.engine import EngineConfig, TruthEngine
from repro.exceptions import ConfigurationError
from repro.io import (
    DataSource,
    DatasetCatalog,
    DatasetSource,
    DatasetSpec,
    JsonDatasetSource,
    MemorySource,
    TripleFileSource,
    as_source,
    default_catalog,
)
from repro.streaming import ClaimStream
from repro.types import Triple

TRIPLES = [
    Triple("e1", "a", "s1"),
    Triple("e1", "a", "s2"),
    Triple("e1", "b", "s3"),
    Triple("e2", "c", "s1"),
    Triple("e2", "c", "s3"),
]

#: Small parameterisations so the full-catalog parity sweep stays fast.  Every
#: catalog key must appear here — a new dataset without a parity entry fails.
SMALL_PARAMS: dict[str, dict] = {
    "paper_example": {},
    "books": {"num_books": 40, "num_sellers": 15, "labelled_books": 10, "seed": 5},
    "books_small": {"seed": 5},
    "movies": {"num_movies": 80, "labelled_movies": 20, "seed": 5},
    "movies_small": {"seed": 5},
    "ltm_generative": {"num_facts": 60, "num_sources": 8, "seed": 5},
    "adversarial": {"num_movies": 80, "labelled_movies": 20, "seed": 5},
}


def _relational_table():
    """TRIPLES in a relational table (deprecated, still accepted as input)."""
    with pytest.warns(DeprecationWarning):
        from repro.store import Column, Schema, Table
    table = Table(
        "raw",
        Schema(columns=(Column("entity", object), Column("attribute", object), Column("source", object))),
    )
    for t in TRIPLES:
        table.insert({"entity": t.entity, "attribute": t.attribute, "source": t.source})
    return table


class TestDatasetCatalog:
    def test_default_catalog_keys(self):
        names = default_catalog().names()
        for key in ("paper_example", "books", "movies", "ltm_generative", "adversarial"):
            assert key in names

    def test_aliases_resolve(self):
        catalog = default_catalog()
        assert catalog.resolve("book_authors") == "books"
        assert catalog.resolve("Movie-Directors") == "movies"
        assert catalog.resolve("SYNTHETIC") == "ltm_generative"
        assert "harry_potter" in catalog

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            default_catalog().spec("no_such_dataset")

    def test_create_passes_params(self):
        source = default_catalog().create("ltm_generative", num_facts=12, num_sources=3, seed=0)
        dataset = source.to_dataset()
        assert dataset.claims.num_facts == 12
        assert dataset.claims.num_sources == 3

    def test_register_custom_dataset(self):
        catalog = DatasetCatalog()
        catalog.register_dataset(
            "mine",
            lambda: MemorySource(TRIPLES, name="mine"),
            "my triples",
            kind="memory",
            aliases=("my-data",),
        )
        assert catalog.resolve("My Data") == "mine"
        assert len(list(catalog.create("mine").iter_triples())) == len(TRIPLES)
        with pytest.raises(ConfigurationError, match="already registered"):
            catalog.register_dataset("mine", lambda: None, "dup")

    def test_spec_metadata(self):
        meta = default_catalog().spec("books").metadata()
        assert meta["key"] == "books"
        assert meta["has_labels"] is True


class TestAsSource:
    def test_datasource_passthrough(self):
        source = MemorySource(TRIPLES)
        assert as_source(source) is source
        with pytest.raises(ConfigurationError):
            as_source(source, seed=3)  # params without a catalog key

    def test_coerces_every_ingestion_style(self, tmp_path):
        tsv = tmp_path / "crawl.tsv"
        save_triples_csv(TRIPLES, tsv)
        json_path = tmp_path / "ds.json"
        save_dataset_json(build_dataset(TRIPLES), json_path)
        table = _relational_table()
        with pytest.warns(DeprecationWarning):
            from repro.io import TableSource

        assert isinstance(as_source(TRIPLES), MemorySource)
        assert isinstance(as_source(RawDatabase(TRIPLES)), MemorySource)
        assert isinstance(as_source(build_dataset(TRIPLES)), DatasetSource)
        assert isinstance(as_source(table), TableSource)
        assert isinstance(as_source(str(tsv)), TripleFileSource)
        assert isinstance(as_source(json_path), JsonDatasetSource)
        assert isinstance(as_source("books_small"), DataSource)

        for coerced in (as_source(TRIPLES), as_source(str(tsv))):
            assert sorted(t.as_tuple() for t in coerced.iter_triples()) == sorted(
                t.as_tuple() for t in TRIPLES
            )

    def test_unresolvable_inputs_rejected(self):
        with pytest.raises(ConfigurationError, match="neither a registered dataset"):
            as_source("definitely/not/a/thing")
        with pytest.raises(ConfigurationError):
            as_source(42)


class TestCatalogParity:
    """`TruthEngine.fit(source)` == a solver fitted on the reference matrix."""

    def test_every_catalog_key_has_parity_params(self):
        assert sorted(default_catalog().names()) == sorted(SMALL_PARAMS)

    @pytest.mark.parametrize("key", sorted(SMALL_PARAMS))
    def test_fit_scores_identical_to_prebuilt_path(self, key):
        source = default_catalog().create(key, **SMALL_PARAMS[key])
        triples = list(source.iter_triples())

        # The row-at-a-time reference matrix, solver fitted on it directly.
        matrix = reference_claim_matrix(triples)
        expected = Voting().fit(matrix).scores

        engine = TruthEngine(method="voting").fit(source)
        np.testing.assert_array_equal(engine.result().scores, expected)
        # Same facts, same order.
        assert [(f.entity, f.attribute) for f in engine.claims().facts] == [
            (f.entity, f.attribute) for f in matrix.facts
        ]

    @pytest.mark.parametrize("key", ["paper_example", "books_small", "ltm_generative"])
    def test_fit_scores_identical_under_sampling(self, key):
        """Gibbs-sampled LTM is bit-identical too (same matrix, same seed)."""
        source = default_catalog().create(key, **SMALL_PARAMS[key])
        triples = list(source.iter_triples())
        matrix = reference_claim_matrix(triples)
        expected = LatentTruthModel(iterations=25, seed=11).fit(matrix).scores

        engine = TruthEngine(method="ltm", iterations=25, seed=11).fit(source)
        np.testing.assert_array_equal(engine.result().scores, expected)

    @pytest.mark.parametrize("key", ["books_small", "movies_small"])
    def test_streaming_partial_fit_parity(self, key):
        """partial_fit over iter_batches == the pre-existing ClaimStream path."""
        source = default_catalog().create(key, **SMALL_PARAMS[key])
        triples = list(source.iter_triples())

        config = EngineConfig(
            method="ltm",
            params={"priors": LTMPriors(), "iterations": 10, "seed": 3},
            retrain_every=2,
        )

        via_source = TruthEngine(config)
        for batch in source.iter_batches(25, by_entity=True):
            via_source.partial_fit(batch)

        via_stream = TruthEngine(config)
        for batch in ClaimStream(triples, batch_entities=25):
            via_stream.partial_fit(batch)

        assert via_source.fact_scores == via_stream.fact_scores
        assert [r.retrained for r in via_source.reports] == [
            r.retrained for r in via_stream.reports
        ]

    def test_partial_fit_accepts_source_as_one_batch(self):
        engine = TruthEngine(method="ltm", iterations=10, seed=1)
        engine.partial_fit("paper_example")
        assert engine.last_report is not None
        assert engine.last_report.num_triples == 8

    def test_fit_accepts_catalog_key_and_predicts(self):
        engine = TruthEngine(method="ltm", iterations=15, seed=2).fit("books_small")
        assert engine.is_fitted
        scores = engine.predict_proba("paper_example")
        assert scores.shape[0] == 5

    def test_tables_and_datasets_do_not_fall_through_to_iterable_path(self):
        """A relational Table / TruthDataset must coerce, not iterate as rows."""
        from repro.pipeline.integrate import run_integration

        table = _relational_table()
        dataset = build_dataset(TRIPLES)

        expected = sorted(
            (f.entity, f.attribute) for f in build_dataset(TRIPLES).claims.facts
        )
        for data in (table, dataset):
            result = run_integration(data, method=Voting())
            assert sorted(result.fact_scores) == expected
            engine = TruthEngine(method="voting").fit(data)
            assert sorted(engine.fact_scores) == expected

    def test_engine_rejects_unknown_hyperparameters_at_construction(self):
        with pytest.raises(ConfigurationError, match="does not accept parameter"):
            TruthEngine(method="voting", seed=7)  # Voting takes no seed
        with pytest.raises(ConfigurationError, match="does not accept parameter"):
            TruthEngine(method="ltm", thresold=0.7)  # typo of threshold
        # Valid hyperparameters still route into solver params.
        engine = TruthEngine(method="ltm", iterations=25, seed=11, threshold=0.6)
        assert engine.config.params == {"iterations": 25, "seed": 11}
        assert engine.config.threshold == 0.6
