"""Shared fixtures: the paper's worked example and small simulated datasets."""

from __future__ import annotations

import pytest

from repro.data.claim_builder import build_claim_matrix, build_dataset
from repro.data.raw import RawDatabase
from repro.synth.books import BookAuthorConfig, BookAuthorSimulator
from repro.synth.ltm_generative import LTMGenerativeConfig, generate_ltm_dataset_with_parameters
from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator
from repro.types import Triple

# ---------------------------------------------------------------------------
# The worked example of paper Tables 1-4 (Harry Potter cast).
# ---------------------------------------------------------------------------
PAPER_EXAMPLE_TRIPLES = [
    Triple("Harry Potter", "Daniel Radcliffe", "IMDB"),
    Triple("Harry Potter", "Emma Watson", "IMDB"),
    Triple("Harry Potter", "Rupert Grint", "IMDB"),
    Triple("Harry Potter", "Daniel Radcliffe", "Netflix"),
    Triple("Harry Potter", "Daniel Radcliffe", "BadSource.com"),
    Triple("Harry Potter", "Emma Watson", "BadSource.com"),
    Triple("Harry Potter", "Johnny Depp", "BadSource.com"),
    Triple("Pirates 4", "Johnny Depp", "Hulu.com"),
]

PAPER_EXAMPLE_TRUTH = {
    ("Harry Potter", "Daniel Radcliffe"): True,
    ("Harry Potter", "Emma Watson"): True,
    ("Harry Potter", "Rupert Grint"): True,
    ("Harry Potter", "Johnny Depp"): False,
    ("Pirates 4", "Johnny Depp"): True,
}


@pytest.fixture
def paper_triples() -> list[Triple]:
    """The raw database of paper Table 1."""
    return list(PAPER_EXAMPLE_TRIPLES)


@pytest.fixture
def paper_raw(paper_triples) -> RawDatabase:
    """Table 1 as a RawDatabase."""
    return RawDatabase(paper_triples)


@pytest.fixture
def paper_claims(paper_raw):
    """The claim matrix of paper Table 3."""
    return build_claim_matrix(paper_raw)


@pytest.fixture
def paper_dataset(paper_triples):
    """The paper example as a fully-labelled TruthDataset (Tables 1-4)."""
    return build_dataset(paper_triples, truth=PAPER_EXAMPLE_TRUTH, name="paper-example")


# ---------------------------------------------------------------------------
# Small simulated datasets (session-scoped: they are deterministic and reused).
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def small_book_dataset():
    """A small simulated book-author dataset with full behaviour diversity."""
    return BookAuthorSimulator(BookAuthorConfig.small(seed=5)).generate()


@pytest.fixture(scope="session")
def small_movie_dataset():
    """A small simulated movie-director dataset using the paper's 12 sources."""
    return MovieDirectorSimulator(MovieDirectorConfig.small(seed=5)).generate()


@pytest.fixture(scope="session")
def medium_book_dataset():
    """A medium simulated book dataset used by accuracy-sensitive tests."""
    config = BookAuthorConfig(num_books=150, num_sellers=60, labelled_books=60, seed=9)
    return BookAuthorSimulator(config).generate()


@pytest.fixture(scope="session")
def small_synthetic():
    """A small LTM-generative synthetic dataset with known parameters.

    The quality priors are deliberately wide (``alpha1=(6, 4)``) so that the
    sampled per-source sensitivities are spread out and parameter-recovery
    tests have signal to correlate against.
    """
    config = LTMGenerativeConfig(
        num_facts=400, num_sources=12, alpha0=(5.0, 45.0), alpha1=(6.0, 4.0), seed=3
    )
    return generate_ltm_dataset_with_parameters(config)


# ---------------------------------------------------------------------------
# Gibbs sweep backends.
# ---------------------------------------------------------------------------
@pytest.fixture(params=["python", "compiled"])
def sweep_backend(request, monkeypatch):
    """Run the test once per Gibbs sweep backend.

    ``python`` records a failed build so every fit takes the Python walk;
    ``compiled`` skips where the platform cannot build the C sweep.
    """
    from repro.core import gibbs_vec

    if request.param == "python":
        monkeypatch.setattr(gibbs_vec, "_build_result", [None])
    elif gibbs_vec.compiled_sweep() is None:
        pytest.skip("no working C compiler: the compiled sweep is unavailable")
    return request.param
