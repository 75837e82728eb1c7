"""The :class:`DatasetCatalog`: named, parameterised data sources.

Mirrors the engine's :class:`~repro.engine.registry.MethodRegistry` on the
data side: every dataset the library can produce — the paper's worked
example, the book / movie / LTM-generative simulators, the adversarial
stress profile — is registered under a canonical string key with metadata
and aliases, so workloads are reachable by name from
:class:`~repro.engine.TruthEngine`, :func:`repro.discover` and the
``repro-truth`` CLI (``datasets`` subcommand, ``integrate --source``).

:func:`as_source` is the universal coercion every retrofitted entry point
uses: it turns a :class:`~repro.io.base.DataSource`, a catalog key, a file
path, a :class:`~repro.data.raw.RawDatabase`, a (deprecated) relational table, a
:class:`~repro.data.dataset.TruthDataset` or any triple iterable into a
:class:`~repro.io.base.DataSource`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro._deprecation import is_relational_table
from repro.data.dataset import TruthDataset
from repro.data.raw import RawDatabase
from repro.exceptions import ConfigurationError
from repro.io.base import DataSource
from repro.io.sources import (
    DatasetSource,
    JsonDatasetSource,
    MemorySource,
    SyntheticSource,
    TripleFileSource,
)
from repro.types import Triple

__all__ = [
    "DatasetSpec",
    "DatasetCatalog",
    "default_catalog",
    "register_dataset",
    "as_source",
]


def _normalise_key(name: str) -> str:
    """Canonicalise a dataset name for lookup: lowercase, separators unified."""
    return name.strip().lower().replace("-", "_").replace(" ", "_")


@dataclass(frozen=True)
class DatasetSpec:
    """One registered dataset and its metadata.

    Attributes
    ----------
    key:
        Canonical catalog key (lowercase, underscore-separated).
    factory:
        Callable building a fresh :class:`~repro.io.base.DataSource` from
        keyword parameters (e.g. ``seed``, size overrides).
    summary:
        One-line description, shown by ``repro-truth datasets``.
    kind:
        Dataset family (``"example"``, ``"synthetic"``, ...).
    has_labels:
        Whether sources built from this spec carry ground truth.
    aliases:
        Additional accepted names (matched after normalisation).
    streams:
        Whether sources built from this spec stream (bounded-memory
        iteration) rather than materialise their triples — mirrored from
        :attr:`~repro.io.base.DataSource.streams` and shown by
        ``repro-truth datasets``.
    """

    key: str
    factory: Callable[..., DataSource]
    summary: str
    kind: str = "synthetic"
    has_labels: bool = True
    aliases: tuple[str, ...] = ()
    streams: bool = False

    def metadata(self) -> dict[str, Any]:
        """The spec's metadata as a plain dict (for display and serialisation)."""
        return {
            "key": self.key,
            "summary": self.summary,
            "kind": self.kind,
            "has_labels": self.has_labels,
            "aliases": list(self.aliases),
            "streams": self.streams,
        }


class DatasetCatalog:
    """A name-to-dataset catalog with alias resolution and metadata.

    Deliberately instance-based — tests and embedders can build private
    catalogs — while :func:`default_catalog` exposes the process-wide one
    the engine, the coercion layer and the CLI share.
    """

    def __init__(self) -> None:
        self._specs: dict[str, DatasetSpec] = {}
        self._aliases: dict[str, str] = {}

    # -- registration ---------------------------------------------------------------
    def register(self, spec: DatasetSpec, replace: bool = False) -> DatasetSpec:
        """Add ``spec`` to the catalog and index its aliases."""
        key = _normalise_key(spec.key)
        if key != spec.key:
            spec = DatasetSpec(**{**spec.__dict__, "key": key})
        if not replace and (key in self._specs or key in self._aliases):
            raise ConfigurationError(f"dataset {spec.key!r} is already registered")
        self._specs[key] = spec
        for alias in spec.aliases:
            normalised = _normalise_key(alias)
            if normalised == key:
                continue
            if normalised in self._specs:
                raise ConfigurationError(
                    f"alias {alias!r} collides with the registered dataset {normalised!r}"
                )
            existing = self._aliases.get(normalised)
            if not replace and existing is not None and existing != key:
                raise ConfigurationError(f"alias {alias!r} already points at {existing!r}")
            self._aliases[normalised] = key
        return spec

    def register_dataset(
        self,
        key: str,
        factory: Callable[..., DataSource],
        summary: str,
        **metadata: Any,
    ) -> DatasetSpec:
        """Convenience wrapper building and registering a :class:`DatasetSpec`."""
        return self.register(DatasetSpec(key=key, factory=factory, summary=summary, **metadata))

    def register_store(
        self,
        key: str,
        path: str | Path,
        summary: str | None = None,
        **metadata: Any,
    ) -> DatasetSpec:
        """Register an on-disk :class:`~repro.store.claims.ClaimStore` by name.

        Sources built from the spec are fresh read-only
        :class:`~repro.io.store_source.StoreSource` handles over ``path``,
        so the same store can back catalog lookups from many workers.
        """
        from repro.io.store_source import StoreSource

        store_path = str(path)

        def factory(**params: Any) -> DataSource:
            return StoreSource(store_path, name=_normalise_key(key), **params)

        metadata.setdefault("kind", "store")
        metadata.setdefault("has_labels", False)
        metadata.setdefault("streams", True)
        return self.register_dataset(
            key,
            factory,
            summary if summary is not None else f"Claim store at {store_path}",
            **metadata,
        )

    # -- lookup ---------------------------------------------------------------------
    def resolve(self, name: str) -> str:
        """Return the canonical key for ``name`` (which may be an alias)."""
        key = _normalise_key(name)
        if key in self._specs:
            return key
        if key in self._aliases:
            return self._aliases[key]
        raise ConfigurationError(
            f"unknown dataset {name!r}; registered datasets: {sorted(self._specs)}"
        )

    def spec(self, name: str) -> DatasetSpec:
        """The :class:`DatasetSpec` registered under ``name`` or one of its aliases."""
        return self._specs[self.resolve(name)]

    def create(self, name: str, **params: Any) -> DataSource:
        """Build the :class:`~repro.io.base.DataSource` registered under ``name``."""
        return self.spec(name).factory(**params)

    def names(self) -> list[str]:
        """Canonical keys of every registered dataset, in registration order."""
        return list(self._specs)

    def specs(self) -> list[DatasetSpec]:
        """Every registered spec, in registration order."""
        return list(self._specs.values())

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        try:
            self.resolve(name)
        except ConfigurationError:
            return False
        return True

    def __iter__(self) -> Iterator[DatasetSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatasetCatalog({sorted(self._specs)})"


# ---------------------------------------------------------------------------
# The default catalog
# ---------------------------------------------------------------------------
#: The worked example of paper Tables 1-4 (the Harry Potter cast).
PAPER_EXAMPLE_TRIPLES: tuple[Triple, ...] = (
    Triple("Harry Potter", "Daniel Radcliffe", "IMDB"),
    Triple("Harry Potter", "Emma Watson", "IMDB"),
    Triple("Harry Potter", "Rupert Grint", "IMDB"),
    Triple("Harry Potter", "Daniel Radcliffe", "Netflix"),
    Triple("Harry Potter", "Daniel Radcliffe", "BadSource.com"),
    Triple("Harry Potter", "Emma Watson", "BadSource.com"),
    Triple("Harry Potter", "Johnny Depp", "BadSource.com"),
    Triple("Pirates 4", "Johnny Depp", "Hulu.com"),
)

PAPER_EXAMPLE_TRUTH: dict[tuple[str, str], bool] = {
    ("Harry Potter", "Daniel Radcliffe"): True,
    ("Harry Potter", "Emma Watson"): True,
    ("Harry Potter", "Rupert Grint"): True,
    ("Harry Potter", "Johnny Depp"): False,
    ("Pirates 4", "Johnny Depp"): True,
}


def _paper_example_source() -> MemorySource:
    return MemorySource(
        PAPER_EXAMPLE_TRIPLES, truth=dict(PAPER_EXAMPLE_TRUTH), name="paper_example"
    )


def _books_source(seed: int | None = 17, **overrides: Any) -> SyntheticSource:
    from repro.synth.books import BookAuthorConfig, BookAuthorSimulator

    config = BookAuthorConfig(seed=seed, **overrides)
    return SyntheticSource(
        lambda: BookAuthorSimulator(config).generate(),
        name="books",
        metadata={"seed": seed, **overrides},
    )


def _books_small_source(seed: int | None = 17) -> SyntheticSource:
    from repro.synth.books import BookAuthorConfig, BookAuthorSimulator

    config = BookAuthorConfig.small(seed=seed)
    return SyntheticSource(
        lambda: BookAuthorSimulator(config).generate(),
        name="books_small",
        metadata={"seed": seed},
    )


def _movies_source(seed: int | None = 29, **overrides: Any) -> SyntheticSource:
    from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator

    config = MovieDirectorConfig(seed=seed, **overrides)
    return SyntheticSource(
        lambda: MovieDirectorSimulator(config).generate(),
        name="movies",
        metadata={"seed": seed, **overrides},
    )


def _movies_small_source(seed: int | None = 29) -> SyntheticSource:
    from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator

    config = MovieDirectorConfig.small(seed=seed)
    return SyntheticSource(
        lambda: MovieDirectorSimulator(config).generate(),
        name="movies_small",
        metadata={"seed": seed},
    )


def _ltm_generative_source(seed: int | None = 42, **overrides: Any) -> SyntheticSource:
    from repro.synth.ltm_generative import LTMGenerativeConfig, generate_ltm_dataset

    config = LTMGenerativeConfig(seed=seed, **overrides)
    return SyntheticSource(
        lambda: generate_ltm_dataset(config),
        name="ltm_generative",
        metadata={"seed": seed, **overrides},
    )


def _adversarial_source(seed: int | None = 41, **overrides: Any) -> SyntheticSource:
    """The Section 7 stress profile: a movie feed with two adversarial sources."""
    from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator

    config = MovieDirectorConfig(seed=seed, **overrides)

    def generate() -> TruthDataset:
        simulator = MovieDirectorSimulator(config)
        simulator.source_quality = dict(simulator.source_quality)
        simulator.source_quality["scraperbot"] = (0.30, 0.05)
        simulator.source_quality["linkfarm"] = (0.25, 0.10)
        return simulator.generate()

    return SyntheticSource(
        generate,
        name="adversarial",
        metadata={"seed": seed, "adversarial_sources": ["scraperbot", "linkfarm"], **overrides},
    )


def _populate(catalog: DatasetCatalog) -> DatasetCatalog:
    """Register the library's dataset catalogue into ``catalog``."""
    catalog.register_dataset(
        "paper_example",
        _paper_example_source,
        "The worked example of paper Tables 1-4 (Harry Potter cast)",
        kind="example",
        aliases=("example", "harry_potter"),
    )
    catalog.register_dataset(
        "books",
        _books_source,
        "Simulated book-seller crawl (first-author-only and noisy sellers)",
        aliases=("book_authors",),
    )
    catalog.register_dataset(
        "books_small",
        _books_small_source,
        "Small book-seller crawl for tests and smoke runs",
    )
    catalog.register_dataset(
        "movies",
        _movies_source,
        "Simulated movie-director feed with the 12 sources of paper Table 8",
        aliases=("movie_directors",),
    )
    catalog.register_dataset(
        "movies_small",
        _movies_small_source,
        "Small movie-director feed for tests and smoke runs",
    )
    catalog.register_dataset(
        "ltm_generative",
        _ltm_generative_source,
        "Synthetic data drawn from LTM's own generative process (Section 6.1.1)",
        aliases=("synthetic", "generative"),
    )
    catalog.register_dataset(
        "adversarial",
        _adversarial_source,
        "Movie feed poisoned with two adversarial sources (Section 7)",
        aliases=("adversarial_movies",),
    )
    return catalog


_DEFAULT_CATALOG: DatasetCatalog | None = None


def default_catalog() -> DatasetCatalog:
    """The process-wide catalog shared by the engine, coercion layer and CLI."""
    global _DEFAULT_CATALOG
    if _DEFAULT_CATALOG is None:
        _DEFAULT_CATALOG = _populate(DatasetCatalog())
    return _DEFAULT_CATALOG


def register_dataset(spec: DatasetSpec, replace: bool = False) -> DatasetSpec:
    """Register ``spec`` into the shared default catalog."""
    return default_catalog().register(spec, replace=replace)


# ---------------------------------------------------------------------------
# Universal coercion
# ---------------------------------------------------------------------------
#: URL prefix selecting the out-of-core claim store: ``store://claims.db``
#: (relative path) or ``store:///var/data/claims.db`` (absolute path).
STORE_URL_PREFIX = "store://"

_SQLITE_MAGIC = b"SQLite format 3\x00"
_SQLITE_SUFFIXES = {".db", ".sqlite", ".sqlite3"}


def _is_sqlite_file(path: Path) -> bool:
    """Whether an existing file looks like a SQLite database (claim store)."""
    if path.suffix.lower() in _SQLITE_SUFFIXES:
        return True
    try:
        with path.open("rb") as handle:
            return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    except OSError:
        return False


def as_source(
    data: Any,
    catalog: DatasetCatalog | None = None,
    **params: Any,
) -> DataSource:
    """Coerce anything triple-shaped into a :class:`~repro.io.base.DataSource`.

    Accepted inputs, in resolution order:

    * a :class:`~repro.io.base.DataSource` — returned unchanged
      (``params`` are rejected: the source is already built);
    * a :class:`~repro.data.dataset.TruthDataset` — wrapped in
      :class:`~repro.io.sources.DatasetSource`;
    * a :class:`~repro.data.raw.RawDatabase` or any iterable of triples —
      wrapped in :class:`~repro.io.sources.MemorySource`;
    * a (deprecated) relational :class:`~repro.store.table.Table` — wrapped
      in the deprecated :class:`~repro.io.table_source.TableSource`;
    * a ``store://`` URL — opened as an out-of-core
      :class:`~repro.io.store_source.StoreSource` over the claim store at
      the path after the prefix (``store://claims.db`` is relative,
      ``store:///var/data/claims.db`` absolute);
    * a string or :class:`~pathlib.Path` — resolved as a catalog key (with
      ``params`` passed to the dataset factory) when registered, otherwise
      as an existing triple file (``.json`` dumps load as datasets,
      SQLite files — by ``.db``/``.sqlite`` suffix or magic header — open
      as claim stores).

    Raises
    ------
    ConfigurationError
        If the input cannot be interpreted as a data source.
    """
    if isinstance(data, DataSource):
        if params:
            raise ConfigurationError(
                "parameters are only accepted with a catalog key, not a built DataSource"
            )
        return data
    if isinstance(data, TruthDataset):
        return DatasetSource(data)
    if isinstance(data, RawDatabase):
        return MemorySource(data)
    if is_relational_table(data):
        from repro.io.table_source import TableSource

        return TableSource(data, **params)
    if isinstance(data, (str, Path)):
        resolved = catalog if catalog is not None else default_catalog()
        if isinstance(data, str) and data.startswith(STORE_URL_PREFIX):
            from repro.io.store_source import StoreSource

            store_path = data[len(STORE_URL_PREFIX) :]
            if not store_path:
                raise ConfigurationError(
                    f"{data!r} names no claim store; use store://path/to/claims.db"
                )
            if not Path(store_path).exists():
                raise ConfigurationError(f"claim store {store_path!r} does not exist")
            return StoreSource(store_path, **params)
        if isinstance(data, str) and data in resolved:
            return resolved.create(data, **params)
        path = Path(data)
        if path.exists():
            if path.suffix.lower() == ".json":
                return JsonDatasetSource(path, **params)
            if _is_sqlite_file(path):
                from repro.io.store_source import StoreSource

                return StoreSource(path, **params)
            return TripleFileSource(path, **params)
        raise ConfigurationError(
            f"{str(data)!r} is neither a registered dataset nor an existing file; "
            f"catalog keys: {sorted(resolved.names())}"
        )
    try:
        iter(data)
    except TypeError:
        raise ConfigurationError(
            f"cannot build a DataSource from {type(data).__name__!r}"
        ) from None
    return MemorySource(data, **params)
