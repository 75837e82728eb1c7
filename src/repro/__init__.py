"""repro — Latent Truth Model truth discovery for data integration.

A from-scratch Python implementation of *"A Bayesian Approach to Discovering
Truth from Conflicting Sources for Data Integration"* (Zhao, Rubinstein,
Gemmell & Han, VLDB 2012): the Latent Truth Model (LTM) with collapsed Gibbs
inference and two-sided source quality, its incremental variant (LTMinc), the
seven baselines the paper compares against, the claim-construction data model,
dataset simulators, a streaming integration engine and a full evaluation
harness.

The canonical API is the unified :mod:`repro.engine`: a
:class:`~repro.engine.TruthEngine` facade with a sklearn-style lifecycle
(``fit`` / ``partial_fit`` / ``predict_proba`` / ``quality_report``), built
from a declarative :class:`~repro.engine.EngineConfig` and resolving solvers
through the :class:`~repro.engine.MethodRegistry`.  On the data side,
:mod:`repro.io` is the single ingestion seam: every workload is a
:class:`~repro.io.DataSource` (in-memory triples, triple files, JSON dumps,
relational tables, the simulators), named sources live in the
:class:`~repro.io.DatasetCatalog`, and anything triple-shaped is coerced
with :func:`repro.io.as_source` — so ``repro.discover("books")`` or
``TruthEngine().fit("movies")`` just work.  On the serve side,
:mod:`repro.serving` snapshots a fitted engine into a versioned
:class:`~repro.serving.TruthArtifact` (``TruthEngine.save`` / ``load``)
and answers point / batch / top-k truth queries — plus closed-form scoring
of unseen claims — through a hot-swappable
:class:`~repro.serving.TruthService` (``repro.serve("books")`` trains and
serves in one line).  On the network side, :mod:`repro.api` fronts a
service with a dependency-free ASGI 3.0 application
(:func:`repro.api.create_app`, CLI: ``repro-truth serve``) — truth / batch /
top-k / score / ingest HTTP endpoints with per-client rate limiting,
idempotency keys, Prometheus metrics and zero-downtime artifact hot swap,
runnable under the bundled stdlib :class:`~repro.api.APIServer` or any
external ASGI server.  On the scale-out side, :mod:`repro.parallel`
hash-partitions any source by entity (:class:`~repro.parallel.ShardPlanner`),
fits shards on serial / thread / process backends
(:class:`~repro.parallel.ParallelExecutor`) and merges them with score
parity — enabled per engine through
:class:`~repro.engine.ExecutionConfig`, e.g.
``TruthEngine(method="ltm", execution={"num_shards": 4, "backend":
"processes"})``.  On the storage side, :mod:`repro.store` adds an
out-of-core tier: corpora that don't fit in RAM live in an append-only,
schema-versioned :class:`~repro.store.ClaimStore` (bundled SQLite behind a
pluggable :class:`~repro.store.StorageBackend`) and stream through ``fit``,
``partial_fit`` and the shard planner via
:class:`~repro.io.StoreSource` (``as_source("store://claims.db")``, CLI:
``repro-truth store load|stats|compact``) without ever materialising.
The PR-1-era deprecation shims (``IntegrationPipeline``,
``OnlineTruthFinder``, ``repro.baselines.registry``) were removed in 1.4
after their two-PR deprecation window.  ``ClaimTableBuilder`` and the seed's
in-memory relational engine (``repro.store.Table`` and friends) are in
theirs: they still resolve, with a :class:`DeprecationWarning`, and no data
path uses them.

Quickstart
----------
>>> import repro
>>> result = repro.discover([
...     ("Harry Potter", "Daniel Radcliffe", "imdb"),
...     ("Harry Potter", "Emma Watson", "imdb"),
...     ("Harry Potter", "Rupert Grint", "imdb"),
...     ("Harry Potter", "Daniel Radcliffe", "netflix"),
...     ("Harry Potter", "Daniel Radcliffe", "badsource.com"),
...     ("Harry Potter", "Emma Watson", "badsource.com"),
...     ("Harry Potter", "Johnny Depp", "badsource.com"),
... ], method="ltm", iterations=100, seed=0)
>>> sorted(result.fact_scores) == sorted(
...     (f.entity, str(f.attribute)) for f in result.claims.facts)
True
"""

from repro._deprecation import CLAIM_TABLE_BUILDER, deprecated_getattr
from repro.types import Triple
from repro.data import (
    ClaimMatrix,
    RawDatabase,
    TruthDataset,
    build_claim_matrix,
    load_dataset_json,
    load_triples_csv,
    save_dataset_json,
    save_triples_csv,
)
from repro.data.claim_builder import build_dataset
from repro.core import (
    IncrementalLTM,
    LatentTruthModel,
    LTMPriors,
    BetaPrior,
    PositiveOnlyLTM,
    SourceQualityTable,
    TruthMethod,
    TruthResult,
)
from repro.baselines import (
    AvgLog,
    HubAuthority,
    Investment,
    PooledInvestment,
    ThreeEstimates,
    TruthFinder,
    Voting,
)
from repro.evaluation import (
    ComparisonTable,
    EvaluationMetrics,
    compare_methods,
    evaluate_scores,
    auc_score,
)
from repro.synth import (
    BookAuthorConfig,
    BookAuthorSimulator,
    LTMGenerativeConfig,
    MovieDirectorConfig,
    MovieDirectorSimulator,
    generate_ltm_dataset,
)
from repro.streaming import ClaimStream
from repro.pipeline import IntegrationResult, run_integration
from repro.engine import (
    EngineConfig,
    ExecutionConfig,
    MethodRegistry,
    MethodSpec,
    TruthEngine,
    default_registry,
    discover,
    method_suite,
)
from repro.io import (
    DataSource,
    DatasetCatalog,
    DatasetSpec,
    SourceSchema,
    StoreSource,
    as_source,
    default_catalog,
    entity_partition_key,
    register_dataset,
)
from repro.store import ClaimStore
from repro.parallel import (
    MergedFit,
    ParallelExecutor,
    ShardPlan,
    ShardPlanner,
    merge_artifacts,
)
from repro.serving import TruthArtifact, TruthService, load_artifact, serve
from repro.api import APIServer, ASGIClient, TruthAPI, create_app

__version__ = "1.8.0"

__all__ = [
    "__version__",
    # unified engine (canonical API)
    "TruthEngine",
    "EngineConfig",
    "ExecutionConfig",
    "MethodRegistry",
    "MethodSpec",
    "default_registry",
    "discover",
    "method_suite",
    "run_integration",
    # unified ingestion (canonical data-side API)
    "DataSource",
    "SourceSchema",
    "DatasetCatalog",
    "DatasetSpec",
    "as_source",
    "default_catalog",
    "entity_partition_key",
    "register_dataset",
    # out-of-core claim storage (canonical disk tier)
    "ClaimStore",
    "StoreSource",
    # sharded parallel execution (canonical scale-out API)
    "ShardPlanner",
    "ShardPlan",
    "ParallelExecutor",
    "MergedFit",
    "merge_artifacts",
    # serving (canonical serve-side API)
    "TruthArtifact",
    "TruthService",
    "load_artifact",
    "serve",
    # network serving tier (canonical HTTP API)
    "TruthAPI",
    "create_app",
    "APIServer",
    "ASGIClient",
    # data model
    "Triple",
    "RawDatabase",
    "ClaimMatrix",
    "TruthDataset",
    "build_claim_matrix",
    "build_dataset",
    "load_triples_csv",
    "save_triples_csv",
    "load_dataset_json",
    "save_dataset_json",
    # core model
    "LatentTruthModel",
    "IncrementalLTM",
    "PositiveOnlyLTM",
    "LTMPriors",
    "BetaPrior",
    "TruthMethod",
    "TruthResult",
    "SourceQualityTable",
    # baselines
    "Voting",
    "TruthFinder",
    "HubAuthority",
    "AvgLog",
    "Investment",
    "PooledInvestment",
    "ThreeEstimates",
    # evaluation
    "EvaluationMetrics",
    "ComparisonTable",
    "compare_methods",
    "evaluate_scores",
    "auc_score",
    # datasets
    "LTMGenerativeConfig",
    "generate_ltm_dataset",
    "BookAuthorConfig",
    "BookAuthorSimulator",
    "MovieDirectorConfig",
    "MovieDirectorSimulator",
    # streaming / pipeline
    "ClaimStream",
    "IntegrationResult",
]

__getattr__ = deprecated_getattr(__name__, CLAIM_TABLE_BUILDER)
