"""Command-line interface: simulate datasets, integrate any source, compare methods.

The CLI is a thin wrapper over the unified :mod:`repro.engine` /
:mod:`repro.io` APIs; it exists so that a downstream user can reproduce the
core workflow without writing Python:

* ``repro-truth simulate books out.tsv`` — write a simulated book-seller crawl;
* ``repro-truth integrate in.tsv --method ltm`` — run any registered method
  on a triple file and print the merged records and the source-quality report;
* ``repro-truth integrate --source books`` — the same, but reading from any
  dataset-catalog key (or file path) resolved through :mod:`repro.io`;
* ``repro-truth integrate --source movies --shards 4 --backend processes`` —
  the same again, entity-sharded through :mod:`repro.parallel`;
* ``repro-truth compare in.tsv labels.tsv`` — run the full method comparison
  against a ground-truth label file;
* ``repro-truth export books art/`` — fit a method on any catalog key or
  triple file and write a versioned serving artifact (:mod:`repro.serving`);
  with ``--shards N`` the fit runs sharded, and ``--shard-dir parts/``
  additionally publishes the per-shard artifacts;
* ``repro-truth merge merged/ parts/shard_*`` — recombine per-shard
  artifacts into one servable artifact;
* ``repro-truth query art/ "Harry Potter"`` — answer truth queries from a
  saved artifact without re-running inference; ``--json`` emits one
  canonical-JSON object per result (the :mod:`repro.api` response codec,
  so CLI and HTTP results are byte-compatible);
* ``repro-truth serve art/ --port 8799`` — serve an artifact over HTTP
  through the stdlib ASGI server of :mod:`repro.api` (truth / batch /
  top-k / score / ingest endpoints, rate limiting, metrics, hot swap);
* ``repro-truth store load in.tsv claims.db`` — stream a triple file into
  an on-disk claim store (:mod:`repro.store`) without materialising it;
  ``store stats`` prints its counters, ``store compact`` evicts old
  generations, and ``--source store://claims.db`` integrates it
  out-of-core;
* ``repro-truth methods`` — list every registered solver with its metadata;
* ``repro-truth datasets`` — list every catalog dataset with its metadata.

Telemetry (:mod:`repro.obs`) rides along everywhere: ``integrate``,
``export`` and ``serve`` accept ``--telemetry`` (record spans, print the
span tree at the end) and ``--trace-out spans.jsonl`` (stream every span to
a canonical-JSON lines file), and ``repro-truth obs summary|tail`` renders a
recorded trace file after the fact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.data.claim_builder import build_dataset
from repro.data.loaders import load_labels_csv, load_triples_csv, save_triples_csv
from repro.engine.facade import discover
from repro.engine.registry import default_registry, method_suite
from repro.evaluation.comparison import compare_methods
from repro.exceptions import (
    ArtifactError,
    ConfigurationError,
    DataModelError,
    EmptyDatasetError,
    StoreError,
)
from repro.io.catalog import as_source, default_catalog
from repro.pipeline.report import (
    format_integration_summary,
    format_merged_records,
    format_quality_report,
)
from repro.synth.books import BookAuthorConfig, BookAuthorSimulator
from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator

__all__ = ["main", "build_parser", "format_method_table", "format_dataset_table"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-truth",
        description="Latent Truth Model truth discovery for data integration",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="generate a simulated dataset")
    simulate.add_argument("kind", choices=["books", "movies"], help="which simulator to run")
    simulate.add_argument("output", help="path of the triple TSV to write")
    simulate.add_argument("--entities", type=int, default=None, help="number of entities to simulate")
    simulate.add_argument("--seed", type=int, default=17, help="random seed")

    integrate = subparsers.add_parser(
        "integrate", help="integrate a triple file or catalog dataset"
    )
    integrate.add_argument(
        "input",
        nargs="?",
        default=None,
        help="triple file with header entity/attribute/source (or a catalog key)",
    )
    integrate.add_argument(
        "--source",
        default=None,
        help="dataset to integrate: a catalog key (see 'repro-truth datasets') or a file path",
    )
    integrate.add_argument(
        "--method",
        default="ltm",
        help="registered truth method to run (see 'repro-truth methods')",
    )
    integrate.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="solver iterations (the method's own default when omitted)",
    )
    integrate.add_argument("--threshold", type=float, default=0.5, help="acceptance threshold")
    integrate.add_argument("--seed", type=int, default=7, help="random seed")
    integrate.add_argument(
        "--kernel",
        choices=["scalar", "blocked", "auto"],
        default=None,
        help="deprecated and ignored: the Gibbs sweep backend (compiled C, "
        "or the identical Python walk without a compiler) follows from the platform",
    )
    integrate.add_argument("--max-records", type=int, default=20, help="merged records to print")
    _add_execution_arguments(integrate)
    _add_telemetry_arguments(integrate)

    compare = subparsers.add_parser("compare", help="compare all methods against labels")
    compare.add_argument("input", help="triple TSV with header entity/attribute/source")
    compare.add_argument("labels", help="label TSV with header entity/attribute/truth")
    compare.add_argument("--iterations", type=int, default=100, help="Gibbs iterations for LTM")
    compare.add_argument("--seed", type=int, default=7, help="random seed")

    export = subparsers.add_parser(
        "export", help="fit a method and write a versioned serving artifact"
    )
    export.add_argument(
        "source",
        help="dataset to fit: a catalog key (see 'repro-truth datasets') or a file path",
    )
    export.add_argument("output", help="artifact directory to write")
    export.add_argument(
        "--method",
        default="ltm",
        help="registered truth method to fit (see 'repro-truth methods')",
    )
    export.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="solver iterations (the method's own default when omitted)",
    )
    export.add_argument("--threshold", type=float, default=0.5, help="acceptance threshold")
    export.add_argument("--seed", type=int, default=7, help="random seed")
    export.add_argument(
        "--kernel",
        choices=["scalar", "blocked", "auto"],
        default=None,
        help="deprecated and ignored: the Gibbs sweep backend (compiled C, "
        "or the identical Python walk without a compiler) follows from the platform",
    )
    export.add_argument("--name", default=None, help="artifact name (defaults to the method)")
    _add_execution_arguments(export)
    _add_telemetry_arguments(export)
    export.add_argument(
        "--shard-dir",
        default=None,
        help="with --shards: also write the per-shard artifacts into this directory",
    )

    merge = subparsers.add_parser(
        "merge", help="combine per-shard artifacts into one servable artifact"
    )
    merge.add_argument("output", help="merged artifact directory to write")
    merge.add_argument("shards", nargs="+", help="shard artifact directories (in shard order)")
    merge.add_argument("--name", default=None, help="merged artifact name")

    query = subparsers.add_parser("query", help="answer truth queries from a saved artifact")
    query.add_argument("artifact", help="artifact directory written by 'export'")
    query.add_argument(
        "entity",
        nargs="?",
        default=None,
        help="entity to look up (omit for the artifact's global top facts)",
    )
    query.add_argument(
        "--attribute",
        default=None,
        help="attribute value for a point lookup (requires an entity)",
    )
    query.add_argument("--top", type=int, default=10, help="facts to print")
    query.add_argument(
        "--json",
        action="store_true",
        help="emit one canonical-JSON object per result (machine-readable; "
        "shares the repro.api response codec)",
    )

    serve = subparsers.add_parser(
        "serve", help="serve an artifact over HTTP (stdlib ASGI server, repro.api)"
    )
    serve.add_argument("artifact", help="artifact directory written by 'export'")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=8799, help="port to bind (0 = ephemeral)")
    serve.add_argument(
        "--rate",
        type=float,
        default=100.0,
        help="per-client sustained requests/sec (0 disables rate limiting)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=None,
        help="per-client token-bucket size (default: one second's worth)",
    )
    serve.add_argument(
        "--idempotency-ttl",
        type=float,
        default=3600.0,
        help="seconds an Idempotency-Key replay stays answerable",
    )
    _add_telemetry_arguments(serve)

    store = subparsers.add_parser(
        "store", help="manage on-disk claim stores (repro.store, out-of-core corpora)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_load = store_sub.add_parser(
        "load", help="stream a triple file into a claim store (append-only)"
    )
    store_load.add_argument("input", help="triple TSV with header entity/attribute/source")
    store_load.add_argument("store", help="claim-store path (created when missing)")
    store_load.add_argument(
        "--batch-size",
        type=int,
        default=10_000,
        help="rows per ingest batch (bounds loader memory)",
    )
    store_stats = store_sub.add_parser("stats", help="print a claim store's counters")
    store_stats.add_argument("store", help="claim-store path")
    store_compact = store_sub.add_parser(
        "compact", help="evict old generations or time windows, then vacuum"
    )
    store_compact.add_argument("store", help="claim-store path")
    store_compact.add_argument(
        "--keep-last",
        type=int,
        default=None,
        help="keep only the N most recent ingest generations",
    )
    store_compact.add_argument(
        "--older-than",
        type=float,
        default=None,
        help="drop rows ingested before this UNIX timestamp",
    )

    obs_cmd = subparsers.add_parser(
        "obs", help="inspect recorded telemetry traces (repro.obs)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary", help="render a span JSONL file as a tree plus per-span aggregates"
    )
    obs_summary.add_argument("trace", help="span JSONL written by --trace-out")
    obs_tail = obs_sub.add_parser(
        "tail", help="print the most recently finished spans of a span JSONL file"
    )
    obs_tail.add_argument("trace", help="span JSONL written by --trace-out")
    obs_tail.add_argument("--last", type=int, default=10, help="spans to print")

    subparsers.add_parser("methods", help="list registered truth methods and their metadata")
    subparsers.add_parser("datasets", help="list catalog datasets and their metadata")
    return parser


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared sharded-execution flags (see ``repro.parallel``)."""
    from repro.engine.config import EXECUTION_BACKENDS

    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="entity shards to fit in parallel (1 = classic single-shard run)",
    )
    parser.add_argument(
        "--backend",
        choices=list(EXECUTION_BACKENDS),
        default="processes",
        help="where shard fits run when --shards > 1 (default: processes)",
    )
    parser.add_argument(
        "--sync-rounds",
        type=int,
        default=1,
        help="quality-sync rounds of the shard merge for LTM-family methods",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared telemetry flags (see ``repro.obs``)."""
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record tracing spans and print the span tree when the command finishes",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="stream every finished span to this JSONL file (implies --telemetry; "
        "inspect with 'repro-truth obs summary|tail')",
    )


def _configure_telemetry(args: argparse.Namespace):
    """Install the process-global tracer requested by --telemetry/--trace-out."""
    if not (getattr(args, "telemetry", False) or getattr(args, "trace_out", None)):
        return None
    from repro import obs

    return obs.configure(trace_path=args.trace_out)


def _finish_telemetry(tracer, args: argparse.Namespace) -> None:
    """Print the recorded span tree (if any) and tear the tracer down."""
    if tracer is None:
        return
    from repro import obs
    from repro.obs.render import format_span_summary

    collector = tracer.collector
    spans = collector.spans if collector is not None else []
    if spans:
        print()
        print("Telemetry")
        print("---------")
        print(format_span_summary(spans))
    if getattr(args, "trace_out", None):
        print(f"trace written to {args.trace_out}")
    obs.shutdown()


def _execution_from_args(args: argparse.Namespace):
    """Build the ExecutionConfig requested by --shards/--backend, or None."""
    shards = getattr(args, "shards", 1)
    if shards < 1:
        raise ConfigurationError("--shards must be at least 1")
    if shards == 1:
        return None
    from repro.engine.config import ExecutionConfig

    return ExecutionConfig(
        num_shards=shards,
        backend=args.backend,
        quality_sync_rounds=args.sync_rounds,
    )


def _run_simulate(args: argparse.Namespace) -> int:
    if args.kind == "books":
        config = BookAuthorConfig(seed=args.seed)
        if args.entities:
            config = BookAuthorConfig(
                num_books=args.entities,
                labelled_books=min(100, args.entities),
                seed=args.seed,
            )
        dataset = BookAuthorSimulator(config).generate()
    else:
        config = MovieDirectorConfig(seed=args.seed)
        if args.entities:
            config = MovieDirectorConfig(
                num_movies=args.entities,
                labelled_movies=min(100, args.entities),
                seed=args.seed,
            )
        dataset = MovieDirectorSimulator(config).generate()

    # Write the dataset's raw triples (its positive claims) through the
    # DataSource view of the simulated dataset.
    from repro.io.sources import DatasetSource

    source = DatasetSource(dataset)
    count = save_triples_csv(source.iter_triples(), args.output)
    print(f"wrote {count} triples ({dataset.claims.num_facts} facts, "
          f"{dataset.claims.num_sources} sources) to {args.output}")
    return 0


def _run_integrate(args: argparse.Namespace) -> int:
    tracer = _configure_telemetry(args)
    try:
        return _integrate(args)
    finally:
        _finish_telemetry(tracer, args)


def _integrate(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.source is None):
        print(
            "error: give exactly one of a positional input file or --source",
            file=sys.stderr,
        )
        return 2
    spec = _resolve_method_spec(args.method)
    if spec is None:
        return 2
    # Pass the sampler settings only to methods that take them, and only when
    # the user asked for them (so each method keeps its own iteration
    # default); for LTM, omitting priors selects the data-adaptive defaults
    # (LTMPriors.adaptive).
    params = {}
    if args.iterations is not None and spec.accepts("iterations"):
        params["iterations"] = args.iterations
    if spec.accepts("seed"):
        params["seed"] = args.seed
    if args.kernel is not None and spec.accepts("kernel"):
        params["kernel"] = args.kernel
    try:
        execution = _execution_from_args(args)
        if args.source is not None:
            # --source resolves catalog-first (keys shadow same-named files).
            source = as_source(args.source)
        else:
            # The positional input keeps the historical file-first semantics:
            # a local file named like a catalog key still means the file.
            path = Path(args.input)
            source = as_source(path) if path.exists() else as_source(args.input)
        if execution is not None:
            # Entity-sharded run through repro.parallel (run_integration
            # routes the fit through the engine's executor path).
            from repro.pipeline.integrate import run_integration

            result = run_integration(
                source,
                method=args.method,
                threshold=args.threshold,
                execution=execution,
                **params,
            )
        else:
            result = discover(source, method=args.method, threshold=args.threshold, **params)
    except (ConfigurationError, DataModelError, EmptyDatasetError, StoreError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(format_integration_summary(result))
    execution_info = (
        result.truth_result.extras.get("execution") if result.truth_result else None
    )
    if execution_info:
        print(
            f"execution: {execution_info['num_shards']} entity shards on the "
            f"{execution_info['backend']!r} backend"
        )
    print()
    print("Merged records")
    print("--------------")
    print(format_merged_records(result.merged_records, limit=args.max_records))
    if result.source_quality is not None:
        print()
        print("Source quality")
        print("--------------")
        print(format_quality_report(result.source_quality, top=20))
    return 0


def _resolve_method_spec(method: str):
    """Resolve ``method`` to a fittable claim-based spec, or print an error."""
    registry = default_registry()
    try:
        spec = registry.spec(method)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if not spec.claim_based:
        print(
            f"error: method {spec.key!r} does not consume (entity, attribute, source) "
            f"triples and cannot be fitted on a triple source",
            file=sys.stderr,
        )
        return None
    if spec.requires_quality:
        print(
            f"error: method {spec.key!r} needs previously learned source quality; "
            f"run '--method ltm' instead",
            file=sys.stderr,
        )
        return None
    return spec


def _run_export(args: argparse.Namespace) -> int:
    tracer = _configure_telemetry(args)
    try:
        return _export(args)
    finally:
        _finish_telemetry(tracer, args)


def _export(args: argparse.Namespace) -> int:
    from repro.engine.facade import TruthEngine

    spec = _resolve_method_spec(args.method)
    if spec is None:
        return 2
    params = {}
    if args.iterations is not None and spec.accepts("iterations"):
        params["iterations"] = args.iterations
    if spec.accepts("seed"):
        params["seed"] = args.seed
    if args.kernel is not None and spec.accepts("kernel"):
        params["kernel"] = args.kernel
    try:
        execution = _execution_from_args(args)
        if args.shard_dir is not None and execution is None:
            print("error: --shard-dir requires --shards > 1", file=sys.stderr)
            return 2
        # Positional input keeps integrate's file-first semantics: a local
        # file named like a catalog key still means the file.
        path = Path(args.source)
        source = as_source(path) if path.exists() else as_source(args.source)
        engine_kwargs = {"execution": execution} if execution is not None else {}
        engine = TruthEngine(
            method=args.method, threshold=args.threshold, **engine_kwargs, **params
        )
        engine.fit(source)
        artifact = engine.to_artifact(name=args.name)
        path = artifact.save(args.output)
        shard_paths = []
        if args.shard_dir is not None:
            shard_root = Path(args.shard_dir)
            for shard in engine.shard_artifacts(name=args.name):
                index = shard.extras["shard"]["index"]
                shard_paths.append(shard.save(shard_root / f"shard_{index:02d}"))
    except (ArtifactError, ConfigurationError, DataModelError, EmptyDatasetError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = artifact.summary()
    print(
        f"wrote artifact {info['name']!r} (method {info['method']}, "
        f"{info['facts']} facts, {info['entities']} entities, "
        f"{info['sources']} sources, schema v{info['schema_version']}, "
        f"repro {info['repro_version']}) to {path}"
    )
    for shard_path in shard_paths:
        print(f"wrote shard artifact {shard_path}")
    return 0


def _run_merge(args: argparse.Namespace) -> int:
    from repro.parallel import merge_artifacts

    try:
        artifact = merge_artifacts(args.shards, name=args.name)
        path = artifact.save(args.output)
    except (ArtifactError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = artifact.summary()
    print(
        f"merged {len(args.shards)} shard artifact(s) into {info['name']!r} "
        f"({info['facts']} facts, {info['entities']} entities, "
        f"{info['sources']} sources) at {path}"
    )
    return 0


def _run_query(args: argparse.Namespace) -> int:
    """Exit codes (pinned by tests): 0 found, 1 no matching fact, 2 bad input."""
    from repro.serving.service import TruthService

    if args.attribute is not None and args.entity is None:
        print("error: --attribute requires an entity", file=sys.stderr)
        return 2
    try:
        service = TruthService(args.artifact)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    as_json = getattr(args, "json", False)
    if not as_json:
        info = service.stats()
        print(
            f"artifact {info['name']!r}: method {info['method']}, {info['facts']} facts, "
            f"{info['entities']} entities, schema v{info['schema_version']}"
        )
    threshold = service.artifact.config.threshold

    def emit(entity: str, attribute: str, score: float, with_verdict: bool = True) -> None:
        if as_json:
            # One canonical-JSON object per line — the same fact encoding the
            # repro.api HTTP endpoints serve (codec shared via fact_row).
            from repro.api.codec import canonical_json, fact_row

            print(canonical_json(fact_row(entity, attribute, score, threshold)))
        elif with_verdict:
            verdict = "accepted" if score >= threshold else "rejected"
            print(f"{entity}\t{attribute}\t{score:.4f}\t{verdict}")
        else:
            print(f"{entity}\t{attribute}\t{score:.4f}")

    if args.attribute is not None:
        try:
            score = service.truth_of(args.entity, args.attribute)
        except KeyError:
            print(f"no stored fact ({args.entity!r}, {args.attribute!r})", file=sys.stderr)
            return 1
        emit(args.entity, args.attribute, score)
        return 0
    if args.entity is not None:
        ranked = service.lookup(args.entity)
        if not ranked:
            print(f"no stored facts for entity {args.entity!r}", file=sys.stderr)
            return 1
        for attribute, score in ranked[: args.top]:
            emit(args.entity, attribute, score)
        return 0
    for entity, attribute, score in service.top_k(args.top):
        emit(entity, attribute, score, with_verdict=False)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    tracer = _configure_telemetry(args)
    try:
        return _serve_command(args)
    finally:
        _finish_telemetry(tracer, args)


def _serve_command(args: argparse.Namespace) -> int:
    """Serve an artifact over HTTP with the bundled stdlib ASGI server."""
    import asyncio
    import contextlib
    import signal

    from repro.api import create_app
    from repro.api.server import APIServer

    try:
        app = create_app(
            args.artifact,
            rate=args.rate if args.rate > 0 else None,
            burst=args.burst,
            idempotency_ttl=args.idempotency_ttl,
        )
    except (ArtifactError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        server = APIServer(app, host=args.host, port=args.port)
        await server.start()
        info = app.service.artifact.summary()
        print(
            f"serving artifact {info['name']!r} (method {info['method']}, "
            f"{info['facts']} facts) on http://{args.host}:{server.port}",
            flush=True,
        )
        print(
            "endpoints: /truth/{entity} /batch /top-k /score /ingest /refresh "
            "/healthz /metrics",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    # SIGTERM shuts down as cleanly as Ctrl-C: supervisors (and the CI smoke
    # test) stop the server with `kill -TERM` and expect exit code 0.
    with contextlib.suppress(ValueError):  # not the main thread
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _run_store(args: argparse.Namespace) -> int:
    """The ``store load | stats | compact`` out-of-core subcommands."""
    from repro.data.loaders import iter_triples_csv
    from repro.store import ClaimStore

    try:
        if args.store_command == "load":
            # iter_triples_csv streams, ClaimStore.append batches: the load
            # holds at most --batch-size rows in memory at once.
            with ClaimStore(args.store) as store:
                count = store.append(
                    iter_triples_csv(args.input), batch_size=args.batch_size
                )
                info = store.stats()
            print(
                f"loaded {count} triples from {args.input} into {args.store} "
                f"(generation {info['generations']}; now {info['triples']} triples, "
                f"{info['entities']} entities, {info['sources']} sources)"
            )
            return 0
        if args.store_command == "stats":
            with ClaimStore(args.store, read_only=True) as store:
                info = dict(store.stats())
                generations = store.generations()
            print(
                f"claim store {info['path']} (schema v{info['schema_version']}): "
                f"{info['triples']} triples, {info['entities']} entities, "
                f"{info['sources']} sources, {info['generations']} generation(s)"
            )
            if generations:
                rows = [
                    (str(g["generation"]), str(g["rows"]), f"{g['ingested_at']:.0f}")
                    for g in generations
                ]
                print(_format_table(("generation", "rows", "ingested_at"), rows))
            return 0
        if args.keep_last is None and args.older_than is None:
            print(
                "error: store compact needs --keep-last and/or --older-than",
                file=sys.stderr,
            )
            return 2
        with ClaimStore(args.store) as store:
            deleted = store.compact(
                keep_last=args.keep_last, older_than=args.older_than
            )
            info = store.stats()
        print(
            f"evicted {deleted} triples from {args.store}; "
            f"{info['triples']} triples across {info['entities']} entities remain"
        )
        return 0
    except (DataModelError, StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_compare(args: argparse.Namespace) -> int:
    raw = load_triples_csv(args.input)
    labels = load_labels_csv(args.labels)
    dataset = build_dataset(raw, truth=labels, name=args.input)
    if not dataset.labels:
        print("error: none of the labelled (entity, attribute) pairs appear in the data", file=sys.stderr)
        return 2
    suite = method_suite(iterations=args.iterations, seed=args.seed)
    # The LTMinc protocol needs unlabelled entities to learn source quality from;
    # skip it when every entity in the file is labelled.
    labelled_entities = {dataset.claims.fact(f).entity for f in dataset.labels}
    include_incremental = len(labelled_entities) < dataset.claims.num_entities
    table = compare_methods(
        dataset,
        suite,
        include_incremental=include_incremental,
        incremental_kwargs={"iterations": args.iterations, "seed": args.seed},
    )
    print(table.format())
    return 0


def _format_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    """Fixed-width rendering with the last column left unpadded."""
    fixed = len(header) - 1
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(fixed)]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(fixed)) + "  " + header[fixed],
        "  ".join("-" * widths[i] for i in range(fixed)) + "  " + "-" * len(header[fixed]),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(fixed)) + "  " + row[fixed])
    return "\n".join(lines)


def format_method_table() -> str:
    """A fixed-width table of every registered method and its metadata."""
    rows = [
        (
            spec.key,
            spec.display_name,
            "yes" if spec.supports_incremental else "no",
            "yes" if spec.supports_quality else "no",
            spec.output_range,
            spec.summary,
        )
        for spec in default_registry().specs()
    ]
    header = ("method", "display", "incremental", "quality", "scores", "description")
    return _format_table(header, rows)


def format_dataset_table() -> str:
    """A fixed-width table of every catalog dataset and its metadata."""
    rows = [
        (
            spec.key,
            spec.kind,
            "yes" if spec.has_labels else "no",
            "yes" if spec.streams else "no",
            ", ".join(spec.aliases) if spec.aliases else "-",
            spec.summary,
        )
        for spec in default_catalog().specs()
    ]
    header = ("dataset", "kind", "labels", "streaming", "aliases", "description")
    return _format_table(header, rows)


def _run_obs(args: argparse.Namespace) -> int:
    """The ``obs summary | tail`` trace-inspection subcommands."""
    from repro.obs.render import format_span_line, format_span_summary, load_spans

    try:
        spans = load_spans(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.obs_command == "summary":
        print(format_span_summary(spans))
        return 0
    if args.last < 1:
        print("error: --last must be at least 1", file=sys.stderr)
        return 2
    if not spans:
        print("(no spans)")
        return 0
    for span in spans[-args.last:]:
        print(format_span_line(span))
    return 0


def _run_methods(args: argparse.Namespace) -> int:
    print(format_method_table())
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    print(format_dataset_table())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "integrate":
        return _run_integrate(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "export":
        return _run_export(args)
    if args.command == "merge":
        return _run_merge(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "store":
        return _run_store(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "methods":
        return _run_methods(args)
    if args.command == "datasets":
        return _run_datasets(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
