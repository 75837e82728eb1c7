"""Per-layer attribution for the traced run, built from benchmark code only.

:func:`install` wraps the program's public entry points in place — on the
defining class, and for module-level functions at *every* module that bound
the function by name (``from repro.data.claim_builder import
build_claim_matrix`` in ``repro.engine.facade`` is a separate binding).  Each
wrapper records calls, failures and busy time into a :class:`LayerClock`,
which keeps one stack of open layers so a layer's *self* time excludes the
nested layers it called.  Layers never interleave on one thread, except the
ASGI request coroutine, whose resumptions are timed slice by slice.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

perf_counter = time.perf_counter

#: Every layer the traced run attributes time to, in report order.
LAYERS = (
    "io.parse",
    "data.claims",
    "core.priors",
    "core.quality",
    "core.gibbs",
    "core.incremental",
    "engine.fit",
    "engine.partial_fit",
    "engine.to_artifact",
    "store.append",
    "io.store_source.batch",
    "serving.artifact.save",
    "serving.artifact.load",
    "serving.service.lookup",
    "serving.service.refresh",
    "api.app",
    "api.event_loop",
)
#: Outermost wrappers, whose self time absorbs whatever no inner layer names:
#: a growing share of them means an inner entry point lost its wrapper.
CATCH_ALL = ("engine.fit", "engine.partial_fit", "api.event_loop")
#: The load generator's own time: named so it can be excluded from the
#: wall that coverage is measured against.
CLIENT = "bench.client"


@dataclass
class LayerStats:
    calls: int = 0
    failures: int = 0
    busy_s: float = 0.0  # self time: nested layers excluded


class LayerClock:
    """Accumulates per-layer self time with a stack of open frames."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name in (*LAYERS, CLIENT)}
        self.counters: dict[str, float] = {
            "data.claims": 0,
            "core.gibbs.sweeps": 0,
            "core.gibbs.flips": 0,
            "core.gibbs.fact_visits": 0,
            "core.gibbs.claim_sweeps": 0,
            "serving.artifact.bytes": 0,
            "entity_top.hits": 0,
            "entity_top.misses": 0,
        }
        self._stack: list[list[float]] = []
        self._cache: Any = None  # the served snapshot's entity_top LRU

    def enter(self, name: str) -> list:
        """Open a frame: [layer, start, time spent in child layers]."""
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, failed: bool = False, produced: bool = True) -> None:
        """Close ``frame``; a call nested in its own layer is not counted again."""
        elapsed = perf_counter() - frame[1]
        stack = self._stack
        stack.pop()
        stats = self.stats[frame[0]]
        stats.busy_s += elapsed - frame[2]
        if failed:
            stats.failures += 1
        if stack:
            stack[-1][2] += elapsed
        if produced and not (stack and stack[-1][0] == frame[0]):
            stats.calls += 1

    def busy(self) -> dict[str, float]:
        return {name: stats.busy_s for name, stats in self.stats.items()}

    def attributed_since(self, before: dict[str, float]) -> dict[str, float]:
        """Busy seconds since ``before``: all program layers, and the catch-all ones."""
        delta = {name: stats.busy_s - before[name] for name, stats in self.stats.items()}
        return {
            "covered_s": sum(delta[name] for name in LAYERS),
            "catch_all_s": sum(delta[name] for name in CATCH_ALL),
        }

    def track_cache(self, cache: Any) -> None:
        """Follow a new snapshot's LRU cache; the one followed so far is retired."""
        self.harvest_caches()
        self._cache = cache

    def harvest_caches(self) -> None:
        """Fold the followed LRU cache's statistics into the counters."""
        if self._cache is not None:
            info = self._cache.cache_info()
            self.counters["entity_top.hits"] += info.hits
            self.counters["entity_top.misses"] += info.misses
            self._cache = None

    # -- wrappers -----------------------------------------------------------------
    def call(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Time a plain call; ``after(result, args)`` may update counters."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.leave(frame, failed=True)
                raise
            self.leave(frame)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def generator(self, name: str, fn: Callable) -> Callable:
        """Time every resumption of the generator ``fn`` returns.

        ``calls`` counts items produced (rows parsed, batches read).
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self._timed_iter(name, fn(*args, **kwargs))

        return wrapper

    def _timed_iter(self, name: str, inner: Any) -> Any:
        while True:
            frame = self.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                self.leave(frame, produced=False)
                return
            except BaseException:
                self.leave(frame, failed=True, produced=False)
                raise
            self.leave(frame)
            yield item

    def coroutine(self, name: str, fn: Callable) -> Callable:
        """Time an ``async def``'s running slices, not its suspensions."""

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.stats[name].calls += 1
            return await _TimedCoroutine(self, name, fn(*args, **kwargs))

        return wrapper


class _TimedCoroutine:
    def __init__(self, clock: LayerClock, name: str, coro: Any):
        self.clock, self.name, self.coro = clock, name, coro

    def __await__(self) -> Any:
        clock, name, coro = self.clock, self.name, self.coro
        send_value: Any = None
        error: BaseException | None = None
        while True:
            frame = clock.enter(name)
            try:
                yielded = coro.throw(error) if error is not None else coro.send(send_value)
            except StopIteration as stop:
                clock.leave(frame, produced=False)
                return stop.value
            except BaseException:
                clock.leave(frame, failed=True, produced=False)
                raise
            clock.leave(frame, produced=False)
            try:
                send_value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine next slice
                send_value, error = None, exc


def _rebind(original: Any, wrapped: Any) -> None:
    """Replace ``original`` by ``wrapped`` wherever a repro module bound it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def install(clock: LayerClock) -> None:
    """Wrap every traced entry point of an imported ``repro``."""
    import asyncio.base_events

    import repro  # noqa: F401  (binds every module the rebinding scans)
    from repro.api.testing import ASGIClient
    from repro.core.gibbs import CollapsedGibbsSampler
    from repro.core.incremental import IncrementalLTM
    from repro.core.priors import LTMPriors
    from repro.core import quality
    from repro.data import claim_builder, loaders
    from repro.engine.facade import TruthEngine
    from repro.io import catalog
    from repro.io.sources import TripleFileSource
    from repro.io.store_source import StoreSource
    from repro.serving import service as service_module
    from repro.serving.artifact import TruthArtifact
    from repro.serving.service import TruthService
    from repro.store.claims import ClaimStore

    def count_claims(matrix: Any, _args: tuple) -> None:
        clock.counters["data.claims"] += matrix.num_claims

    def count_sweeps(result: Any, args: tuple) -> None:
        _scores, _counts, trace = result
        claims = args[1]
        sweeps = trace.total_iterations
        counters = clock.counters
        counters["core.gibbs.sweeps"] += sweeps
        counters["core.gibbs.flips"] += sum(trace.flips_per_iteration)
        counters["core.gibbs.fact_visits"] += sweeps * claims.num_facts
        counters["core.gibbs.claim_sweeps"] += sweeps * claims.num_claims

    def count_bytes(path: Any, _args: tuple) -> None:
        clock.counters["serving.artifact.bytes"] += _dir_bytes(path)

    _rebind(loaders.iter_triples_csv, clock.generator("io.parse", loaders.iter_triples_csv))
    _rebind(catalog.as_source, clock.call("io.parse", catalog.as_source))
    # build_claim_matrix and every source's to_claim_matrix delegate here.
    original = claim_builder.bulk_build_claim_matrix
    _rebind(original, clock.call("data.claims", original, after=count_claims))
    for name in ("estimate_source_quality", "expected_confusion_counts"):
        original = getattr(quality, name)
        _rebind(original, clock.call("core.quality", original))

    TripleFileSource.iter_triples = clock.generator("io.parse", TripleFileSource.iter_triples)
    LTMPriors.adaptive = classmethod(clock.call("core.priors", LTMPriors.adaptive.__func__))
    CollapsedGibbsSampler.run = clock.call("core.gibbs", CollapsedGibbsSampler.run, after=count_sweeps)
    IncrementalLTM.fit = clock.call("core.incremental", IncrementalLTM.fit)
    TruthEngine.fit = clock.call("engine.fit", TruthEngine.fit)
    TruthEngine.partial_fit = clock.call("engine.partial_fit", TruthEngine.partial_fit)
    TruthEngine.to_artifact = clock.call("engine.to_artifact", TruthEngine.to_artifact)
    ClaimStore.append = clock.call("store.append", ClaimStore.append)
    StoreSource.iter_batches = clock.generator("io.store_source.batch", StoreSource.iter_batches)
    TruthArtifact.save = clock.call("serving.artifact.save", TruthArtifact.save, after=count_bytes)
    TruthArtifact.load = classmethod(clock.call("serving.artifact.load", TruthArtifact.load.__func__))
    for name in ("truth_of", "lookup", "batch", "top_k"):
        setattr(TruthService, name, clock.call("serving.service.lookup", getattr(TruthService, name)))
    TruthService.refresh = clock.call("serving.service.refresh", TruthService.refresh)
    ASGIClient.request = clock.coroutine("api.app", ASGIClient.request)
    # The in-process server's scheduling cost: one loop iteration per task
    # step, minus the request and client slices it runs.
    loop_cls = asyncio.base_events.BaseEventLoop
    loop_cls._run_once = clock.call("api.event_loop", loop_cls._run_once)

    # The API reads through per-snapshot objects: time their ranked reads and
    # fold each retired snapshot's LRU statistics into the counters.
    snapshot_cls = service_module._Snapshot
    snapshot_init = snapshot_cls.__init__
    snapshot_cls.top = clock.call("serving.service.lookup", snapshot_cls.top)

    def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
        snapshot_init(self, *args, **kwargs)
        clock.track_cache(self.entity_top)
        self.entity_top = clock.call("serving.service.lookup", self.entity_top)

    snapshot_cls.__init__ = traced_init
