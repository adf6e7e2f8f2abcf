"""Span tracer that times the program's layers from outside.

:func:`install` replaces public functions and methods of the ``repro``
modules with thin wrappers that record one span per call -- name,
start, end, parent span and, on the request path, a request id -- plus
counts taken at the same boundaries (cache hits, batch widths, solver
iterations, bytes flushed).  Nothing inside the program changes: the
wrappers are installed by the benchmark process (or by the
``serve_traced`` launcher for the HTTP server) before any work starts,
spans are kept in memory, and :meth:`Tracer.dump` writes them out at
the end.

:func:`layer_metrics` reduces the spans and counts to the per-layer
metrics named in ``BENCHMARK.json``.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections.abc import Callable
from typing import Any

from common import percentile

#: The request a span belongs to.  Set when a request body is parsed;
#: asyncio tasks each carry their own value, so interleaved requests on
#: the event loop keep their ids apart.
REQUEST_ID: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request_id", default=None)

#: The coalescer's flusher thread (batches are counted there only).
COALESCER_THREAD = "repro-coalescer"


class Tracer:
    """In-memory span and count store shared by every wrapper."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, name, start, end, request_id)`` tuples.
        self.spans: list[tuple[int, int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def new_request(self) -> None:
        REQUEST_ID.set(next(self._request_ids))

    def wrap(self, name: str, fn: Callable[..., Any],
             before: Callable[..., Any] | None = None,
             after: Callable[..., None] | None = None) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``before(args, kwargs)`` runs first and its return value is
        handed to ``after(token, args, kwargs, result)``, which runs
        once the span is closed (so hook work is not billed to it).
        """
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before is not None else None
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              REQUEST_ID.get()))
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span (one JSON list per line) and the counts."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- installation -------------------------------------------------------


def _rebind(original: Any, wrapped: Any, attr: str) -> None:
    """Point every loaded ``repro`` module's ``attr`` at ``wrapped``
    where it currently holds ``original`` (names imported with
    ``from module import fn`` are separate bindings)."""
    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) \
                and module is not None \
                and module.__dict__.get(attr) is original:
            setattr(module, attr, wrapped)


def _wrap_function(tracer: Tracer, module: Any, attr: str, name: str,
                   **hooks: Any) -> None:
    original = getattr(module, attr)
    _rebind(original, tracer.wrap(name, original, **hooks), attr)


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str,
                 **hooks: Any) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr,
                classmethod(tracer.wrap(name, raw.__func__, **hooks)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **hooks))


def _file_state(path: Any) -> tuple[int, int, int] | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of the program."""
    import repro.analysis.grid as grid
    import repro.core.batch as batch
    import repro.core.model as model
    import repro.service.cache as cache
    import repro.service.coalesce as coalesce
    import repro.service.executor as executor
    import repro.service.keys as keys
    import repro.service.router as router
    import repro.service.schema as schema
    import repro.sim.system as system
    import repro.sim.vector as vector
    import repro.sweepq.queue as queue
    import repro.sweepq.worker as worker
    import repro.workload.derived as derived

    # Load every module that binds a traced name, so _rebind sees it.
    import repro.cli  # noqa: F401
    import repro.service.aio  # noqa: F401
    import repro.sweepq  # noqa: F401

    # service.router / service.schema / service.keys
    _wrap_function(tracer, router, "parse_json_body", "router.parse",
                   before=lambda args, kwargs: tracer.new_request())
    _wrap_method(tracer, router.Response, "json", "router.encode")
    _wrap_method(tracer, schema.SolveRequest, "from_payload",
                 "schema.solve_request")
    _wrap_function(tracer, keys, "prime_task_keys", "keys.prime")
    _wrap_function(tracer, keys, "task_key", "keys.task_key")

    # service.cache
    def after_get(_token: Any, args: Any, kwargs: Any, result: Any) -> None:
        tracer.count("cache.hits" if result is not None else "cache.misses")

    def after_put(_token: Any, args: Any, kwargs: Any, result: Any) -> None:
        tracer.count("cache.stores")

    _wrap_method(tracer, cache.ResultCache, "get", "cache.get",
                 after=after_get)
    _wrap_method(tracer, cache.ResultCache, "put", "cache.put",
                 after=after_put)

    put_many = tracer.wrap("cache.put", cache.ResultCache.put_many)

    def put_many_counted(self: Any, items: Any) -> None:
        items = list(items)
        tracer.count("cache.stores", len(items))
        put_many(self, items)

    cache.ResultCache.put_many = put_many_counted  # type: ignore[method-assign]

    def before_flush(args: Any, kwargs: Any) -> Any:
        path = args[0].path
        return None if path is None else (path, _file_state(path))

    def after_flush(token: Any, args: Any, kwargs: Any, result: Any) -> None:
        if token is None:
            return
        path, before_state = token
        after_state = _file_state(path)
        if after_state is not None and after_state != before_state:
            tracer.count("cache.flushes")
            tracer.count("cache.flush_bytes", after_state[2])

    _wrap_method(tracer, cache.ResultCache, "flush", "cache.flush",
                 before=before_flush, after=after_flush)

    init = cache.ResultCache.__init__
    load = tracer.wrap("cache.load", init)

    def init_traced(self: Any, capacity: int = 4096, path: Any = None) -> None:
        (init if path is None else load)(self, capacity, path)

    cache.ResultCache.__init__ = init_traced  # type: ignore[method-assign]

    # service.coalesce
    def after_submit(_token: Any, args: Any, kwargs: Any,
                     result: Any) -> None:
        future = result[0]
        tracer.count("coalesce.requests")
        if future.done():
            return
        submitted = time.perf_counter()
        future.add_done_callback(lambda _f: tracer.sample(
            "coalesce.wait_s", time.perf_counter() - submitted))

    _wrap_method(tracer, coalesce.SolveCoalescer, "submit_request",
                 "coalesce.submit", after=after_submit)

    # service.executor / service.metrics
    def after_mva_batch(_token: Any, args: Any, kwargs: Any,
                        result: Any) -> None:
        if threading.current_thread().name == COALESCER_THREAD:
            tracer.count("coalesce.batches")
            tracer.count("coalesce.batch_cells", len(result))

    _wrap_function(tracer, executor, "evaluate_mva_batch",
                   "executor.evaluate_mva_batch", after=after_mva_batch)
    _wrap_function(tracer, executor, "evaluate_task",
                   "executor.evaluate_task")
    _wrap_method(tracer, executor.SweepExecutor, "run", "executor.run")
    _wrap_function(tracer, executor, "record_solve_metrics",
                   "metrics.record")
    _wrap_function(tracer, executor, "record_solve_metrics_batch",
                   "metrics.record")

    # core.batch / core.model / workload.derived
    def after_solve_batch(_token: Any, args: Any, kwargs: Any,
                          result: Any) -> None:
        diagnostics = result.diagnostics
        tracer.count("batch.cells", len(diagnostics))
        tracer.count("batch.iterations",
                     sum(d.iterations for d in diagnostics))
        tracer.count("batch.converged",
                     sum(1 for d in diagnostics if d.converged))

    _wrap_function(tracer, batch, "solve_batch", "batch.solve",
                   after=after_solve_batch)
    _wrap_method(tracer, model.CacheMVAModel, "solve", "model.solve",
                 after=lambda _t, a, k, report: tracer.count(
                     "model.iterations", report.iterations))
    _wrap_function(tracer, derived, "derive_inputs", "derived.derive")

    # sweepq
    _wrap_method(tracer, queue.SweepQueue, "run", "sweepq.run")
    _wrap_function(tracer, worker, "solve_chunk", "sweepq.solve_chunk")

    # sim
    def after_vector_run(_token: Any, args: Any, kwargs: Any,
                         result: Any) -> None:
        sim = args[0]
        config = sim.config
        tracer.count("sim.launches")
        tracer.count("sim.lanes", sim.reps)
        tracer.count("sim.requests", sim.reps * (
            config.warmup_requests + config.measured_requests))

    _wrap_function(tracer, system, "simulate", "sim.simulate")
    _wrap_method(tracer, vector.VectorSnoopingBusSimulator, "run",
                 "sim.vector_run", after=after_vector_run)

    # analysis.grid
    _wrap_function(tracer, grid, "to_csv", "grid.to_csv")


# -- reduction to per-layer metrics -------------------------------------

#: Layers whose self time is reported (``<layer>.self_s``).
LAYERS = ("router", "schema", "keys", "cache", "coalesce", "executor",
          "metrics", "batch", "model", "derived", "sweepq", "sim", "grid")


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call (calibrated)."""
    probe = Tracer()

    def plain() -> None:
        return None

    # With a counting hook, as most wrappers carry one.
    traced = probe.wrap("probe", plain,
                        after=lambda *_: probe.count("probe"))
    start = time.perf_counter()
    for _ in range(calls):
        plain()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


def layer_metrics(spans: list[Any], counts: dict[str, float],
                  samples: dict[str, list[float]]) -> dict[str, float]:
    """Reduce spans and counts to the per-layer metrics."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time: dict[int, float] = {}
    for span_id, parent, name, start, end, _rid in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for span_id, _parent, name, start, end, _rid in spans:
        layer = name.split(".", 1)[0]
        self_time[layer] = (self_time.get(layer, 0.0) + (end - start)
                            - child_time.get(span_id, 0.0))

    def c(name: str) -> float:
        return counts.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = c("cache.hits") + c("cache.misses")
    waits_ms = [1000.0 * w for w in samples.get("coalesce.wait_s", [])]
    sim_requests = c("sim.requests")
    metrics = {
        "router.parse_s": busy.get("router.parse", 0.0),
        "router.encode_s": busy.get("router.encode", 0.0),
        "schema.solve_request_s": busy.get("schema.solve_request", 0.0),
        "keys.prime_s": busy.get("keys.prime", 0.0),
        "keys.task_key_calls": calls.get("keys.task_key", 0),
        "keys.task_key_s": busy.get("keys.task_key", 0.0),
        "cache.lookups": lookups,
        "cache.hit_ratio": ratio(c("cache.hits"), lookups),
        "cache.get_s": busy.get("cache.get", 0.0),
        "cache.put_s": busy.get("cache.put", 0.0),
        "cache.flushes": c("cache.flushes"),
        "cache.flush_s": busy.get("cache.flush", 0.0),
        "cache.flush_bytes_per_fresh_cell": ratio(c("cache.flush_bytes"),
                                                  c("cache.stores")),
        "cache.load_s": busy.get("cache.load", 0.0),
        "coalesce.requests": c("coalesce.requests"),
        "coalesce.submit_s": busy.get("coalesce.submit", 0.0),
        "coalesce.wait_p50_ms": percentile(waits_ms, 0.50),
        "coalesce.wait_p99_ms": percentile(waits_ms, 0.99),
        "coalesce.batches": c("coalesce.batches"),
        "coalesce.cells_per_batch": ratio(c("coalesce.batch_cells"),
                                          c("coalesce.batches")),
        "executor.run_s": busy.get("executor.run", 0.0),
        "executor.evaluate_task_calls": calls.get("executor.evaluate_task", 0),
        "executor.evaluate_task_s": busy.get("executor.evaluate_task", 0.0),
        "executor.evaluate_mva_batch_s":
            busy.get("executor.evaluate_mva_batch", 0.0),
        "metrics.record_calls": calls.get("metrics.record", 0),
        "metrics.record_s": busy.get("metrics.record", 0.0),
        "batch.calls": calls.get("batch.solve", 0),
        "batch.cells": c("batch.cells"),
        "batch.iterations": c("batch.iterations"),
        "batch.converged_ratio": ratio(c("batch.converged"), c("batch.cells")),
        "batch.solve_s": busy.get("batch.solve", 0.0),
        "model.solve_calls": calls.get("model.solve", 0),
        "model.solve_s": busy.get("model.solve", 0.0),
        "model.iterations": c("model.iterations"),
        "derived.derive_calls": calls.get("derived.derive", 0),
        "derived.derive_s": busy.get("derived.derive", 0.0),
        "sweepq.run_s": busy.get("sweepq.run", 0.0),
        "sweepq.chunks": calls.get("sweepq.solve_chunk", 0),
        "sweepq.solve_chunk_s": busy.get("sweepq.solve_chunk", 0.0),
        "sim.simulate_calls": calls.get("sim.simulate", 0),
        "sim.lanes_per_launch": ratio(c("sim.lanes"), c("sim.launches")),
        "sim.simulate_s": busy.get("sim.simulate", 0.0),
        "sim.us_per_request": ratio(1e6 * busy.get("sim.vector_run", 0.0),
                                    sim_requests),
        "grid.to_csv_s": busy.get("grid.to_csv", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    if spans:
        window = max(s[4] for s in spans) - min(s[3] for s in spans)
    else:
        window = 0.0
    overhead = len(spans) * wrapper_cost_s()
    metrics["trace.spans"] = len(spans)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = ratio(overhead, window)
    return metrics
