"""Topological DAG scheduler over pluggable execution backends.

:func:`run_graph` executes a ``{task_id: Task}`` graph in dependency
order.  The scheduler owns ordering, cache probing, dependency
resolution, and store accounting; *where* stages run belongs to an
:class:`~repro.engine.backends.ExecutionBackend` (``inline``,
``process``, ``shard``, or anything registered by a third party).
``workers=1`` with no explicit backend resolves to the inline backend
and stays byte-for-byte deterministic (Kahn + sorted-ready order);
``workers>1`` defaults to the process pool, the historical fan-out,
unless ``REPRO_BACKEND`` or the ``backend`` argument says otherwise.

Cache discipline: the parent consults the store once per node before
dispatch (a hit skips execution entirely and counts toward
``store.stats.hits``; a miss counts toward ``misses``).  Backends that
persist results themselves (``persists=True`` — the process pool and
shard backends) write through their own store handles and the parent
only accounts for the put, so a warm run reports zero misses and
performs zero compiles/runs no matter the backend.
"""

from __future__ import annotations

import time
from typing import Any

from repro.engine.backends import resolve_backend
from repro.engine.backends.base import ExecutionContext
from repro.engine.store import ArtifactStore
from repro.engine.tasks import Task, key_fields, run_stage

_MISS = object()


class GraphError(ValueError):
    """Raised for cyclic graphs or dangling dependency references."""


def topological_order(graph: dict[str, Task]) -> list[Task]:
    """Deterministic topological order (Kahn's algorithm, sorted ties)."""
    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {task_id: [] for task_id in graph}
    for task in graph.values():
        count = 0
        for dep in task.deps:
            if dep not in graph:
                raise GraphError(f"{task.id} depends on unknown task {dep!r}")
            dependents[dep].append(task.id)
            count += 1
        indegree[task.id] = count

    ready = sorted(task_id for task_id, deg in indegree.items() if deg == 0)
    order: list[Task] = []
    while ready:
        task_id = ready.pop(0)
        order.append(graph[task_id])
        newly_ready = []
        for child in dependents[task_id]:
            indegree[child] -= 1
            if indegree[child] == 0:
                newly_ready.append(child)
        if newly_ready:
            ready = sorted(ready + newly_ready)
    if len(order) != len(graph):
        unreached = sorted(set(graph) - {task.id for task in order})
        raise GraphError(f"dependency cycle involving: {', '.join(unreached)}")
    return order


def _lookup(store: ArtifactStore | None, task: Task, keyer):
    if store is None:
        return None, _MISS
    key = store.key_for(task.stage, **keyer(task))
    return key, store.get(key, _MISS)


def _run_whole_graph(graph, order, results, store, backend, context):
    """Drive a ``whole_graph`` backend: probe the cache for every node
    up front (deterministic order, parent-side counters), hand the
    unresolved remainder to the backend in one call."""
    metrics, tracer = context.metrics, context.tracer
    pending: list[Task] = []
    for task in order:
        if task.id in results:
            continue
        _, cached = _lookup(store, task, context.keyer)
        if cached is not _MISS:
            results[task.id] = cached
            if metrics is not None:
                metrics.count("engine_cache", tag="hit", label="outcome")
            if tracer is not None:
                tracer.add_span(task.id, task.stage, tracer.now(), 0.0,
                                {"outcome": "hit"})
            continue
        if metrics is not None and store is not None:
            metrics.count("engine_cache", tag="miss", label="outcome")
        pending.append(task)
    if pending:
        backend.start(context)
        try:
            results.update(
                backend.execute_graph(graph, pending, dict(results), context)
            )
        finally:
            backend.shutdown()
    return results


def run_graph(
    graph: dict[str, Task],
    workers: int = 1,
    store: ArtifactStore | None = None,
    preloaded: dict[str, Any] | None = None,
    runner=run_stage,
    keyer=key_fields,
    backend=None,
    on_timing=None,
    stop=None,
    metrics=None,
    tracer=None,
) -> dict[str, Any]:
    """Execute *graph*; returns ``{task_id: result}`` for every node.

    Nodes whose ids appear in *preloaded* are taken as already resolved
    (no store lookup, no execution) — the engine seeds these from its
    in-process memo.  *runner* and *keyer* default to the experiment
    pipeline's stage executor and content-address recipe; tests (or
    future non-pipeline graphs) may substitute any picklable pair.

    *backend* selects where stages run: an
    :class:`~repro.engine.backends.ExecutionBackend` instance, a
    registered name (``inline``/``process``/``shard``), or
    ``None`` for the default (``$REPRO_BACKEND``, else inline when
    ``workers <= 1``, else the process pool).

    *on_timing* — ``callable(stage, seconds)`` — observes each executed
    node's submit-to-completion wall-clock (cache hits are never
    reported).  The same measurement lands in the provenance sidecar of
    every parent-persisted put; worker-persisting backends record their
    own (exact, worker-side) seconds instead.  Whole-graph backends
    (``shard``) time inside their workers only.

    *stop* — ``callable() -> bool`` — polled before each dispatch; once
    true the scheduler submits nothing further, drains what is already
    in flight (persisting the results), and returns the partial result
    map.  This is the graceful-drain hook SIGTERM handling is built on.

    *metrics* — a :class:`repro.obs.MetricsRegistry` — collects cache
    probe outcomes, executed-stage counts, store-op deltas, and
    (volatile) ready-queue depth and dispatch latency.  *tracer* — a
    :class:`repro.obs.Tracer` — records one span per graph node
    (category = stage, cache outcome in ``args``) plus a root
    ``run_graph`` span; shard workers report their own spans, which the
    backend remaps onto this tracer's timeline.  The store-op and
    cache-probe accounting is parent-side and therefore identical
    across backends for the same graph and store state.
    """
    order = topological_order(graph)
    # Iterate the graph, not *preloaded*: the engine's memo is far
    # larger, and another thread may be inserting into it meanwhile.
    preloaded = preloaded or {}
    results: dict[str, Any] = {
        task_id: preloaded[task_id] for task_id in graph
        if task_id in preloaded
    }
    if not graph:
        return results
    if backend is None and len(graph) <= 1:
        # Nothing to fan out; don't pay pool startup for one node.  An
        # explicit backend choice is honored even here.
        backend = "inline"
    backend = resolve_backend(backend, workers=workers)
    if tracer is not None:
        # Worker threads record exact in-worker stage spans; the wrapper
        # degrades to the bare runner under pickling (process/shard),
        # where the parent-side dispatch span or the worker's own tracer
        # covers the node instead.
        from repro.obs.trace import TracedRunner
        runner = TracedRunner(tracer, runner)
    context = ExecutionContext(store=store, runner=runner, keyer=keyer,
                               metrics=metrics, tracer=tracer)
    stats_before = (store.stats.as_dict()
                    if metrics is not None and store is not None else None)
    root_start = tracer.now() if tracer is not None else 0.0

    try:
        if backend.whole_graph:
            results = _run_whole_graph(graph, order, results, store, backend,
                                       context)
        else:
            results = _run_submitting(graph, results, store, backend, context,
                                      on_timing=on_timing, stop=stop)
        if (store is not None and backend.persists
                and store.max_bytes is not None):
            # Workers write uncapped (see backends.local/shard); settle
            # the size cap once now that the run is complete.
            store.evict(max_bytes=store.max_bytes)
    finally:
        if tracer is not None:
            tracer.add_span("run_graph", "scheduler", root_start,
                            tracer.now() - root_start,
                            {"nodes": len(graph), "backend": backend.name})
        if stats_before is not None:
            for op, value in store.stats.as_dict().items():
                delta = value - stats_before.get(op, 0)
                if delta:
                    metrics.count("engine_store_ops", delta, tag=op,
                                  label="op")
    return results


def _run_submitting(graph, results, store, backend, context,
                    on_timing=None, stop=None):
    """The generic submit/wait loop shared by all per-task backends."""
    keyer = context.keyer
    metrics, tracer = context.metrics, context.tracer
    indegree = {task.id: len(task.deps) for task in graph.values()}
    dependents: dict[str, list[str]] = {task_id: [] for task_id in graph}
    for task in graph.values():
        for dep in task.deps:
            dependents[dep].append(task.id)

    ready = sorted(task_id for task_id, deg in indegree.items() if deg == 0)
    pending: dict = {}

    def resolve(task_id: str, value: Any) -> None:
        results[task_id] = value
        for child in dependents[task_id]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)

    def harvest(done) -> None:
        for future in done:
            task_id, key, submitted_at = pending.pop(future)
            value = future.result()
            elapsed = time.perf_counter() - submitted_at
            if store is not None:
                if backend.persists:
                    # The worker performed the actual write; account for
                    # it here so the parent's counters cover the run.
                    store.stats.puts += 1
                else:
                    store.put(key, value, stage=graph[task_id].stage,
                              seconds=elapsed)
            if on_timing is not None:
                on_timing(graph[task_id].stage, elapsed)
            if metrics is not None:
                stage = graph[task_id].stage
                metrics.count("engine_stages_executed", tag=stage,
                              label="stage")
                workload = graph[task_id].payload.get("workload")
                if workload:
                    metrics.count("engine_workload_stages", tag=workload,
                                  label="workload")
                metrics.observe_latency("engine_dispatch_seconds", elapsed,
                                        tags={"stage": stage})
            if tracer is not None:
                tracer.add_span(task_id, graph[task_id].stage,
                                submitted_at - tracer.epoch_perf, elapsed,
                                {"outcome": "executed"})
            resolve(task_id, value)
        ready.sort()

    backend.start(context)
    try:
        while ready or pending:
            # Drain the ready list: preloaded nodes and cache hits
            # resolve immediately (and may ready further nodes), misses
            # go to the backend.
            while ready:
                if stop is not None and stop():
                    # Draining: dispatch nothing further — not even
                    # free cache hits, whose resolution would only
                    # ready more work we are about to abandon.
                    ready.clear()
                    break
                task_id = ready.pop(0)
                task = graph[task_id]
                if task_id in results:
                    resolve(task_id, results[task_id])
                    ready.sort()
                    continue
                key, cached = _lookup(store, task, keyer)
                if cached is not _MISS:
                    if metrics is not None:
                        metrics.count("engine_cache", tag="hit",
                                      label="outcome")
                    if tracer is not None:
                        tracer.add_span(task_id, task.stage, tracer.now(),
                                        0.0, {"outcome": "hit"})
                    resolve(task_id, cached)
                    ready.sort()
                    continue
                if metrics is not None and store is not None:
                    metrics.count("engine_cache", tag="miss", label="outcome")
                deps = {dep: results[dep] for dep in task.deps}
                if metrics is not None:
                    # Queue depth at dispatch (this task included);
                    # interleaving-dependent, hence volatile.
                    metrics.observe("engine_ready_depth", len(ready) + 1,
                                    volatile=True)
                # Clock starts before submit: synchronous backends
                # (inline) do the work inside the call itself.
                submitted_at = time.perf_counter()
                future = backend.submit(task, deps)
                pending[future] = (task_id, key, submitted_at)
                if future.done():
                    # Synchronous backends complete in submit; harvest
                    # now so execution keeps the sorted-ready order.
                    harvest((future,))
            if not pending:
                break
            harvest(backend.wait(pending))
    finally:
        backend.shutdown()
    return results
