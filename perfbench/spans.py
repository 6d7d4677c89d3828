"""Layer spans recorded from outside the program, and their arithmetic.

The traced run wraps the public function at each module seam of
``repro`` (:func:`install`) so that every call records one span: name,
start, end and the id of the span that was open when it began.  Spans
stay in memory and are written once at the end through
``repro.obs.trace.Tracer.add_span``, parent id in ``args``, so the
``python -m repro.obs summary``/``export`` commands read them.

:func:`layer_metrics` turns spans into the per-layer metrics of
:data:`catalog.PER_LAYER`: a span's self time is its duration minus the
part of that interval its children cover, and whatever no span covers
is ``engine.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import catalog

ENGINE_STAGE = "engine.stage"


class SpanRecorder:
    """In-memory span list for one single-threaded run.

    Each span is ``[id, parent, name, start, end, args]`` with times
    from ``time.perf_counter``.  The engine runs on the inline backend,
    so a stack of open spans gives every span its parent.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Cleared when the measured operation ends, so that the checks
        #: run afterwards record nothing.
        self.active = True

    def add(self, name: str, start: float, end: float | None = None,
            args=None) -> list:
        """Record a span under the currently open one."""
        span = [len(self.spans), self._open[-1] if self._open else None,
                name, start, end, args]
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, describe=None):
        """Return *fn* recording one span per call; ``describe(args,
        kwargs, result)`` may attach a dict of counts to the span."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span = recorder.add(name, recorder.clock())
            recorder._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._open.pop()
                span[4] = recorder.clock()
            if describe is not None:
                span[5] = describe(args, kwargs, result)
            return result

        return traced

    def write(self, tracer) -> None:
        """Emit every span into a ``repro.obs.trace.Tracer``."""
        for span_id, parent, name, start, end, args in self.spans:
            record = {"id": span_id, "parent": parent}
            record.update(args or {})
            tracer.add_span(name, name.split(".", 1)[0],
                            start - tracer.epoch_perf, end - start, record,
                            pid=0, tid=0)


# -- installing the wrappers ---------------------------------------------------


def _patch_function(recorder, module_name, attr, name, describe=None):
    """Wrap ``module.attr`` and every ``from module import attr`` binding
    already loaded under ``repro``."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    traced = recorder.wrap(name, original, describe)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.split(".", 1)[0] != "repro" or loaded is None:
            continue
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, traced)


def _patch_method(recorder, cls, attr, name, describe=None):
    setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), describe))


def _static_instrs(args, kwargs, result):
    return {"static_instrs": result.binary.total_static_instructions}


def _instructions(args, kwargs, result):
    return {"instructions": result.instructions}


def _mem_accesses(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return {"mem_accesses": len(trace.mem_addrs)}


def _stage(args, kwargs, result):
    return {"stage": args[0].stage}


def _store_get(args, kwargs, result):
    store, key = args[0], args[1]
    default = args[2] if len(args) > 2 else kwargs.get("default")
    if result is default:
        return {"hit": 0}
    return {"hit": 1, "bytes": _size(store.path_for(key))}


def _store_put(args, kwargs, result):
    return {"bytes": _size(result)}


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


#: (module, function, span name, describe) for plain functions.
FUNCTIONS = (
    ("repro.experiments.report", "generate_report", "experiments.report",
     None),
    ("repro.experiments.report", "warm_figures", "experiments.warm_figures",
     None),
    ("repro.explore.sweep", "run_sweep", "explore.sweep", None),
    ("repro.explore.sweep", "score_point", "explore.score", None),
    ("repro.engine.scheduler", "run_graph", "engine.graph", None),
    ("repro.engine.tasks", "run_stage", ENGINE_STAGE, _stage),
    ("repro.cc.driver", "compile_program", "cc.compile", _static_instrs),
    ("repro.lang.parser", "parse_program", "lang.parse", None),
    ("repro.lang.semantics", "analyze", "lang.sema", None),
    ("repro.opt.inline", "inline_small_functions", "opt.ast", None),
    ("repro.opt.unroll", "unroll_loops", "opt.ast", None),
    ("repro.opt.pipeline", "optimize_ir", "opt.ir_passes", None),
    ("repro.ir.builder", "lower_program", "ir.lower", None),
    ("repro.ir.verify", "verify_program", "ir.verify", None),
    ("repro.isa.linker", "link_program", "isa.link", None),
    ("repro.sim.functional", "run_binary", "sim.run", _instructions),
    ("repro.profiling.profile", "profile_trace", "profiling.profile",
     _mem_accesses),
    ("repro.synthesis.synthesizer", "synthesize", "synthesis.synthesize",
     None),
    ("repro.synthesis.synthesizer", "synthesize_consolidated",
     "synthesis.synthesize", None),
    ("repro.synthesis.baseline", "synthesize_linear", "synthesis.synthesize",
     None),
    ("repro.workloads.synth", "generate_program", "workloads.generate", None),
    ("repro.sim.cache", "sweep_cache_sizes", "sim.cache", None),
    ("repro.sim.cache", "simulate_cache", "sim.cache", None),
    ("repro.sim.branch", "simulate_predictor", "sim.predictor", None),
)

#: Engine facade methods: their self time is key hashing and memo work.
ENGINE_METHODS = ("source", "original_trace", "profile", "clone",
                  "synthetic_trace", "replay_timing", "warm")

DB_METHODS = ("__init__", "close", "get", "put", "query", "searches",
              "rounds")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer seam of the already importable ``repro``."""
    from repro.engine.api import Engine
    from repro.engine.store import ArtifactStore
    from repro.explore.db import ResultsDB
    from repro.sim.timing_common import TimingModel

    # Import every user of the seams before patching, so that their
    # ``from ... import`` bindings are found and replaced.
    for module_name in ("repro.experiments.fig11_machines",
                        "repro.experiments.ablation",
                        *(module_name for module_name, *_ in FUNCTIONS)):
        importlib.import_module(module_name)
    for module_name, attr, name, describe in FUNCTIONS:
        _patch_function(recorder, module_name, attr, name, describe)
    for attr in ENGINE_METHODS:
        _patch_method(recorder, Engine, attr, "engine.api")
    _patch_method(recorder, ArtifactStore, "get", "engine.store.get",
                  _store_get)
    _patch_method(recorder, ArtifactStore, "put", "engine.store.put",
                  _store_put)
    for attr in DB_METHODS:
        _patch_method(recorder, ResultsDB, attr, "explore.db")
    _patch_method(recorder, TimingModel, "simulate", "sim.replay",
                  _instructions)


# -- arithmetic ------------------------------------------------------------------


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, _, start, end, _ in spans:
        inside = [(max(s, start), min(e, end))
                  for s, e in children.get(span_id, ()) if e > start
                  and s < end]
        result[span_id] = (end - start) - _covered(inside)
    return result


def _outside_engine(spans, name) -> int:
    by_id = {span[0]: span for span in spans}
    count = 0
    for span in spans:
        if span[2] != name:
            continue
        parent = span[1]
        while parent is not None and by_id[parent][2] != ENGINE_STAGE:
            parent = by_id[parent][1]
        count += parent is None
    return count


def _rate(spans, name, key, scale=1e6) -> float:
    work = seconds = 0.0
    for span in spans:
        if span[2] == name:
            work += (span[5] or {}).get(key, 0)
            seconds += span[4] - span[3]
    return work / seconds / scale if seconds > 0 else 0.0


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (``catalog.PER_LAYER`` minus
    the ones measured elsewhere: store sizes, overhead, line count)."""
    metrics = {metric: 0.0 for metric in catalog.SPAN_METRIC.values()}
    for span_id, seconds in self_times(spans).items():
        metrics[catalog.SPAN_METRIC[spans[span_id][2]]] += seconds
    roots = [(s[3], s[4]) for s in spans if s[1] is None]
    metrics["engine.unattributed_s"] = wall_s - _covered(roots)

    def count(name):
        return sum(1 for span in spans if span[2] == name)

    def total(name, key):
        return sum((span[5] or {}).get(key, 0) for span in spans
                   if span[2] == name)

    metrics["lang.parse_calls"] = count("lang.parse")
    metrics["cc.compile_calls"] = count("cc.compile")
    metrics["cc.compile_calls_outside_engine"] = _outside_engine(
        spans, "cc.compile")
    metrics["isa.static_instrs"] = total("cc.compile", "static_instrs")
    metrics["sim.run_calls"] = count("sim.run")
    metrics["sim.run_minstr_per_s"] = _rate(spans, "sim.run", "instructions")
    metrics["profiling.profile_calls"] = count("profiling.profile")
    metrics["profiling.maccess_per_s"] = _rate(spans, "profiling.profile",
                                               "mem_accesses")
    metrics["sim.replay_calls"] = count("sim.replay")
    metrics["sim.replay_minstr_per_s"] = _rate(spans, "sim.replay",
                                               "instructions")
    metrics["sim.replay_calls_outside_engine"] = _outside_engine(
        spans, "sim.replay")
    metrics["engine.store.get_calls"] = count("engine.store.get")
    metrics["engine.store.hits"] = total("engine.store.get", "hit")
    metrics["engine.store.misses"] = (metrics["engine.store.get_calls"]
                                      - metrics["engine.store.hits"])
    metrics["engine.store.get_mb"] = total("engine.store.get", "bytes") / 1e6
    metrics["engine.store.put_mb"] = total("engine.store.put", "bytes") / 1e6
    return metrics
