"""Names, units and directions of every metric the benchmark reports.

``END_TO_END`` is what a user of the system sees on one workload run
(printed with ``--trace 0``); ``PER_LAYER`` is what the separate traced
run attributes to each layer (printed with ``--trace 1``).  Every
``*_s`` per-layer metric is a *self* time: the span's duration minus the
part its child spans cover, so the per-layer seconds plus
``engine.unattributed_s`` add up to the traced run's wall time.

``BENCHMARK.json`` at the repository root repeats these lists; the
benchmark's own tests check that the two agree.
"""

from __future__ import annotations

WORKLOADS = ("report-cold", "report-warm", "sweep-replay")

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = (
    # wall_s IQR/median over 10 seeds: 0.02-0.04 on a quiet host, up to
    # 0.25 on the report workloads while the host was shared (times
    # 1.7-2x longer, drifting by minutes: two operations in one run agree
    # within 5%).
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("store_mb", "MB", "lower", 0.1),
    ("nondet_binaries", "count", "lower", 0.1),
    ("cache_hr_err", "ratio", "lower", 0.1),
    ("branch_acc_err", "ratio", "lower", 0.1),
    ("cpi_err", "ratio", "lower", 0.1),
    # Moves from run to run even on the same store: Fig. 11 recompiles
    # its consolidated clone, and the compiler's output depends on the
    # hash seed (see nondet_binaries).
    ("fig11_err", "ratio", "lower", 0.25),
    ("sweep_score", "ratio", "lower", 0.1),
)

#: Report sections, in report order (``repro.experiments.report.FIGURES``).
SECTIONS = ("fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
            "fig11", "explore", "history", "search", "obfuscation",
            "ablation")

#: Artifact-store stages reported by ``ArtifactStore.by_stage()``.
STORE_STAGES = ("compile", "run", "profile", "synthesize", "compile-clone",
                "run-clone", "replay", "synth-recipe")

#: Span name -> the self-time metric it is charged to.  Every span the
#: benchmark records appears here, which is what lets the self times
#: account for the whole traced wall time.
SPAN_METRIC = {
    "python.import": "python.import_s",
    "experiments.report": "experiments.report_s",
    "experiments.warm_figures": "experiments.warm_figures_s",
    **{f"experiments.{name}": f"experiments.{name}_s" for name in SECTIONS},
    "explore.sweep": "explore.sweep_s",
    "explore.score": "explore.score_s",
    "explore.db": "explore.db_s",
    "engine.api": "engine.graph_s",
    "engine.graph": "engine.graph_s",
    "engine.stage": "engine.graph_s",
    "engine.store.get": "engine.store.get_s",
    "engine.store.put": "engine.store.put_s",
    "cc.compile": "cc.compile_s",
    "lang.parse": "lang.parse_s",
    "lang.sema": "lang.sema_s",
    "opt.ast": "opt.ast_s",
    "opt.ir_passes": "opt.ir_passes_s",
    "ir.lower": "ir.lower_s",
    "ir.verify": "ir.verify_s",
    "isa.link": "isa.link_s",
    "sim.run": "sim.run_s",
    "profiling.profile": "profiling.profile_s",
    "synthesis.synthesize": "synthesis.synthesize_s",
    "workloads.generate": "workloads.generate_s",
    "sim.replay": "sim.replay_s",
    "sim.cache": "sim.cache_s",
    "sim.predictor": "sim.predictor_s",
}

_COUNTS = (
    "lang.parse_calls",
    "isa.static_instrs",
    "cc.compile_calls",
    "cc.compile_calls_outside_engine",
    "sim.run_calls",
    "profiling.profile_calls",
    "sim.replay_calls",
    "sim.replay_calls_outside_engine",
    "engine.store.get_calls",
    "engine.store.hits",
    "engine.store.misses",
    "repo.src_lines",
)

_RATES = (
    ("sim.run_minstr_per_s", "Minstr/s"),
    ("sim.replay_minstr_per_s", "Minstr/s"),
    ("profiling.maccess_per_s", "Maccess/s"),
)

_SIZES = (
    "engine.store.get_mb",
    "engine.store.put_mb",
    *(f"engine.store.{stage}_mb" for stage in STORE_STAGES),
)


def _per_layer():
    seconds = sorted(set(SPAN_METRIC.values()))
    rows = [(name, "s", "lower") for name in seconds]
    rows.append(("engine.unattributed_s", "s", "lower"))
    rows.append(("bench.trace_overhead_s", "s", "lower"))
    rows += [(name, "count", "higher" if name == "engine.store.hits"
              else "lower") for name in _COUNTS]
    rows += [(name, unit, "higher") for name, unit in _RATES]
    rows += [(name, "MB", "lower") for name in _SIZES]
    return tuple(rows)


#: (name, unit, better)
PER_LAYER = _per_layer()

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
