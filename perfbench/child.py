"""One benchmark operation in a fresh interpreter.

``python perfbench/child.py JOB.json`` runs one job and writes its
result JSON to ``job["result"]``.  Jobs drive the program only through
its public entry points:

* ``report`` — ``repro.experiments.report.generate_report`` over the
  drawn pairs (every section), on the engine at one worker, inline.
* ``sweep`` — ``repro.explore.sweep.run_sweep`` over the 8-point replay
  space at x86_64 ``-O2``.
* ``fill-sweep`` — ``Engine.warm`` of the compile/run/profile/clone chain
  the sweep reads, so that the timed sweep starts with only replays
  missing.

The measured span ends when the operation returns: ``wall_s`` runs from
the parent's spawn time (the second argument, ``time.time()``) to that
point, so it includes interpreter start-up and imports, as a user's run
does.  What follows (with ``checks``: output oracle and fidelity; clone
sources; trace file) is outside the measurement.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import spans

REPORT_COORDS = tuple((isa, level) for isa in ("x86", "x86_64", "ia64")
                      for level in range(4))
SWEEP_COORD = ("x86_64", 2)

#: The replay sweep: width x ROB x L1, 2 values each.  An L2 axis as
#: well (16 points) adds about 5 s to every run for little new work: the
#: long traces are unpacked once per operation either way.
SWEEP_AXES = (("width", (2, 4)), ("rob", (32, 128)), ("l1_kb", (8, 32)))


class FailedSection:
    """Stands in for a report section that raised, so the report still
    renders and the failure is counted instead of aborting the run."""

    def __init__(self, name: str, exc: Exception) -> None:
        self.message = f"{name}: {type(exc).__name__}: {exc}"

    def format_table(self) -> str:
        return f"(section failed: {self.message})"


def capture_sections(report, captured: dict, failures: list,
                     recorder=None) -> None:
    """Wrap every ``report.FIGURES`` entry to keep its result object
    (and, when tracing, to record an ``experiments.<name>`` span)."""
    import dataclasses

    for name, spec in list(report.FIGURES.items()):
        def run(runner, pairs, _name=name, _run=spec.run):
            try:
                result = _run(runner, pairs)
            except Exception as exc:  # counted as a failed operation
                failure = FailedSection(_name, exc)
                failures.append(failure.message)
                return failure
            captured[_name] = result
            return result

        if recorder is not None:
            run = recorder.wrap(f"experiments.{name}", run)
        report.FIGURES[name] = dataclasses.replace(spec, run=run)


def sweep_preset(pairs):
    from repro.explore.space import Axis, DesignSpace, Preset

    space = DesignSpace(
        name="bench-replay",
        axes=tuple(Axis(name, values) for name, values in SWEEP_AXES),
        base={"isa": SWEEP_COORD[0], "opt_level": SWEEP_COORD[1]},
        description="width x ROB x L1 replay sweep at x86_64 -O2",
    )
    return Preset(space, tuple(pairs))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else -1.0


def report_fidelity(captured: dict, synth: bool = False) -> dict:
    """Figs. 7-10 clone-fidelity errors from the report's result objects,
    averaged over the builtin pairs, or with *synth* the ``synth:`` pairs
    only."""
    out = {}

    def sides(name, *keys):
        """(original row, clone row) for every selected pair."""
        rows = [row for row in captured[name].rows
                if row["workload"].startswith("synth:") == synth]
        org = {tuple(row[k] for k in keys): row for row in rows
               if row["side"] == "ORG"}
        return [(org[tuple(row[k] for k in keys)], row) for row in rows
                if row["side"] == "SYN"]

    pair = ("workload", "input")
    if "fig07" in captured and "fig08" in captured:
        out["cache_hr_err"] = _mean(
            abs(syn["hit_rates"][size] - rate)
            for name in ("fig07", "fig08") for org, syn in sides(name, *pair)
            for size, rate in org["hit_rates"].items())
    if "fig09" in captured:
        out["branch_acc_err"] = _mean(
            abs(syn["accuracy"] - org["accuracy"])
            for org, syn in sides("fig09", *pair, "level"))
    if "fig10" in captured:
        out["cpi_err"] = _mean(
            abs(syn["cpi"][kb] - cpi) / cpi
            for org, syn in sides("fig10", *pair)
            for kb, cpi in org["cpi"].items())
    return out


def draw_fidelity(captured: dict) -> dict:
    """Fig. 11 and explore-sweep errors of the report itself, over the
    whole draw (the ``synth:`` pair included)."""
    out = {}
    if "fig11" in captured:
        out["fig11_err"] = captured["fig11"].average_error
    if "explore" in captured:
        out["sweep_score"] = _mean(r.score
                                   for r in captured["explore"].records)
    return out


def builtin_set_fidelity(runner, pairs, workdir: str) -> dict:
    """Fig. 11 and the report's isa-opt sweep again, over the builtin
    pairs only, from the store the report filled.

    Both aggregate their whole pair set, and a seeded ``synth:`` member
    moved them by up to 20% from seed to seed; over the fixed builtin
    pairs they move only by the compiler's hash-seed nondeterminism.  The
    sweep scores into a throwaway results DB so the store is unchanged.
    """
    import tempfile
    from pathlib import Path

    from repro.experiments.fig11_machines import run_fig11
    from repro.explore.db import ResultsDB
    from repro.explore.space import get_preset
    from repro.explore.sweep import run_sweep

    builtin = [pair for pair in pairs if not pair[0].startswith("synth:")]
    fig11 = run_fig11(runner, builtin)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp, \
            ResultsDB(Path(tmp) / "explore.sqlite3") as db:
        swept = run_sweep(get_preset("isa-opt"), engine=runner.engine,
                          db=db, pairs=builtin)
    return {"fig11_err": fig11.average_error,
            "sweep_score": _mean(r.score for r in swept.records)}


def sweep_fidelity(result) -> dict:
    """The same errors over the sweep's points: L1 |dHR|, branch
    accuracy, relative CPI, Fig. 11-style normalized-runtime error (each
    side normalized to its first point), and the mean score."""
    metrics = [r.metrics for r in result.records]
    if not metrics:
        return {}
    org_base = metrics[0]["org_runtime_s"]
    syn_base = metrics[0]["syn_runtime_s"]
    speedup_errors = []
    for m in metrics:
        org_speedup = org_base / m["org_runtime_s"]
        syn_speedup = syn_base / m["syn_runtime_s"]
        speedup_errors.append(abs(syn_speedup - org_speedup) / org_speedup)
    return {
        "cache_hr_err": _mean(m["miss_rate_err"] for m in metrics),
        "branch_acc_err": _mean(m["branch_acc_err"] for m in metrics),
        "cpi_err": _mean(m["cpi_err"] for m in metrics if "cpi_err" in m),
        "fig11_err": _mean(speedup_errors),
        "sweep_score": _mean(r.score for r in result.records),
    }


def check_outputs(engine, pairs, coords) -> tuple[int, list[str]]:
    """Compare every original-side program output with the workload's
    independent Python oracle; returns (checked, mismatches)."""
    from repro.workloads import get_workload

    checked, wrong = 0, []
    for workload, input_name in pairs:
        expected = get_workload(workload).expected_output(input_name)
        for isa, level in coords:
            checked += 1
            trace = engine.original_trace(workload, input_name, isa, level)
            if trace.output != expected:
                wrong.append(f"{workload}/{input_name}@{isa}-O{level}")
    return checked, wrong


def main(job_path: str, spawn_wall: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    recorder = spans.SpanRecorder() if job.get("trace") else None
    import_start = time.perf_counter()
    from repro.obs.trace import Tracer

    tracer = Tracer() if recorder is not None else None
    from repro.engine.api import Engine
    from repro.experiments import report
    from repro.experiments.runner import ExperimentRunner
    from repro.explore import sweep
    from repro.explore.db import ResultsDB

    if recorder is not None:
        spans.install(recorder)
        recorder.add("python.import", import_start, time.perf_counter())

    pairs = [tuple(pair) for pair in job["pairs"]]
    engine = Engine(workers=1, backend="inline", cache_dir=job["store"])
    out: dict = {"failures": [], "attempted": 0}
    kind = job["kind"]
    captured: dict = {}
    runner = ExperimentRunner(engine=engine)
    if kind == "report":
        capture_sections(report, captured, out["failures"], recorder)
        report.generate_report(runner, workers=1, pairs=pairs)
    elif kind == "sweep":
        with ResultsDB(f"{job['store']}/explore.sqlite3") as db:
            result = sweep.run_sweep(sweep_preset(pairs), engine=engine,
                                     db=db, pairs=pairs)
    elif kind == "fill-sweep":
        engine.warm(pairs, coords=[SWEEP_COORD])
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    out["wall_s"] = time.time() - spawn_wall
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024
    if recorder is not None:
        recorder.active = False

    if job.get("checks") and kind == "report":
        out["attempted"] += len(report.FIGURES)
        out["fidelity"] = {**report_fidelity(captured),
                           **builtin_set_fidelity(
                               runner, pairs, os.path.dirname(job["result"]))}
        out["fidelity_synth"] = report_fidelity(captured, synth=True)
        out["fidelity_draw"] = draw_fidelity(captured)
        coords = REPORT_COORDS
    elif job.get("checks") and kind == "sweep":
        out["attempted"] += len(result.points) + len(result.failed)
        out["failures"] += [f"point {point.label()}: {exc}"
                            for point, exc in result.failed]
        out["fidelity"] = sweep_fidelity(result)
        coords = (SWEEP_COORD,)
    if job.get("checks"):
        checked, wrong = check_outputs(engine, pairs, coords)
        out["attempted"] += checked
        out["failures"] += [f"wrong output: {name}" for name in wrong]
    if job.get("clone_sources"):
        out["clone_sources"] = {
            f"{workload}/{input_name}": engine.clone(workload,
                                                     input_name).source
            for workload, input_name in pairs
        }
    if recorder is not None:
        out["layers"] = spans.layer_metrics(recorder.spans, out["wall_s"])
        out["store_stages"] = {stage: info["bytes"] for stage, info
                               in engine.store.by_stage().items()}
        recorder.write(tracer)
        tracer.save(job["trace_path"])
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], float(sys.argv[2])))
