"""The repository benchmark: cold report, warm report and replay sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one client: the next operation starts when the
previous one has finished; each operation is a fresh interpreter):

* ``report-cold`` — the full report (every section) over 1 small
  builtin pair and 1 seeded ``synth:`` recipe (see ``draws.py``),
  against an empty artifact store.
* ``report-warm`` — the same command and draw against the store that
  set-up filled with one cold report.
* ``sweep-replay`` — ``run_sweep`` over an 8-point width x ROB x L1
  space at x86_64 ``-O2`` over ``bitcount/large`` and ``susan/large``;
  set-up stores the compile/run/profile/clone chain, and every
  operation starts with no replays stored.

With ``--trace 0`` the last stdout line carries every end-to-end metric
of ``catalog.END_TO_END``; with ``--trace 1`` one untraced and one
traced operation give every per-layer metric of ``catalog.PER_LAYER``,
and the spans go to ``.bench_work/trace-<workload>-<seed>.json``
(``python -m repro.obs summary`` reads it).  The engine runs at one
worker on the inline backend; the timed operations never pin
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Keep perfbench/ free of generated files; the children cache their
# bytecode under the work directory instead.
sys.dont_write_bytecode = True

import catalog  # noqa: E402
import draws  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fixed, distinct hash seeds of the two nondeterminism compiles.
HASH_SEEDS = (1, 2)
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 3


def child_env(hash_seed: int | None = None) -> dict:
    """The parent's environment without any ``REPRO_*`` selection or
    pinned hash seed, running ``repro`` from this checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key not in ("PYTHONHASHSEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    # Bytecode goes under the work directory, never into the tracked
    # __pycache__ directories of src/.
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def python(args) -> None:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, args))} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")


class Run:
    """Work directory, store and child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.store = self.dir / "store"
        self.jobs = 0

    def job(self, kind: str, pairs, **options) -> dict:
        """Run one child job; returns its result (``wall_s`` measured
        from just before the interpreter is spawned)."""
        self.jobs += 1
        job_path = self.dir / f"job-{self.jobs}.json"
        result_path = self.dir / f"result-{self.jobs}.json"
        job = {"kind": kind, "pairs": pairs, "store": str(self.store),
               "result": str(result_path), **options}
        job_path.write_text(json.dumps(job))
        python([BENCH / "child.py", job_path, repr(time.time())])
        return json.loads(result_path.read_text())

    def bytecode(self) -> None:
        """Compile ``src/`` once into the bytecode cache (a no-op check
        when it is current)."""
        python(["-m", "compileall", "-q", SRC])

    def reset_store(self, keep: set | None = None) -> None:
        """Empty the store, or drop every file not in *keep*."""
        if keep is None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store.mkdir(parents=True)
            return
        for path in _files(self.store):
            if path not in keep:
                path.unlink()


def _files(root: Path) -> set:
    return {Path(dirpath) / name for dirpath, _, names in os.walk(root)
            for name in names}


def _megabytes(root: Path) -> float:
    return sum(path.stat().st_size for path in _files(root)) / 1e6


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in SRC.rglob("*.py"))


def setup(run: Run, pairs) -> tuple[float, dict, set | None]:
    """Prepare the store; returns (seconds, set-up job result, files
    to keep between operations or None for an empty store)."""
    if run.workload == "report-cold":
        # Cheap: repeat and take the median.
        seconds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            run.bytecode()
            run.reset_store()
            seconds.append(time.perf_counter() - start)
        return statistics.median(seconds), {}, None
    start = time.perf_counter()
    run.bytecode()
    run.reset_store()
    prepared = time.perf_counter() - start
    if run.workload == "report-warm":
        filled = run.job("report", pairs, clone_sources=True)
    else:
        filled = run.job("fill-sweep", pairs, clone_sources=True)
    # Set-up ends where the filling job's operation does; dumping the
    # clone sources after it is not set-up.
    return prepared + filled["wall_s"], filled, _files(run.store)


def operation(run: Run, pairs, keep, trace: bool = False) -> dict:
    """One timed operation, starting from the set-up store state."""
    if keep is None:
        run.reset_store()
    elif run.workload == "sweep-replay":
        run.reset_store(keep)
    kind = "sweep" if run.workload == "sweep-replay" else "report"
    options = {"checks": True,
               "clone_sources": run.workload == "report-cold"}
    if trace:
        options.update(trace=True, trace_path=str(
            WORK / f"trace-{run.workload}-{run.seed}.json"))
    return run.job(kind, pairs, **options)


def count_nondet(run: Run, sources: dict) -> dict:
    """Compile every clone source at each (ISA, -O) under two fixed hash
    seeds, in two concurrent interpreters; returns the number of
    differing binaries per pair."""
    sources_path = run.dir / "clone-sources.json"
    sources_path.write_text(json.dumps(sources))
    outs = [run.dir / f"nondet-{seed}.json" for seed in HASH_SEEDS]
    procs = [subprocess.Popen(
        [sys.executable, BENCH / "nondet.py", sources_path, out], cwd=ROOT,
        env=child_env(seed), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True) for seed, out in zip(HASH_SEEDS,
                                                                outs)]
    errors = [proc.communicate(timeout=CHILD_TIMEOUT_S)[1] for proc in procs]
    for proc, error in zip(procs, errors):
        if proc.returncode != 0:
            raise RuntimeError(f"nondet compile exited {proc.returncode}:\n"
                               f"{error[-4000:]}")
    first, second = (json.loads(out.read_text()) for out in outs)
    differing = dict.fromkeys(sources, 0)
    for key in first:
        differing[key.split("@")[0]] += first[key] != second[key]
    return differing


def measure(workload: str, seed: int, seconds: float, trace: bool,
            pairs=None, log=print) -> dict:
    """One benchmark run; returns the result object printed last."""
    pairs = [list(pair) for pair in (pairs or draws.draw(workload, seed))]
    log(f"workload {workload} seed {seed} pairs "
        + ",".join(f"{w}/{i}" for w, i in pairs))
    run = Run(workload, seed)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, filled, keep = setup(run, pairs)
        ops = []
        if trace:
            ops.append(operation(run, pairs, keep))
            ops.append(operation(run, pairs, keep, trace=True))
        else:
            while not ops or sum(op["wall_s"] for op in ops) < seconds:
                ops.append(operation(run, pairs, keep))
        failures = [f for op in ops for f in op["failures"]]
        fidelity = ops[-1]["fidelity"]
        log(f"operations: {len(ops)}, wall_s "
            + " ".join(f"{op['wall_s']:.3f}" for op in ops) + ", cpu_s "
            + " ".join(f"{op['cpu_s']:.3f}" for op in ops))
        log(f"fidelity: {json.dumps(fidelity)}")
        if ops[-1].get("fidelity_synth"):
            log("not metrics: fidelity of the synth: pair "
                + json.dumps(ops[-1]["fidelity_synth"])
                + ", of the whole draw "
                + json.dumps(ops[-1]["fidelity_draw"]))
        for failure in failures:
            log(f"FAILED {failure}")
        if trace:
            metrics = layer_metrics(ops, run, log)
        else:
            sources = ops[-1].get("clone_sources") or filled["clone_sources"]
            differing = count_nondet(run, sources)
            log(f"differing clone binaries per pair: {json.dumps(differing)}")
            metrics = {
                "wall_s": statistics.median(op["wall_s"] for op in ops),
                "setup_s": setup_s,
                "peak_rss_mb": statistics.median(op["peak_rss_mb"]
                                                 for op in ops),
                "store_mb": _megabytes(run.store),
                # Over the builtin pairs, like the fidelity metrics: the
                # seeded recipe's count moves with the seed (logged above).
                "nondet_binaries": sum(
                    count for pair, count in differing.items()
                    if not pair.startswith("synth:")),
                **{name: fidelity.get(name, -1.0) for name in
                   ("cache_hr_err", "branch_acc_err", "cpi_err",
                    "fig11_err", "sweep_score")},
            }
        missing = [name for name, value in metrics.items() if value == -1.0]
        for name in missing:
            log(f"FAILED metric {name} not computed")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    failed = len(failures) + len(missing)
    return {
        "correct": failed == 0,
        "attempted": sum(op["attempted"] for op in ops) + len(missing),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": catalog.UNITS[name]}
                    for name, value in metrics.items()},
    }


def layer_metrics(ops, run: Run, log=print) -> dict:
    untraced, traced = ops
    metrics = dict(traced["layers"])
    attributed = sum(metrics[name] for name in set(catalog.SPAN_METRIC.values()))
    log(f"traced wall {traced['wall_s']:.3f} s = layer self times "
        f"{attributed:.3f} s + unattributed "
        f"{metrics['engine.unattributed_s']:.3f} s")
    metrics["bench.trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics["repo.src_lines"] = src_lines()
    for stage in catalog.STORE_STAGES:
        metrics[f"engine.store.{stage}_mb"] = traced["store_stages"].get(
            stage, 0) / 1e6
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*catalog.WORKLOADS, "all"),
                        help="one workload, or all three in turn (one "
                             "result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    workloads = (catalog.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    for workload in workloads:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
