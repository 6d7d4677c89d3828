"""``python -m repro.experiments`` — figure-selectable, parallel, cached.

Examples::

    python -m repro.experiments                        # full report
    python -m repro.experiments --figures fig04,fig07  # two sections
    python -m repro.experiments --workers 4            # parallel warm-up
    python -m repro.experiments --no-cache             # ignore the store
    python -m repro.experiments --stats                # cache counters

A first run populates the content-addressed artifact store (see
``repro-cache info``); later runs replay from it and perform zero
compiles/runs for unchanged inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.engine.api import DEFAULT_TARGET_INSTRUCTIONS, Engine
from repro.engine.backends import BACKEND_ENV, backend_names, check_backend_env
from repro.sim.fastexec import EXEC_CHOICES
from repro.sim.kernels import KERNEL_CHOICES
from repro.experiments.report import FIGURES, generate_report, resolve_figures
from repro.experiments.runner import ExperimentRunner
from repro.workloads import UnknownWorkloadError, parse_pairs


def _parse_figures(text: str | None) -> list[str] | None:
    if not text or text == "all":
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation tables/figures.",
    )
    parser.add_argument(
        "--figures", default="all",
        help="comma-separated subset to regenerate "
             f"(available: {', '.join(FIGURES)}; default: all)",
    )
    parser.add_argument(
        "--pairs", default=None,
        help="comma-separated workload[/input] override applied to "
             "every pair-reading figure (registry names, including "
             "synth:<fingerprint>; input defaults to small)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="fan pipeline stages out over N workers (default: 1)",
    )
    parser.add_argument(
        "--backend", default=None, choices=backend_names(),
        help=f"execution backend (default: ${BACKEND_ENV}, else inline "
             "for --workers 1, process otherwise)",
    )
    parser.add_argument(
        "--target-instructions", type=int,
        default=DEFAULT_TARGET_INSTRUCTIONS,
        help="synthetic clone size target (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent artifact store entirely",
    )
    parser.add_argument(
        "--max-cache-bytes", type=int, default=None,
        help="size-cap the store: LRU-evict on put past this many bytes "
             "(default: $REPRO_CACHE_MAX_BYTES or unbounded)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print cache hit/miss counters to stderr afterwards",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record per-stage spans and a metrics snapshot to PATH "
             "(inspect with repro-trace summary/export)",
    )
    parser.add_argument(
        "--sim-kernel", default=None, choices=KERNEL_CHOICES,
        help="replay kernel for the timing models (default: "
             "$REPRO_SIM_KERNEL, else auto = numpy for long traces "
             "when available; results are byte-identical either way)",
    )
    parser.add_argument(
        "--sim-exec", default=None, choices=EXEC_CHOICES,
        help="functional execution engine (default: $REPRO_SIM_EXEC, "
             "else auto = the block-compiling fast engine; traces are "
             "byte-identical either way)",
    )
    args = parser.parse_args(argv)
    try:
        check_backend_env()
    except KeyError as exc:
        parser.error(f"${BACKEND_ENV}: {exc.args[0]}")
    if args.sim_kernel:
        # Exported rather than threaded through the engine: the env var
        # is the kernels' own selection channel and it reaches worker
        # subprocesses (process/shard backends) for free.
        os.environ["REPRO_SIM_KERNEL"] = args.sim_kernel
    if args.sim_exec:
        os.environ["REPRO_SIM_EXEC"] = args.sim_exec

    metrics = tracer = None
    if args.trace:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        metrics = MetricsRegistry()
        tracer = Tracer()
    engine = Engine(
        target_instructions=args.target_instructions,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        backend=args.backend,
        metrics=metrics,
        tracer=tracer,
    )
    if engine.store is not None and args.max_cache_bytes is not None:
        engine.store.max_bytes = args.max_cache_bytes
    runner = ExperimentRunner(
        target_instructions=args.target_instructions, engine=engine,
    )
    try:
        # Validate the selection up front so only bad --figures input is
        # reported as a usage error; KeyErrors from the pipeline itself
        # must keep their tracebacks.
        figures = resolve_figures(_parse_figures(args.figures))
    except KeyError as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    try:
        # Same discipline for --pairs: registry resolution fails here
        # with suggestions (exit 2), not deep in the pipeline.
        pairs = parse_pairs(args.pairs)
    except UnknownWorkloadError as exc:
        parser.error(str(exc))
    print(generate_report(runner, figures=figures, workers=args.workers,
                          pairs=pairs))
    if args.stats:
        stats = engine.stats
        print(
            f"[repro.engine] cache: {stats.hits} hits, "
            f"{stats.misses} misses, {stats.puts} puts, "
            f"{stats.evictions} evictions",
            file=sys.stderr,
        )
    if tracer is not None:
        tracer.save(args.trace, metrics=metrics.snapshot())
        print(f"[repro.obs] trace: {len(tracer.spans())} span(s) -> "
              f"{args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
