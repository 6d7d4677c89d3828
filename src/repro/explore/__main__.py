"""``python -m repro.explore`` — sweep, search, query, rank.

Examples::

    # Multi-point sweep through the engine, persisted to the results DB:
    python -m repro.explore run --preset smoke --workers 2

    # Adaptive search: spend a fixed evaluation budget instead of
    # enumerating the grid; every round lands in the DB as
    # <search>/round-<k> and a re-issued search resumes for free:
    python -m repro.explore search smoke --strategy hill --budget 8 --seed 0
    python -m repro.explore search microarch --strategy halving --budget 12

    # Answered entirely from the DB — zero compiles, zero runs:
    python -m repro.explore query --sweep smoke
    python -m repro.explore rank --sweep isa-opt --metric cpi_err --top 5
    python -m repro.explore compare smoke smoke-tuned

    # What can be swept:
    python -m repro.explore presets
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.engine.api import DEFAULT_TARGET_INSTRUCTIONS, Engine
from repro.engine.backends import BACKEND_ENV, backend_names, check_backend_env
from repro.engine.store import CACHE_DIR_ENV
from repro.explore.db import RESULTS_DB_ENV, ResultsDB, pareto_front
from repro.explore.search import DEFAULT_BUDGET, STRATEGIES, run_search
from repro.explore.space import PRESETS, format_point, get_preset
from repro.explore.sweep import run_sweep
from repro.sim.fastexec import EXEC_CHOICES
from repro.sim.kernels import KERNEL_CHOICES
from repro.workloads import UnknownWorkloadError
from repro.tables import format_table

_RANK_COLUMNS = ("org_cpi", "syn_cpi", "cpi_err", "miss_rate_err",
                 "branch_acc_err")


def _record_rows(records, metric: str | None = None,
                 pareto_keys: set | None = None) -> tuple[list[str], list]:
    headers = ["sweep", "point"] + list(_RANK_COLUMNS) + ["score"]
    if metric and metric not in headers:
        headers.append(metric)
    if pareto_keys is not None:
        headers.append("pareto")
    rows = []
    for record in records:
        row = [record.sweep, format_point(record.point)]
        row += [record.metrics.get(col, float("nan"))
                for col in _RANK_COLUMNS]
        row.append(record.score)
        if metric and metric not in ("score", *_RANK_COLUMNS):
            row.append(record.metrics.get(metric, float("nan")))
        if pareto_keys is not None:
            row.append("*" if record.key in pareto_keys else "")
        rows.append(row)
    return headers, rows


def _parse_where(items) -> dict:
    where = {}
    for item in items or ():
        axis, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--where expects axis=value, got {item!r}")
        where[axis] = value
    return where


def _parse_pairs(text: str | None):
    # Registry-validated so typos fail here with suggestions
    # (UnknownWorkloadError), not deep in the pipeline.
    from repro.workloads import parse_pairs

    return parse_pairs(text)


def _build_engine(args) -> Engine:
    if getattr(args, "sim_kernel", None):
        # The env var is the kernels' own selection channel and reaches
        # worker subprocesses (process/shard backends) for free.
        os.environ["REPRO_SIM_KERNEL"] = args.sim_kernel
    if getattr(args, "sim_exec", None):
        os.environ["REPRO_SIM_EXEC"] = args.sim_exec
    metrics = tracer = None
    if getattr(args, "trace", None):
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
    if engine.store is not None and \
            getattr(args, "max_cache_bytes", None) is not None:
        engine.store.max_bytes = args.max_cache_bytes
    return engine


def _save_trace(args, engine: Engine) -> None:
    if engine.tracer is None:
        return
    snapshot = engine.metrics.snapshot() if engine.metrics is not None \
        else None
    engine.tracer.save(args.trace, metrics=snapshot)
    print(f"[repro.obs] trace: {len(engine.tracer.spans())} span(s) -> "
          f"{args.trace}", file=sys.stderr)


def _resolve_db_path(args):
    """Keep both halves of a sweep together: a relocated artifact store
    carries its results DB along unless ``--db`` says otherwise, and
    ``--no-cache`` gets a throwaway DB so it measures pure compute
    instead of resuming stale persisted points.  Returns the path plus
    the tempdir keeping a throwaway DB alive (or ``None``)."""
    db_path = args.db
    throwaway: tempfile.TemporaryDirectory | None = None
    if db_path is None:
        if args.no_cache:
            throwaway = tempfile.TemporaryDirectory(prefix="repro-explore-")
            db_path = Path(throwaway.name) / "explore.sqlite3"
        elif args.cache_dir is not None:
            db_path = Path(args.cache_dir).expanduser() / "explore.sqlite3"
    return db_path, throwaway


def _print_engine_stats(engine: Engine) -> None:
    stats = engine.stats
    print(
        f"[repro.engine] cache: {stats.hits} hits, "
        f"{stats.misses} misses, {stats.puts} puts, "
        f"{stats.evictions} evictions",
        file=sys.stderr,
    )


def _cmd_run(args) -> int:
    engine = _build_engine(args)
    db_path, throwaway = _resolve_db_path(args)
    start = time.time()
    with ResultsDB(db_path) as db:
        result = run_sweep(
            get_preset(args.preset),
            engine=engine,
            db=db,
            workers=args.workers,
            sample_mode=args.sample,
            n=args.n,
            seed=args.seed,
            stride=args.stride,
            pairs=_parse_pairs(args.pairs),
            sweep_name=args.sweep_name,
            force=args.force,
            backend=args.backend,
        )
    elapsed = time.time() - start
    print(result.format_table(top=args.top))
    print(
        f"\n{result.computed} point(s) scored, {result.resumed} resumed "
        f"from {db.path} in {elapsed:.1f}s"
    )
    if throwaway is not None:
        throwaway.cleanup()
    if args.stats:
        _print_engine_stats(engine)
    _save_trace(args, engine)
    return 0


def _cmd_search(args) -> int:
    engine = _build_engine(args)
    db_path, throwaway = _resolve_db_path(args)
    start = time.time()
    with ResultsDB(db_path) as db:
        result = run_search(
            get_preset(args.preset),
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            engine=engine,
            db=db,
            workers=args.workers,
            pairs=_parse_pairs(args.pairs),
            search_name=args.search_name,
            backend=args.backend,
        )
    elapsed = time.time() - start
    print(result.format_table())
    best = result.best
    if best is not None:
        print(f"\nbest score {best.score:.6g} at "
              f"{format_point(best.point)} (sweep label {best.sweep})")
    print(
        f"{result.evaluated} evaluation(s) ({result.computed} scored, "
        f"{result.resumed} resumed) over {len(result.rounds)} round(s) "
        f"from {db.path} in {elapsed:.1f}s"
    )
    if throwaway is not None:
        throwaway.cleanup()
    if args.stats:
        _print_engine_stats(engine)
    _save_trace(args, engine)
    return 0 if best is not None else 1


def _cmd_presets(args) -> int:
    rows = []
    for name, preset in PRESETS.items():
        axes = " x ".join(
            f"{axis.name}[{len(axis.values)}]" for axis in preset.space.axes
        )
        rows.append([name, preset.space.size, axes, len(preset.pairs),
                     preset.description])
    print(format_table(
        ["preset", "points", "axes", "pairs", "description"], rows,
        title="Design-space presets",
    ))
    return 0


def _cmd_query(args) -> int:
    with ResultsDB(args.db) as db:
        records = db.query(sweep=args.sweep, where=_parse_where(args.where))
        if args.limit is not None:
            records = records[:args.limit]
        if not records:
            sweeps = db.sweeps()
            print("no matching rows", end="")
            if sweeps:
                names = ", ".join(
                    f"{name} ({count})" for name, count, _ in sweeps
                )
                print(f"; stored sweeps: {names}")
            else:
                print(f"; results DB at {db.path} is empty")
            return 1
    headers, rows = _record_rows(records)
    print(format_table(headers, rows,
                       title=f"{len(records)} stored result(s)"))
    return 0


def _cmd_rank(args) -> int:
    with ResultsDB(args.db) as db:
        records = db.rank(metric=args.metric, sweep=args.sweep,
                          limit=None, ascending=not args.descending)
    if not records:
        print("no matching rows")
        return 1
    pareto_keys = None
    if args.pareto:
        pareto_keys = {r.key for r in pareto_front(records)}
    records = records[:args.top] if args.top is not None else records
    headers, rows = _record_rows(records, metric=args.metric,
                                 pareto_keys=pareto_keys)
    direction = "desc" if args.descending else "asc"
    print(format_table(
        headers, rows,
        title=f"Top {len(records)} by {args.metric} ({direction})",
    ))
    return 0


def _cmd_compare(args) -> int:
    with ResultsDB(args.db) as db:
        matched = db.compare(args.sweep_a, args.sweep_b, metric=args.metric)
    if not matched:
        print(f"no common points between {args.sweep_a!r} and "
              f"{args.sweep_b!r}")
        return 1
    rows = []
    for point, value_a, value_b in matched:
        rows.append([format_point(point), value_a, value_b,
                     value_b - value_a])
    print(format_table(
        ["point", args.sweep_a, args.sweep_b, "delta"], rows,
        title=f"{len(matched)} matched point(s) on {args.metric}",
    ))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-explore",
        description="Design-space exploration with a persistent cross-run "
                    "results database.",
    )
    parser.add_argument(
        "--db", default=None,
        help=f"results DB path (default: ${RESULTS_DB_ENV} or "
             "<cache-root>/explore.sqlite3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(cmd) -> None:
        cmd.add_argument("--workers", type=int, default=1,
                         help="fan engine stages out over N workers")
        cmd.add_argument("--backend", default=None, choices=backend_names(),
                         help=f"execution backend (default: ${BACKEND_ENV}, "
                              "else inline for --workers 1, process "
                              "otherwise)")
        cmd.add_argument("--target-instructions", type=int,
                         default=DEFAULT_TARGET_INSTRUCTIONS)
        cmd.add_argument("--cache-dir", default=None,
                         help=f"artifact store root (default: "
                              f"${CACHE_DIR_ENV} or ~/.cache/repro)")
        cmd.add_argument("--max-cache-bytes", type=int, default=None,
                         help="size-cap the artifact store (LRU-evict on "
                              "put)")
        cmd.add_argument("--no-cache", action="store_true",
                         help="skip the persistent artifact store")
        cmd.add_argument("--stats", action="store_true",
                         help="print engine cache counters to stderr")
        cmd.add_argument("--trace", default=None, metavar="PATH",
                         help="record per-stage spans and a metrics "
                              "snapshot to PATH (inspect with repro-trace "
                              "summary/export)")
        cmd.add_argument("--sim-kernel", default=None,
                         choices=KERNEL_CHOICES,
                         help="replay kernel for the timing models "
                              "(default: $REPRO_SIM_KERNEL, else auto; "
                              "results are byte-identical either way)")
        cmd.add_argument("--sim-exec", default=None,
                         choices=EXEC_CHOICES,
                         help="functional execution engine "
                              "(default: $REPRO_SIM_EXEC, else auto = "
                              "the block-compiling fast engine; traces "
                              "are byte-identical either way)")

    run = sub.add_parser("run", help="sweep a preset through the engine")
    run.add_argument("--preset", default="smoke",
                     help=f"design-space preset ({', '.join(PRESETS)})")
    run.add_argument("--sample", default="grid",
                     choices=("grid", "random", "frontier"),
                     help="point selection over the space (default: grid)")
    run.add_argument("--n", type=int, default=None,
                     help="cap the number of sampled points (applied after "
                          "--stride for grid sampling)")
    run.add_argument("--seed", type=int, default=None,
                     help="random-sampling seed (--sample random only; "
                          "default: 0)")
    run.add_argument("--stride", type=int, default=None,
                     help="grid-sampling stride (--sample grid only; "
                          "default: 1)")
    run.add_argument("--pairs", default=None,
                     help="override workload pairs, e.g. "
                          "adpcm/small,crc32/small")
    run.add_argument("--sweep-name", default=None,
                     help="DB sweep label (default: the preset name)")
    run.add_argument("--force", action="store_true",
                     help="rescore points already present in the DB")
    run.add_argument("--top", type=int, default=None,
                     help="print only the N best-scoring points")
    add_engine_flags(run)
    run.set_defaults(func=_cmd_run)

    search = sub.add_parser(
        "search",
        help="adaptively search a preset's space within a budget",
    )
    search.add_argument("preset",
                        help=f"design-space preset ({', '.join(PRESETS)})")
    search.add_argument("--strategy", default="hill",
                        choices=sorted(STRATEGIES),
                        help="hill = hill-climbing with random restarts; "
                             "halving = successive halving (broad cohort "
                             "on the first pair, best half promoted to "
                             "the full pair set)")
    search.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="total point evaluations across all rounds "
                             f"(default: {DEFAULT_BUDGET})")
    search.add_argument("--seed", type=int, default=0,
                        help="search-trajectory seed (default: 0)")
    search.add_argument("--pairs", default=None,
                        help="override workload pairs, e.g. "
                             "adpcm/small,crc32/small")
    search.add_argument("--search-name", default=None,
                        help="DB label prefix for the round sweeps "
                             "(default: <preset>-<strategy>-s<seed>)")
    add_engine_flags(search)
    search.set_defaults(func=_cmd_search)

    presets = sub.add_parser("presets", help="list design-space presets")
    presets.set_defaults(func=_cmd_presets)

    query = sub.add_parser("query", help="read stored results (no runs)")
    query.add_argument("--sweep", default=None)
    query.add_argument("--where", action="append", default=[],
                       metavar="AXIS=VALUE",
                       help="filter by axis value (repeatable)")
    query.add_argument("--limit", type=int, default=None)
    query.set_defaults(func=_cmd_query)

    rank = sub.add_parser("rank", help="order stored results by a metric")
    rank.add_argument("--sweep", default=None)
    rank.add_argument("--metric", default="score")
    rank.add_argument("--top", type=int, default=10)
    rank.add_argument("--descending", action="store_true",
                      help="higher is better")
    rank.add_argument("--pareto", action="store_true",
                      help="mark the runtime/fidelity Pareto front")
    rank.set_defaults(func=_cmd_rank)

    compare = sub.add_parser("compare",
                             help="diff two sweeps on matching points")
    compare.add_argument("sweep_a")
    compare.add_argument("sweep_b")
    compare.add_argument("--metric", default="score")
    compare.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    if args.command in ("run", "search"):
        # Validate up front so a bad --preset is a usage error; KeyErrors
        # from the sweep itself keep their tracebacks.
        try:
            get_preset(args.preset)
        except KeyError as exc:
            parser.error(str(exc.args[0]) if exc.args else str(exc))
        # Same for --pairs: unknown workload/input names are usage
        # errors (exit 2 with suggestions), not pipeline tracebacks.
        try:
            _parse_pairs(args.pairs)
        except UnknownWorkloadError as exc:
            parser.error(str(exc))
        try:
            check_backend_env()
        except KeyError as exc:
            parser.error(f"${BACKEND_ENV}: {exc.args[0]}")
    if args.command == "run":
        # Mirror DesignSpace.sample's uniform validation as usage errors.
        if args.seed is not None and args.sample != "random":
            parser.error("--seed only applies to --sample random")
        if args.stride is not None:
            if args.sample != "grid":
                parser.error("--stride only applies to --sample grid")
            if args.stride < 1:
                parser.error(f"--stride must be >= 1, got {args.stride}")
    if args.command == "search" and args.budget < 1:
        parser.error(f"--budget must be >= 1, got {args.budget}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
