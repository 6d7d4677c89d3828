"""Jobs: normalized requests, content-addressed keys, execution.

A submission is JSON naming a *kind* plus kind-specific parameters.
:func:`normalize_request` validates it and rewrites it into canonical
form (defaults filled, pairs/coords sorted, axes ordered), and
:func:`job_key` hashes that form together with the toolchain
fingerprint — the same content-address discipline as the artifact
store, which is what makes coalescing sound: two requests share a key
exactly when the engine would do identical work for them.

Kinds:

========  ==========================================================
figure    warm one report figure's full pipeline grid (pairs×coords)
warm      warm an explicit pairs×coords(.×sides) pipeline grid
replay    time one workload on a parametric machine (org or syn side)
sweep     run a design-space sweep preset into the results DB
search    run an adaptive search (hill/halving) within a budget
========  ==========================================================

Execution (:func:`run_job`) happens on the daemon's worker threads
against the shared :class:`~repro.engine.api.Engine`; everything a job
computes lands in the artifact store / results DB, so repeated jobs
resolve warm even after their coalescing window closed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.engine.store import canonical_key, toolchain_fingerprint
from repro.engine.tasks import (
    DEFAULT_TARGET_INSTRUCTIONS,
    REF_ISA,
    REF_OPT,
    build_pipeline_graph,
)
from repro.sim.machines import MachineSpec

JOB_KINDS = ("figure", "warm", "replay", "sweep", "search")

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Serve request-schema version, folded into every job key.
SERVE_SCHEMA = 1


class BadRequest(ValueError):
    """A submission that can't be normalized (HTTP 400)."""


# -- normalization -----------------------------------------------------------


def _as_workload_name(value, field_name: str) -> str:
    """Normalize a workload reference to its canonical registry name.

    Accepts a name string (builtin or ``synth:<fingerprint>``) or a
    synth recipe params object, which is folded to its canonical
    ``synth:`` name — so a job submitted by recipe params and one
    submitted by name coalesce onto the same job key.
    """
    if isinstance(value, dict):
        from repro.workloads.synth import SynthRecipe

        try:
            return SynthRecipe.from_params(value).name
        except (TypeError, ValueError) as exc:
            raise BadRequest(
                f"bad synth recipe in {field_name}: {exc}") from None
    return str(value)


def _as_pairs(value, field_name: str = "pairs") -> list[list[str]]:
    from repro.workloads import UnknownWorkloadError, get_workload

    if not isinstance(value, (list, tuple)) or not value:
        raise BadRequest(f"{field_name} must be a non-empty list of "
                         "[workload, input] pairs")
    pairs = []
    for item in value:
        if isinstance(item, str):
            workload, _, input_name = item.partition("/")
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            workload, input_name = item
        else:
            raise BadRequest(f"bad pair {item!r}: expected "
                             "'workload/input' or [workload, input]")
        workload = _as_workload_name(workload, field_name)
        try:
            spec = get_workload(workload)
        except UnknownWorkloadError as exc:
            raise BadRequest(str(exc)) from None
        if input_name not in spec.inputs:
            raise BadRequest(
                f"unknown input {input_name!r} for workload {workload!r} "
                f"(available: {', '.join(spec.inputs)})")
        pairs.append([str(workload), str(input_name)])
    return sorted(pairs)


def _as_coords(value) -> list[list]:
    coords = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise BadRequest(f"bad coord {item!r}: expected [isa, opt_level]")
        isa, opt = item
        coords.append([str(isa), int(opt)])
    if not coords:
        raise BadRequest("coords must be non-empty")
    return sorted(coords)


def _as_machine(value) -> dict:
    if not isinstance(value, dict):
        raise BadRequest("machine must be an axes object")
    defaults = MachineSpec(name="serve")
    axes = {}
    for axis, axis_value in value.items():
        if axis not in MachineSpec.__dataclass_fields__:
            raise BadRequest(
                f"unknown machine axis {axis!r} (available: "
                f"{', '.join(sorted(MachineSpec.__dataclass_fields__))})")
        # Coerce through the default's type so "64"/64/64.0 all
        # normalize (and so hash) identically.
        template = getattr(defaults, axis)
        try:
            axes[axis] = type(template)(axis_value)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad machine axis {axis}={axis_value!r}: "
                             f"{exc}") from None
    axes.setdefault("name", "serve")
    # Round-trip through the spec so the normalized form is complete
    # (defaults materialized) and key-stable.
    try:
        spec = MachineSpec(**axes)
    except ValueError as exc:
        raise BadRequest(f"bad machine: {exc}") from None
    normalized = {"name": spec.name, **spec.axes()}
    return {k: normalized[k] for k in sorted(normalized)}


def machine_spec_from_params(machine: dict) -> MachineSpec:
    return MachineSpec(**machine)


def normalize_request(payload: dict) -> tuple[str, dict, str]:
    """Validate *payload*; returns ``(kind, canonical_params, client)``."""
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise BadRequest(
            f"unknown job kind {kind!r} (available: {', '.join(JOB_KINDS)})")
    client = str(payload.get("client") or "anonymous")
    params: dict[str, Any] = {}

    if kind == "figure":
        from repro.experiments.report import FIGURES

        name = payload.get("figure")
        if name not in FIGURES:
            raise BadRequest(
                f"unknown figure {name!r} "
                f"(available: {', '.join(FIGURES)})")
        params["figure"] = name
    elif kind == "warm":
        params["pairs"] = _as_pairs(payload.get("pairs"))
        params["coords"] = _as_coords(
            payload.get("coords") or [[REF_ISA, REF_OPT]])
        sides = payload.get("sides") or ["org", "syn"]
        if not set(sides) <= {"org", "syn"} or not sides:
            raise BadRequest(f"bad sides {sides!r}: subset of org/syn")
        params["sides"] = sorted(set(sides))
        params["target_instructions"] = int(
            payload.get("target_instructions")
            or DEFAULT_TARGET_INSTRUCTIONS)
    elif kind == "replay":
        pair = _as_pairs([[payload.get("workload"), payload.get("input")]],
                         "workload/input")[0]
        params["workload"], params["input"] = pair
        params["machine"] = _as_machine(payload.get("machine") or {})
        params["opt_level"] = int(payload.get("opt_level", REF_OPT))
        side = payload.get("side", "org")
        if side not in ("org", "syn"):
            raise BadRequest(f"replay side must be org or syn, got {side!r}")
        params["side"] = side
        params["target_instructions"] = int(
            payload.get("target_instructions")
            or DEFAULT_TARGET_INSTRUCTIONS)
    elif kind in ("sweep", "search"):
        from repro.explore.space import PRESETS

        preset = payload.get("preset")
        if preset not in PRESETS:
            raise BadRequest(
                f"unknown preset {preset!r} "
                f"(available: {', '.join(sorted(PRESETS))})")
        params["preset"] = preset
        if payload.get("pairs"):
            params["pairs"] = _as_pairs(payload["pairs"])
        if kind == "sweep":
            params["force"] = bool(payload.get("force", False))
            if payload.get("sweep_name"):
                params["sweep_name"] = str(payload["sweep_name"])
        else:
            from repro.explore.search import STRATEGIES

            strategy = payload.get("strategy", "hill")
            if strategy not in STRATEGIES:
                raise BadRequest(
                    f"unknown strategy {strategy!r} "
                    f"(available: {', '.join(sorted(STRATEGIES))})")
            params["strategy"] = strategy
            params["budget"] = int(payload.get("budget", 8))
            if params["budget"] < 1:
                raise BadRequest("search budget must be >= 1")
            params["seed"] = int(payload.get("seed", 0))
    return kind, params, client


def job_key(kind: str, params: dict) -> str:
    """Canonical content address of one normalized job."""
    return canonical_key({
        "serve_schema": SERVE_SCHEMA,
        "toolchain": toolchain_fingerprint(),
        "kind": kind,
        "params": params,
    })


def estimate_stages(kind: str, params: dict) -> list[str]:
    """The pipeline stages the job would execute cold — priced through
    the :class:`CostModel` into the submission's ``estimated_seconds``.

    Exact (graph-derived) for figure/warm/replay; for sweep/search an
    upper-bound estimate from the space size or budget.
    """
    if kind == "figure":
        from repro.experiments.report import FIGURES

        spec = FIGURES[params["figure"]]
        graph = build_pipeline_graph(tuple(map(tuple, spec.pairs)),
                                     tuple(spec.coords))
        return [task.stage for task in graph.values()]
    if kind == "warm":
        graph = build_pipeline_graph(
            tuple(map(tuple, params["pairs"])),
            tuple(map(tuple, params["coords"])),
            target_instructions=params["target_instructions"],
            sides=tuple(params["sides"]),
        )
        return [task.stage for task in graph.values()]
    if kind == "replay":
        spec = machine_spec_from_params(params["machine"])
        graph = build_pipeline_graph(
            ((params["workload"], params["input"]),), coords=(),
            target_instructions=params["target_instructions"],
            sides=(params["side"],),
            machine_points=((spec, params["opt_level"]),),
        )
        return [task.stage for task in graph.values()]
    # sweep/search: points × pairs × (compile, run, 2×replay) plus the
    # per-pair reference chain — an upper bound; warm artifacts make
    # the real cost smaller, never larger.
    from repro.explore.space import get_preset

    preset = get_preset(params["preset"])
    pairs = params.get("pairs") or list(preset.pairs)
    points = params["budget"] if kind == "search" else \
        len(preset.space.points())
    stages = []
    for _ in pairs:
        stages += ["compile", "run", "profile", "synthesize"]
    for _ in range(points):
        for _ in pairs:
            stages += ["compile", "run", "compile-clone", "run-clone",
                       "replay", "replay"]
    return stages


# -- the job object ----------------------------------------------------------


@dataclass
class Job:
    """One submitted unit of work, shared by every coalesced waiter."""

    id: str
    key: str
    kind: str
    params: dict
    client: str
    created_at: float = field(default_factory=time.time)
    state: str = QUEUED
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: str | None = None
    waiters: int = 1

    def __post_init__(self) -> None:
        self._cond = threading.Condition()
        self._events: list[dict] = []
        self.add_event("queued", client=self.client)

    # -- events ----------------------------------------------------------

    def add_event(self, event: str, **data) -> None:
        with self._cond:
            self._events.append({
                "seq": len(self._events),
                "time": time.time(),
                "event": event,
                **data,
            })
            self._cond.notify_all()

    def events_since(self, seq: int) -> list[dict]:
        with self._cond:
            return list(self._events[seq:])

    def wait_for_event(self, seq: int, timeout: float | None = None) -> bool:
        """Block until an event past *seq* exists (or the job finished)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: len(self._events) > seq or self.finished,
                timeout=timeout,
            )

    # -- state -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def add_waiter(self) -> None:
        self.waiters += 1

    def set_running(self) -> None:
        self.state = RUNNING
        self.started_at = time.time()
        self.add_event("started")

    def set_done(self, result: dict) -> None:
        self.result = result
        self.state = DONE
        self.finished_at = time.time()
        self.add_event("done")

    def set_failed(self, error: str) -> None:
        self.error = error
        self.state = FAILED
        self.finished_at = time.time()
        self.add_event("failed", error=error)

    def wait(self, timeout: float | None = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self.finished,
                                       timeout=timeout)

    def status(self) -> dict:
        """The ``GET /v1/jobs/<id>`` payload."""
        return {
            "job": self.id,
            "key": self.key,
            "kind": self.kind,
            "params": self.params,
            "state": self.state,
            "client": self.client,
            "waiters": self.waiters,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self._events),
            "error": self.error,
        }


class JobRegistry:
    """All jobs this daemon has seen, by id."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._serial = 0

    def create(self, kind: str, params: dict, client: str, key: str) -> Job:
        with self._lock:
            self._serial += 1
            job = Job(id=f"j{self._serial:06d}-{key[:8]}", key=key,
                      kind=kind, params=params, client=client)
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED)}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts


# -- execution ---------------------------------------------------------------


def _timing_result_json(result) -> dict:
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "cpi": result.cpi,
        "l1_hits": result.l1_hits,
        "l1_misses": result.l1_misses,
        "l1_hit_rate": result.l1_hit_rate,
        "branch_hits": result.branch_hits,
        "branch_misses": result.branch_misses,
        "branch_accuracy": result.branch_accuracy,
    }


def _record_json(record) -> dict:
    return {"sweep": record.sweep, "point": record.point,
            "score": record.score, "metrics": record.metrics}


def run_job(job: Job, engine, db_path=None) -> dict:
    """Execute *job* against the shared engine; returns the result JSON.

    Raises on failure — the caller owns state transitions (so the
    coalescing window and registry stay consistent even when execution
    dies).
    """
    params = job.params
    if job.kind == "figure":
        from repro.experiments.report import FIGURES

        spec = FIGURES[params["figure"]]
        nodes = engine.warm(tuple(map(tuple, spec.pairs)),
                            tuple(spec.coords))
        return {"figure": params["figure"], "title": spec.title,
                "nodes": nodes, "pairs": [list(p) for p in spec.pairs],
                "coords": [list(c) for c in spec.coords]}
    if job.kind == "warm":
        nodes = engine.warm(
            tuple(map(tuple, params["pairs"])),
            tuple(map(tuple, params["coords"])),
            sides=tuple(params["sides"]),
        )
        return {"nodes": nodes, "pairs": params["pairs"],
                "coords": params["coords"], "sides": params["sides"]}
    if job.kind == "replay":
        spec = machine_spec_from_params(params["machine"])
        result = engine.replay_timing(
            params["workload"], params["input"], spec,
            params["opt_level"], side=params["side"],
        )
        return {
            "workload": params["workload"], "input": params["input"],
            "machine": params["machine"], "opt_level": params["opt_level"],
            "side": params["side"], "fingerprint": spec.fingerprint(),
            "timing": _timing_result_json(result),
        }
    if job.kind == "sweep":
        from repro.explore.db import ResultsDB
        from repro.explore.sweep import run_sweep

        def progress(index, total, record, status):
            job.add_event("point", index=index, total=total, status=status)

        with ResultsDB(db_path) as db:
            sweep = run_sweep(
                params["preset"], engine=engine, db=db,
                pairs=[tuple(p) for p in params["pairs"]]
                if params.get("pairs") else None,
                sweep_name=params.get("sweep_name"),
                force=params["force"], progress=progress,
            )
        return {
            "sweep": sweep.sweep,
            "points": len(sweep.records),
            "computed": sweep.computed,
            "resumed": sweep.resumed,
            "failed": len(sweep.failed),
            "records": [_record_json(r) for r in sweep.records],
        }
    if job.kind == "search":
        from repro.explore.db import ResultsDB
        from repro.explore.search import run_search

        with ResultsDB(db_path) as db:
            search = run_search(
                params["preset"], strategy=params["strategy"],
                budget=params["budget"], seed=params["seed"],
                engine=engine, db=db,
                pairs=[tuple(p) for p in params["pairs"]]
                if params.get("pairs") else None,
            )
        best = search.best
        return {
            "search": search.search,
            "strategy": search.strategy,
            "budget": search.budget,
            "seed": search.seed,
            "evaluated": search.evaluated,
            "rounds": [
                {"label": r.label, "purpose": r.purpose,
                 "points": len(r.sweep.records),
                 "best": _record_json(r.best) if r.best else None}
                for r in search.rounds
            ],
            "best": _record_json(best) if best else None,
        }
    raise BadRequest(f"unknown job kind {job.kind!r}")
