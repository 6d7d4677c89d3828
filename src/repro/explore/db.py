"""Persistent cross-run results database (SQLite).

Every scored design point is one row keyed by the same canonical
content-address recipe the artifact store uses: SHA-256 over the DB
schema version, the toolchain fingerprint, the point's axis values, the
workload pair fingerprints, and the synthetic size target.  Equal
configurations therefore map to the same row across processes and
machines — a sweep that was already scored answers ``query``/``rank``/
``compare`` without a single compile or run, and a re-issued ``run``
resumes exactly at the first unscored point.

The database lives next to the artifact store by default
(``<cache-root>/explore.sqlite3``); relocate it with the
``REPRO_RESULTS_DB`` environment variable or an explicit path.
Connections run in WAL mode with a generous busy timeout, so the serve
daemon and the CLI can share the file without ``database is locked``
failures.

Besides scored points, the file carries the ``stage_costs`` table:
append-only measured per-stage wall-clock observations (written by the
serve daemon's timing hook) that the
:class:`~repro.serve.costs.CostModel` learns its per-stage estimates
from.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.engine.store import canonical_key, default_cache_root
from repro.explore.space import format_point

#: Bump when the row layout or the key recipe changes; old rows then
#: stop matching instead of being silently misread.
DB_SCHEMA_VERSION = 1

RESULTS_DB_ENV = "REPRO_RESULTS_DB"

#: Sweep-label convention for adaptive searches: round *k* of search
#: ``name`` is persisted under the sweep label ``name/round-k``, so a
#: search's trail is queryable (and resumable) with the ordinary sweep
#: tooling.
ROUND_SEP = "/round-"


def round_label(search: str, index: int) -> str:
    """The DB sweep label of one search round (``<search>/round-<k>``)."""
    return f"{search}{ROUND_SEP}{index}"


def parse_round_label(sweep: str) -> tuple[str, int] | None:
    """``(search, round)`` if *sweep* is a search-round label, else
    ``None`` (it is an ordinary sweep)."""
    name, sep, suffix = sweep.rpartition(ROUND_SEP)
    if not sep or not name or not suffix.isdigit():
        return None
    return name, int(suffix)

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    sweep TEXT NOT NULL,
    created_at REAL NOT NULL,
    point_json TEXT NOT NULL,
    metrics_json TEXT NOT NULL,
    score REAL NOT NULL,
    schema_version INTEGER NOT NULL,
    toolchain TEXT NOT NULL
);
"""
_INDEX_SQL = "CREATE INDEX IF NOT EXISTS idx_results_sweep ON results(sweep);"

#: Append-only measured stage wall-clock observations — the history
#: the serve layer's :class:`~repro.serve.costs.CostModel` learns
#: per-stage estimates from.  One row per executed stage.
_COSTS_SQL = """
CREATE TABLE IF NOT EXISTS stage_costs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    stage TEXT NOT NULL,
    seconds REAL NOT NULL,
    created_at REAL NOT NULL,
    toolchain TEXT NOT NULL DEFAULT ''
);
"""
_COSTS_INDEX_SQL = (
    "CREATE INDEX IF NOT EXISTS idx_stage_costs_stage "
    "ON stage_costs(stage);"
)

#: How long a connection waits on a writer's lock before erroring —
#: generous, because the serve daemon and CLI share one file.
BUSY_TIMEOUT_MS = 10_000


def default_db_path() -> Path:
    env = os.environ.get(RESULTS_DB_ENV)
    if env:
        return Path(env).expanduser()
    return default_cache_root() / "explore.sqlite3"


def result_key(point: dict, pair_fingerprints: tuple[str, ...],
               target_instructions: int, toolchain: str,
               sweep: str = "") -> str:
    """Content address of one scored design point.

    The sweep label is part of the identity: each named sweep is a
    complete, independently diffable row collection (``compare`` matches
    them by axis values), while within a sweep equal content always maps
    to the same row — that is what makes re-runs resume for free.
    """
    return canonical_key({
        "db_schema": DB_SCHEMA_VERSION,
        "sweep": sweep,
        "toolchain": toolchain,
        "point": {k: point[k] for k in sorted(point)},
        "pairs": list(pair_fingerprints),
        "target_instructions": target_instructions,
    })


@dataclass(frozen=True)
class ResultRecord:
    """One scored design point as stored in (and read from) the DB."""

    key: str
    sweep: str
    created_at: float
    point: dict
    metrics: dict
    score: float
    schema_version: int = DB_SCHEMA_VERSION
    toolchain: str = ""

    def metric(self, name: str) -> float:
        if name == "score":
            return self.score
        try:
            return float(self.metrics[name])
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r} "
                f"(available: score, {', '.join(sorted(self.metrics))})"
            ) from None


def _row_to_record(row: sqlite3.Row) -> ResultRecord:
    return ResultRecord(
        key=row["key"],
        sweep=row["sweep"],
        created_at=row["created_at"],
        point=json.loads(row["point_json"]),
        metrics=json.loads(row["metrics_json"]),
        score=row["score"],
        schema_version=row["schema_version"],
        toolchain=row["toolchain"],
    )


class ResultsDB:
    """SQLite handle over the cross-run results table."""

    def __init__(self, path: Path | str | None = None) -> None:
        self.path = Path(path).expanduser() if path else default_db_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        # WAL lets readers proceed while a writer commits, and the busy
        # timeout makes racing writers queue instead of failing with
        # "database is locked" — required now that the serve daemon and
        # the CLI share one explore.sqlite3.  WAL needs a real file; on
        # filesystems that refuse it (or :memory:) SQLite reports the
        # old mode and the timeout still applies.
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.execute(_TABLE_SQL)
            self._conn.execute(_INDEX_SQL)
            self._conn.execute(_COSTS_SQL)
            self._conn.execute(_COSTS_INDEX_SQL)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes ------------------------------------------------------------

    def put(self, record: ResultRecord) -> None:
        """Insert or replace one scored point (idempotent per key)."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(key, sweep, created_at, point_json, metrics_json, score, "
                " schema_version, toolchain) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.key,
                    record.sweep,
                    record.created_at or time.time(),
                    json.dumps(record.point, sort_keys=True),
                    json.dumps(record.metrics, sort_keys=True),
                    record.score,
                    record.schema_version,
                    record.toolchain,
                ),
            )

    def record_stage_costs(self, observations, toolchain: str = "") -> int:
        """Append many ``(stage, seconds)`` observations in one
        transaction; returns the number recorded."""
        rows = [(stage, float(seconds), time.time(), toolchain)
                for stage, seconds in observations]
        if rows:
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO stage_costs (stage, seconds, created_at, "
                    "toolchain) VALUES (?, ?, ?, ?)", rows,
                )
        return len(rows)

    def stage_cost_history(self, stage: str | None = None,
                           limit: int | None = None
                           ) -> list[tuple[str, float, float]]:
        """``(stage, seconds, created_at)`` observations, oldest first.

        *limit* keeps only the most recent N (still returned oldest
        first) so a long-lived deployment's warm-up replays bounded
        history.
        """
        where = "WHERE stage = ?" if stage is not None else ""
        args: tuple = (stage,) if stage is not None else ()
        sql = (f"SELECT stage, seconds, created_at FROM stage_costs "
               f"{where} ORDER BY id DESC")
        if limit is not None:
            sql += " LIMIT ?"
            args = args + (int(limit),)
        rows = self._conn.execute(sql, args).fetchall()
        return [(row["stage"], row["seconds"], row["created_at"])
                for row in reversed(rows)]

    def stage_cost_stats(self) -> dict[str, dict]:
        """Per-stage ``{"n", "mean_seconds", "last_seconds"}`` over the
        recorded history."""
        rows = self._conn.execute(
            "SELECT stage, COUNT(*) AS n, AVG(seconds) AS mean, "
            "(SELECT seconds FROM stage_costs AS inner_sc "
            " WHERE inner_sc.stage = stage_costs.stage "
            " ORDER BY inner_sc.id DESC LIMIT 1) AS last "
            "FROM stage_costs GROUP BY stage ORDER BY stage"
        ).fetchall()
        return {
            row["stage"]: {
                "n": row["n"],
                "mean_seconds": row["mean"],
                "last_seconds": row["last"],
            }
            for row in rows
        }

    def delete_sweep(self, sweep: str) -> int:
        with self._conn:
            cursor = self._conn.execute(
                "DELETE FROM results WHERE sweep = ?", (sweep,)
            )
        return cursor.rowcount

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> ResultRecord | None:
        row = self._conn.execute(
            "SELECT * FROM results WHERE key = ?", (key,)
        ).fetchone()
        return _row_to_record(row) if row else None

    def query(self, sweep: str | None = None,
              where: dict | None = None) -> list[ResultRecord]:
        """Rows for *sweep* (or all), filtered by axis-value equality.

        ``where`` values compare against the stored point dict; numbers
        given as strings (CLI input) are coerced before comparison.
        """
        if sweep is None:
            rows = self._conn.execute(
                "SELECT * FROM results ORDER BY sweep, created_at, key"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM results WHERE sweep = ? "
                "ORDER BY created_at, key",
                (sweep,),
            ).fetchall()
        records = [_row_to_record(row) for row in rows]
        if not where:
            return records

        def matches(record: ResultRecord) -> bool:
            for axis, wanted in where.items():
                if axis not in record.point:
                    return False
                have = record.point[axis]
                if have == wanted or str(have) == str(wanted):
                    continue
                # Sequence-valued axes (the 'pair' axis round-trips
                # through JSON as a list) match the CLI's own
                # workload/input rendering.
                if isinstance(have, (list, tuple)) and \
                        "/".join(str(v) for v in have) == str(wanted):
                    continue
                return False
            return True

        return [record for record in records if matches(record)]

    def rank(self, metric: str = "score", sweep: str | None = None,
             limit: int | None = 10,
             ascending: bool = True) -> list[ResultRecord]:
        """Rows ordered by *metric* (lower is better by default).

        Records that don't carry the metric — e.g. a degenerate point
        whose relative error was undefined and dropped — rank after
        every record that does, in either direction; a metric no stored
        record carries still raises (typo protection).
        """
        records = self.query(sweep)
        have = [r for r in records
                if metric == "score" or metric in r.metrics]
        if records and not have:
            records[0].metric(metric)  # raises the "unknown metric" error
        have.sort(key=lambda r: (r.metric(metric), r.key),
                  reverse=not ascending)
        ranked = have + sorted(
            (r for r in records
             if metric != "score" and metric not in r.metrics),
            key=lambda r: r.key,
        )
        return ranked[:limit] if limit is not None else ranked

    def sweeps(self) -> list[tuple[str, int, float]]:
        """``(sweep, row count, latest created_at)`` per stored sweep."""
        rows = self._conn.execute(
            "SELECT sweep, COUNT(*) AS n, MAX(created_at) AS latest "
            "FROM results GROUP BY sweep ORDER BY sweep"
        ).fetchall()
        return [(row["sweep"], row["n"], row["latest"]) for row in rows]

    def searches(self) -> list[str]:
        """Sorted names of stored adaptive searches — every distinct
        prefix of a ``<search>/round-<k>`` sweep label."""
        names = {parsed[0] for sweep, _, _ in self.sweeps()
                 if (parsed := parse_round_label(sweep)) is not None}
        return sorted(names)

    def rounds(self, search: str
               ) -> list[tuple[int, str, int, float, float, int | None]]:
        """Per-round aggregates for *search*, in round order:
        ``(round, label, points, best score, latest created_at, pairs)``.

        *pairs* is the round's scoring scope (the ``pairs_scored``
        metric the sweep records) — reduced-scope rounds, e.g. a
        successive-halving cohort screened on one pair, are not
        score-comparable to full rounds.  ``None`` when the stored
        records predate the field.
        """
        out = []
        for sweep, count, latest in self.sweeps():
            parsed = parse_round_label(sweep)
            if parsed is None or parsed[0] != search:
                continue
            records = self.query(sweep=sweep)
            best = min(r.score for r in records)
            scopes = [int(r.metrics["pairs_scored"]) for r in records
                      if "pairs_scored" in r.metrics]
            out.append((parsed[1], sweep, count, best, latest,
                        max(scopes) if scopes else None))
        out.sort()
        return out

    def compare(self, sweep_a: str, sweep_b: str, metric: str = "score"
                ) -> list[tuple[dict, float, float]]:
        """Match points of two sweeps by axis values; returns
        ``(point, metric_a, metric_b)`` for every coordinate present in
        both (e.g. the same grid scored under two toolchain versions)."""
        def keyed(records: list[ResultRecord]) -> dict[str, ResultRecord]:
            return {
                json.dumps(r.point, sort_keys=True): r for r in records
            }

        left = keyed(self.query(sweep_a))
        right = keyed(self.query(sweep_b))
        matched = []
        for point_json in sorted(set(left) & set(right)):
            record_a = left[point_json]
            record_b = right[point_json]
            if metric != "score" and (metric not in record_a.metrics
                                      or metric not in record_b.metrics):
                # A side that never recorded the metric (undefined
                # relative error) can't be diffed on it; skip the point
                # rather than abort the whole comparison.
                continue
            matched.append((
                record_a.point,
                record_a.metric(metric),
                record_b.metric(metric),
            ))
        return matched


def pareto_front(records: list[ResultRecord],
                 metrics: tuple[str, str] = ("org_runtime_s", "score"),
                 ) -> list[ResultRecord]:
    """Non-dominated subset, minimizing both *metrics* — by default the
    classic explorer trade-off of machine performance (original-side
    runtime) against clone fidelity (score).

    A record missing either metric — possible since undefined
    relative-error components are dropped at scoring time — is skipped
    with a warning instead of aborting the whole front, consistent with
    how ``rank`` and ``compare`` treat such records.
    """
    usable: list[tuple[ResultRecord, tuple[float, float]]] = []
    for record in records:
        missing = [m for m in metrics
                   if m != "score" and m not in record.metrics]
        if missing:
            warnings.warn(
                f"dropping point {format_point(record.point)} from the "
                f"Pareto front: missing metric(s) {', '.join(missing)}",
                RuntimeWarning, stacklevel=2,
            )
            continue
        usable.append((record, tuple(record.metric(m) for m in metrics)))
    front: list[ResultRecord] = []
    for candidate, (cx, cy) in usable:
        dominated = False
        for other, (ox, oy) in usable:
            if other is candidate:
                continue
            if ox <= cx and oy <= cy and (ox < cx or oy < cy):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    front.sort(key=lambda r: r.metric(metrics[0]))
    return front
