"""Learned stage costs: EWMA over measured history, priors when cold.

:class:`CostModel` estimates how long a job's stages take.  Every
executed stage's wall-clock (captured by the engine's ``on_timing``
hook) feeds an exponentially-weighted moving average per stage,
persisted to the results DB's ``stage_costs`` table so a restarted
daemon resumes warm.  Below :data:`MIN_SAMPLES` observations for a
stage the model answers from :data:`PRIOR_SECONDS` instead, so a cold
daemon *degrades to*, never *depends on*, measurement.

The serve daemon computes :meth:`CostModel.estimate_seconds` for every
submission, logs it, and returns it as ``estimated_seconds`` in the 202
reply; ``/v1/stats`` shows the per-stage figures behind it.  The
estimate does not gate admission: that is bounded by the per-client
quota, ``--queue-limit`` and ``--max-inflight`` alone.
"""

from __future__ import annotations

import threading

from repro.engine.tasks import (
    STAGE_COMPILE,
    STAGE_COMPILE_CLONE,
    STAGE_PROFILE,
    STAGE_REPLAY,
    STAGE_RUN,
    STAGE_RUN_CLONE,
    STAGE_SYNTHESIZE,
)

#: Cold-stage estimate in seconds, per pipeline stage.
PRIOR_SECONDS: dict[str, float] = {
    STAGE_COMPILE: 0.2,
    STAGE_RUN: 0.15,
    STAGE_PROFILE: 0.05,
    STAGE_SYNTHESIZE: 0.25,
    STAGE_COMPILE_CLONE: 0.08,
    STAGE_RUN_CLONE: 0.04,
    STAGE_REPLAY: 0.005,
}

#: Cold estimate for a stage :data:`PRIOR_SECONDS` does not list.
DEFAULT_PRIOR_SECONDS = 0.1

#: EWMA weight of the newest observation.
DEFAULT_ALPHA = 0.3

#: Observations per stage before the learned estimate is trusted.
MIN_SAMPLES = 3

#: How much persisted history a warm-start replays per model.
HISTORY_LIMIT = 2048


class CostModel:
    """Per-stage execution-time estimator with measured-history EWMA.

    Thread-safe: ``observe`` is called from engine worker threads,
    ``estimate_seconds`` from the daemon's submission path.
    """

    def __init__(self, db=None, alpha: float = DEFAULT_ALPHA,
                 min_samples: int = MIN_SAMPLES) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self.min_samples = max(1, int(min_samples))
        #: Optional ResultsDB handle; observations persist to its
        #: stage_costs table so history survives daemon restarts.
        self._db = db
        self._lock = threading.Lock()
        self._ewma: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        if db is not None:
            self.warm_start(db)

    # -- learning ----------------------------------------------------------

    def _fold(self, stage: str, seconds: float) -> None:
        previous = self._ewma.get(stage)
        self._ewma[stage] = seconds if previous is None else \
            self.alpha * seconds + (1.0 - self.alpha) * previous
        self._counts[stage] = self._counts.get(stage, 0) + 1

    def observe(self, stage: str, seconds: float,
                persist: bool = True) -> None:
        """Fold one measured stage wall-clock into the model.

        Signature matches the engine's ``on_timing`` hook, so the model
        itself can be handed to ``Engine(on_timing=model.observe)``.
        """
        seconds = float(seconds)
        if seconds < 0:
            return
        with self._lock:
            self._fold(stage, seconds)
        if persist and self._db is not None:
            self._db.record_stage_costs([(stage, seconds)])

    def warm_start(self, db, limit: int = HISTORY_LIMIT) -> int:
        """Replay persisted ``stage_costs`` history (oldest first) into
        the EWMA state; returns the number of observations replayed."""
        history = db.stage_cost_history(limit=limit)
        with self._lock:
            for stage, seconds, _ in history:
                self._fold(stage, seconds)
        return len(history)

    # -- estimates ---------------------------------------------------------

    def samples(self, stage: str) -> int:
        with self._lock:
            return self._counts.get(stage, 0)

    def seconds(self, stage: str) -> float | None:
        """Learned wall-clock estimate for *stage*, or ``None`` while
        the stage is cold (fewer than ``min_samples`` observations)."""
        with self._lock:
            if self._counts.get(stage, 0) < self.min_samples:
                return None
            return self._ewma[stage]

    def estimate_seconds(self, stages) -> float:
        """Estimated total wall-clock of executing *stages* (an iterable
        of stage names, repeats allowed): learned seconds for warm
        stages, :data:`PRIOR_SECONDS` for cold ones."""
        total = 0.0
        for stage in stages:
            learned = self.seconds(stage)
            total += learned if learned is not None else \
                PRIOR_SECONDS.get(stage, DEFAULT_PRIOR_SECONDS)
        return total

    def snapshot(self) -> dict[str, dict]:
        """Per-stage ``{"samples", "ewma_seconds", "seconds", "source"}``
        for every stage seen or given a prior — the ``/v1/stats``
        payload; ``seconds`` is what :meth:`estimate_seconds` charges."""
        with self._lock:
            out = {}
            for stage in sorted(set(self._ewma) | set(PRIOR_SECONDS)):
                count = self._counts.get(stage, 0)
                warm = count >= self.min_samples
                ewma = self._ewma.get(stage)
                out[stage] = {
                    "samples": count,
                    "ewma_seconds": ewma,
                    "seconds": ewma if warm else
                    PRIOR_SECONDS.get(stage, DEFAULT_PRIOR_SECONDS),
                    "source": "learned" if warm else "static",
                }
            return out
