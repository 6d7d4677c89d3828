"""repro.serve — the engine as a long-lived service.

A stdlib-only HTTP+JSON daemon over the content-addressed engine:
submissions normalize to canonical job keys, concurrent overlapping
requests coalesce onto shared in-flight work (whole jobs *and*
individual graph nodes), per-client token buckets keep floods polite,
and measured per-stage wall-clock feeds a learned
:class:`~repro.serve.costs.CostModel` behind each submission's
estimated seconds.

Start it with ``repro-serve`` (or ``python -m repro.serve``); talk to
it with :class:`~repro.serve.client.ServeClient` or plain curl.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.coalesce import Coalescer, CoalescingRunner, KeyedMutex
from repro.serve.costs import CostModel
from repro.serve.jobs import (
    BadRequest,
    Job,
    JobRegistry,
    estimate_stages,
    job_key,
    normalize_request,
    run_job,
)
from repro.serve.quota import QuotaRegistry, TokenBucket
from repro.serve.server import (
    CapacityError,
    QuotaExceeded,
    ReproServer,
    ServeApp,
)

__all__ = [
    "BadRequest",
    "CapacityError",
    "Coalescer",
    "CoalescingRunner",
    "CostModel",
    "Job",
    "JobRegistry",
    "KeyedMutex",
    "QuotaExceeded",
    "QuotaRegistry",
    "ReproServer",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "TokenBucket",
    "estimate_stages",
    "job_key",
    "normalize_request",
    "run_job",
]
