"""repro.engine.backends — pluggable execution backends.

The scheduler delegates *where* stages run to an
:class:`ExecutionBackend`; three ship in-tree, and all three pass one
conformance suite (identical results, store digests and metrics
snapshots):

========= ============================================================
name      execution model
========= ============================================================
inline    synchronous, deterministic sorted-ready order (workers=1,
          and the serve daemon's default: each job's graph runs on
          that job's own thread)
process   multiprocessing pool, worker-side persistence (historical
          ``workers>1`` behavior)
shard     dependency-closed shards in isolated
          ``python -m repro.engine.shard`` subprocesses, each with a
          private store, merged via export_keys/import_keys
========= ============================================================

Select with ``--backend NAME`` on the CLIs, the ``REPRO_BACKEND``
environment variable, or ``Engine(backend=...)``; third-party backends
subclass :class:`ExecutionBackend` and call :func:`register_backend`.
"""

from repro.engine.backends.base import (
    BACKEND_ENV,
    ExecutionBackend,
    ExecutionContext,
    backend_names,
    check_backend_env,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.engine.backends.local import (
    InlineBackend,
    ProcessPoolBackend,
)
from repro.engine.backends.shard import (
    ShardError,
    SubprocessShardBackend,
    balance_shards,
    partition_components,
)

__all__ = [
    "BACKEND_ENV",
    "ExecutionBackend",
    "ExecutionContext",
    "InlineBackend",
    "ProcessPoolBackend",
    "ShardError",
    "SubprocessShardBackend",
    "backend_names",
    "balance_shards",
    "check_backend_env",
    "default_backend_name",
    "get_backend",
    "partition_components",
    "register_backend",
    "resolve_backend",
]
