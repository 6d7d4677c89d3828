"""Simulation substrate: functional execution, traces, caches, branch
predictors, timing models and machine configurations.

The functional simulator stands in for real hardware + Pin; it executes a
linked :class:`repro.isa.machine.Binary` and records an
:class:`ExecutionTrace` (dynamic block sequence + data addresses + branch
outcomes).  Everything downstream is trace-driven:

* :mod:`repro.sim.cache` — set-associative LRU caches: the ``lru_hits``
  hit-bit pass behind profiling, the multi-size sweeps (Figs. 7, 8) and
  the replay kernel, plus the per-access ``Cache`` model;
* :mod:`repro.sim.branch` — bimodal / gshare / hybrid predictors (Fig. 9);
* :mod:`repro.sim.timing_common` — the shared replay core: decoded
  binaries (weakly cached, one decode per live binary),
  ``TimingConfig``/``TimingResult``, and the ``TimingModel`` base the
  cycle models ride;
* :mod:`repro.sim.ooo` — 2-wide out-of-order scoreboard model (Fig. 10);
* :mod:`repro.sim.inorder` — in-order/EPIC model (Itanium in Fig. 11);
* :mod:`repro.sim.machines` — the five Table III machines, built from
  parametric ``MachineSpec``s (``spec.fingerprint()`` is the engine's
  replay content-address);
* :mod:`repro.sim.kernels` — the batched numpy replay kernel behind
  every ``TimingModel.simulate``, byte-identical to the models'
  per-instruction ``replay`` loops (kept as its test oracle) and 10-20x
  faster on long traces;
* :mod:`repro.sim.fastexec` — the block-compiling execution engine behind
  ``run_binary``/``Simulator.run``, byte-identical traces several times
  faster than the reference interpreter ``Simulator._run_python`` (kept
  as its test oracle and per-binary fallback).
"""

from repro.sim.functional import SimTrap, Simulator, run_binary
from repro.sim.trace import ExecutionTrace, InstructionMix
from repro.sim.cache import Cache, CacheConfig, simulate_cache, sweep_cache_sizes
from repro.sim.branch import (
    BimodalPredictor,
    GsharePredictor,
    HybridPredictor,
    simulate_predictor,
)
from repro.sim.ooo import OutOfOrderModel
from repro.sim.timing_common import (
    DecodedBinary,
    TimingConfig,
    TimingModel,
    TimingResult,
    decode_binary,
)
from repro.sim.inorder import InOrderModel
from repro.sim.machines import MACHINES, Machine, estimate_runtime
from repro.sim.fastexec import FastSimulator

__all__ = [
    "FastSimulator",
    "BimodalPredictor",
    "Cache",
    "CacheConfig",
    "DecodedBinary",
    "ExecutionTrace",
    "GsharePredictor",
    "HybridPredictor",
    "InOrderModel",
    "InstructionMix",
    "MACHINES",
    "Machine",
    "OutOfOrderModel",
    "SimTrap",
    "Simulator",
    "TimingConfig",
    "TimingModel",
    "TimingResult",
    "decode_binary",
    "estimate_runtime",
    "run_binary",
    "simulate_cache",
    "simulate_predictor",
    "sweep_cache_sizes",
]
