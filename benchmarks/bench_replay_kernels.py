"""Replay-kernel throughput: the oracle loop vs the numpy kernel, per
machine config.

Unlike the figure benchmarks (which time whole pipelines through the
engine), these time *one replay* of the suite's longest trace —
bitcount/large at the engine's ``-O0`` reference — through each Table
III machine's cycle model, three ways:

* ``python`` — the per-instruction ``TimingModel.replay`` oracle loop;
* ``numpy-cold`` — the batched kernel from nothing: per-binary stats
  and packed program, trace packing, vectorized cache/branch
  simulation, interpretation with an empty segment memo (the first
  replay of a binary in a fresh process);
* ``numpy-warm`` — the steady state the engine actually lives in, with
  the per-binary stats, packed program and segment memo populated
  (every replay of a binary after its first, e.g. across the
  explorer's machine sweeps).  The trace is packed again on every
  replay, warm or cold.

Each measurement records ``extra_info["replay"]`` — kernel, machine,
instruction count and instrs/sec — so the ``BENCH_engine.json``
trajectory artifact carries python-vs-numpy replay throughput per
machine config (``python -m repro.engine.bench replay BENCH.json``
prints the table; ``scripts/print_bench_summary.py`` diffs it in CI).

``test_speedup_longest_trace`` is the acceptance gate: warm numpy must
replay the longest trace >= 10x faster than python on the default
machines.
"""

from __future__ import annotations

import time

import pytest

from repro.cc.driver import compile_program
from repro.sim import kernels
from repro.sim.inorder import InOrderModel
from repro.sim.machines import MACHINES
from repro.sim.ooo import OutOfOrderModel
from repro.sim.timing_common import decode_binary
from repro.workloads import WORKLOADS

#: The suite's longest trace at the engine's reference config
#: (``repro.engine.tasks``: x86, -O0) — ~2.8M dynamic instructions.
LONGEST_PAIR = ("bitcount", "large")

_TRACE = {}


def _ref_trace():
    if "trace" not in _TRACE:
        from repro.sim.functional import run_binary

        workload, input_name = LONGEST_PAIR
        source = WORKLOADS[workload].source_for(input_name)
        binary = compile_program(source, "x86", 0).binary
        _TRACE["trace"] = run_binary(binary)
    return _TRACE["trace"]


def _clear_kernel_caches() -> None:
    """Forget every per-binary kernel artifact (static stats, packed
    programs, segment memos) so the next replay pays first-replay
    costs."""
    kernels._STAT_CACHE.clear()


def _timed_replay(benchmark, machine, kernel: str, fn, trace) -> float:
    """Run *fn* once under pytest-benchmark, recording replay metadata."""
    elapsed = []

    def run():
        start = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - start)
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = elapsed[0]
    benchmark.extra_info["replay"] = {
        "kernel": kernel,
        "machine": machine.name,
        "pair": "/".join(LONGEST_PAIR) + "@x86-O0",
        "instructions": trace.instructions,
        "instrs_per_sec": trace.instructions / seconds if seconds else 0.0,
    }
    return seconds


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_python_replay(benchmark, machine):
    trace = _ref_trace()
    decoded = decode_binary(trace.binary)
    model = machine.model()
    _timed_replay(benchmark, machine, "python",
                  lambda: model.replay(trace, decoded), trace)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_numpy_replay_cold(benchmark, machine):
    trace = _ref_trace()
    decoded = decode_binary(trace.binary)
    model = machine.model()
    _clear_kernel_caches()
    _timed_replay(benchmark, machine, "numpy-cold",
                  lambda: kernels.replay_trace(model, trace, decoded), trace)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_numpy_replay_warm(benchmark, machine):
    trace = _ref_trace()
    decoded = decode_binary(trace.binary)
    model = machine.model()
    kernels.replay_trace(model, trace, decoded)  # populate stats + memo
    _timed_replay(benchmark, machine, "numpy-warm",
                  lambda: kernels.replay_trace(model, trace, decoded), trace)


def test_speedup_longest_trace(benchmark):
    """Acceptance: warm numpy >= 10x python on the longest trace, for
    both default cycle models; the measured ratio lands in extra_info."""
    trace = _ref_trace()
    decoded = decode_binary(trace.binary)
    speedups = {}

    def measure():
        for label, model in (("ooo", OutOfOrderModel()),
                             ("inorder", InOrderModel())):
            start = time.perf_counter()
            py = model.replay(trace, decoded)
            t_py = time.perf_counter() - start
            kernels.replay_trace(model, trace, decoded)  # warm up
            start = time.perf_counter()
            fast = kernels.replay_trace(model, trace, decoded)
            t_np = time.perf_counter() - start
            assert py == fast
            speedups[label] = t_py / t_np
        return speedups

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["replay"] = {
        "kernel": "speedup",
        "machine": "default",
        "pair": "/".join(LONGEST_PAIR) + "@x86-O0",
        "instructions": trace.instructions,
        "speedup": {k: round(v, 2) for k, v in speedups.items()},
    }
    print()
    for label, ratio in speedups.items():
        print(f"warm replay speedup [{label}]: {ratio:.1f}x")
    assert min(speedups.values()) >= 10.0, speedups
