"""Batched replay kernels: byte-identical equivalence + selection.

The contract under test is absolute: for every trace and every
configuration, :func:`repro.sim.kernels.replay_trace` must produce a
:class:`TimingResult` whose *pickle bytes* equal the pure-python
model's — scalars and exp-histogram snapshots alike.  Equivalence is
checked three ways:

* real workload traces (a cross-section of the suite's small inputs,
  both cycle models; every pair + Table III machine with
  ``REPRO_KERNEL_EQUIV_ALL=1``);
* the five Table III machines on one trace (distinct cache/ROB/width
  geometries, in-order and out-of-order);
* seeded random mutations of a real trace (addresses and branch
  outcomes rewritten), so the segment memo and periodic-region paths
  see streams no real program produces.
"""

from __future__ import annotations

import gc
import pickle
import random

import numpy as np
import pytest

from repro.cc.driver import compile_program
from repro.sim import kernels
from repro.sim.functional import run_binary
from repro.sim.inorder import InOrderModel
from repro.sim.machines import MACHINES
from repro.sim.ooo import OutOfOrderModel
from repro.sim.timing_common import TimingConfig, decode_binary
from repro.sim.trace import ExecutionTrace
from repro.workloads import WORKLOADS

# Loop-heavy, call-heavy, FP-heavy and branchy workloads; small inputs
# keep the tier-1 run fast.  REPRO_KERNEL_EQUIV_ALL=1 widens this to
# every pair (the CI numpy leg's job).
SAMPLE_PAIRS = (
    ("bitcount", "small"),
    ("crc32", "small"),
    ("fft", "small"),
    ("qsort", "small"),
    ("sha", "small"),
    ("stringsearch", "small"),
)

_TRACES: dict[tuple, ExecutionTrace] = {}


def trace_for(workload: str, input_name: str) -> ExecutionTrace:
    key = (workload, input_name)
    if key not in _TRACES:
        source = WORKLOADS[workload].source_for(input_name)
        binary = compile_program(source, "x86", 0).binary
        _TRACES[key] = run_binary(binary)
    return _TRACES[key]


def assert_equivalent(model, trace) -> None:
    decoded = decode_binary(trace.binary)
    py = model.replay(trace, decoded)
    fast = kernels.replay_trace(model, trace, decoded)
    assert pickle.dumps(py) == pickle.dumps(fast), (
        f"{type(model).__name__} diverged: py={py} np={fast}")


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload,input_name", SAMPLE_PAIRS)
    def test_ooo_byte_identical(self, workload, input_name):
        assert_equivalent(OutOfOrderModel(), trace_for(workload, input_name))

    @pytest.mark.parametrize("workload,input_name", SAMPLE_PAIRS)
    def test_inorder_byte_identical(self, workload, input_name):
        assert_equivalent(InOrderModel(), trace_for(workload, input_name))

    def test_segment_memo_engages(self):
        """The block-memoized path must actually carry real traces —
        otherwise the equivalence above only covers the interpreter."""
        trace = trace_for("crc32", "small")
        kernels.SEG_DEBUG = {}
        try:
            assert_equivalent(OutOfOrderModel(), trace)
            assert kernels.SEG_DEBUG.get("hit", 0) > 0, kernels.SEG_DEBUG
        finally:
            kernels.SEG_DEBUG = None

    def test_memo_persists_across_replays_of_one_binary(self):
        """Second replay of the same binary under the same config must
        hit the per-binary memo far more than it misses."""
        trace = trace_for("sha", "small")
        model = InOrderModel()
        kernels.replay_trace(model, trace)  # populate
        kernels.SEG_DEBUG = {}
        try:
            kernels.replay_trace(model, trace)
            hits = kernels.SEG_DEBUG.get("hit", 0)
            misses = kernels.SEG_DEBUG.get("miss", 0)
            assert hits > 10 * max(misses, 1), kernels.SEG_DEBUG
        finally:
            kernels.SEG_DEBUG = None


class TestMachineMatrix:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_table_iii_byte_identical(self, machine):
        trace = trace_for("fft", "small")
        model = machine.model()
        assert_equivalent(model, trace)


@pytest.mark.skipif("not __import__('os').environ.get('REPRO_KERNEL_EQUIV_ALL')")
class TestFullSuiteEquivalence:
    """The acceptance sweep: every pair, both models (CI numpy leg)."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("input_name", ("small", "large"))
    def test_every_pair(self, workload, input_name):
        trace = trace_for(workload, input_name)
        assert_equivalent(OutOfOrderModel(), trace)
        assert_equivalent(InOrderModel(), trace)


def _mutated(trace: ExecutionTrace, seed: int) -> ExecutionTrace:
    """A trace no real program produces, yet valid by construction:
    same block sequence (so stream lengths still match the binary),
    random data addresses, random branch outcomes."""
    rng = random.Random(seed)
    mem = [rng.randrange(0, 1 << 20) & ~3 for _ in trace.mem_addrs]
    branches = [(entry & ~1) | rng.randint(0, 1) for entry in trace.branch_log]
    return ExecutionTrace(
        binary=trace.binary,
        block_seq=list(trace.block_seq),
        mem_addrs=mem,
        branch_log=branches,
        output=trace.output,
        exit_value=trace.exit_value,
        instructions=trace.instructions,
    )


class TestRandomTraceProperty:
    """Seeded random streams through both kernels (property-style)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_stay_byte_identical(self, seed):
        base = trace_for("qsort", "small")
        trace = _mutated(base, seed)
        model = OutOfOrderModel() if seed % 2 else InOrderModel()
        assert_equivalent(model, trace)

    @pytest.mark.parametrize("seed", (7, 8))
    def test_random_streams_under_nondefault_geometry(self, seed):
        trace = _mutated(trace_for("fft", "small"), seed)
        config = TimingConfig(width=4, rob_size=16, l1_hit_cycles=2,
                              l2_hit_cycles=9, memory_cycles=200,
                              mispredict_penalty=5)
        assert_equivalent(OutOfOrderModel(config), trace)


class TestSelection:
    def _long_trace(self):
        return trace_for("crc32", "small")  # ~196k instrs > threshold

    def test_auto_picks_numpy_past_threshold(self):
        assert kernels.select_kernel(
            OutOfOrderModel(), self._long_trace()) == "numpy"

    def test_auto_keeps_python_below_threshold(self, fib_source):
        trace = run_binary(compile_program(fib_source, "x86", 0).binary)
        assert trace.instructions < kernels.AUTO_THRESHOLD
        assert kernels.select_kernel(OutOfOrderModel(), trace) == "python"

    def test_threshold_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL_THRESHOLD", "1")
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        trace = self._long_trace()
        assert kernels.select_kernel(InOrderModel(), trace) == "numpy"
        monkeypatch.setenv("REPRO_SIM_KERNEL_THRESHOLD",
                           str(trace.instructions + 1))
        assert kernels.select_kernel(InOrderModel(), trace) == "python"

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "numpy")
        model = OutOfOrderModel(TimingConfig(kernel="python"))
        assert kernels.select_kernel(model, self._long_trace()) == "python"

    def test_env_selects_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
        assert kernels.select_kernel(
            OutOfOrderModel(), self._long_trace()) == "python"
        monkeypatch.setenv("REPRO_SIM_KERNEL", "numpy")
        assert kernels.select_kernel(
            OutOfOrderModel(), self._long_trace()) == "numpy"

    def test_unknown_kernel_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "fortran")
        with pytest.raises(ValueError, match="fortran"):
            kernels.select_kernel(OutOfOrderModel(), self._long_trace())

    def test_unbatched_model_falls_back_with_warning(self, monkeypatch):
        class Oddball:
            config = TimingConfig(kernel="numpy")

        monkeypatch.setattr(kernels, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match="no batched kernel"):
            assert kernels.select_kernel(Oddball(), self._long_trace()) \
                == "python"
        # One-time warning: a second call is silent.
        assert kernels.select_kernel(Oddball(), self._long_trace()) \
            == "python"

    def test_simulate_dispatch_is_byte_identical(self):
        """The TimingModel.simulate hook end to end: explicit numpy vs
        explicit python via config, same bytes out."""
        trace = self._long_trace()
        fast = OutOfOrderModel(TimingConfig(kernel="numpy")).simulate(trace)
        slow = OutOfOrderModel(TimingConfig(kernel="python")).simulate(trace)
        assert pickle.dumps(fast) == pickle.dumps(slow)


class TestPackCacheLifetime:
    def test_pack_dies_with_its_trace(self, loopy_source):
        binary = compile_program(loopy_source, "x86", 0).binary
        trace = run_binary(binary)
        before = kernels.pack_cache_size()
        kernels.replay_trace(InOrderModel(), trace)
        assert kernels.pack_cache_size() == before + 1
        del trace
        gc.collect()
        assert kernels.pack_cache_size() == before


class TestPredictorVectorization:
    """The segmented-scan predictor pass is pinned to the reference loop."""

    def test_composition_table_semantics(self):
        """_COMP[a, b] must encode f_b . f_a over all 4 counter states."""
        decode = lambda c: [(c >> (2 * s)) & 3 for s in range(4)]
        rng = np.random.default_rng(0)
        for a, b in rng.integers(0, 256, (500, 2)):
            fa, fb = decode(a), decode(b)
            assert decode(int(kernels._COMP[a, b])) == [
                fb[fa[s]] for s in range(4)
            ]

    @pytest.mark.parametrize("entries", [64, 1024, 4096])
    def test_pin_on_random_streams(self, entries):
        rng = np.random.default_rng(entries)
        for n in (4096, 5001, 20000):
            pcs = rng.integers(0, 150, n, dtype=np.int64)
            taken = rng.integers(0, 2, n, dtype=np.int64)
            br = (pcs << 1) | taken
            ref = kernels._predictor_sim_python(br, entries)
            vec = kernels._predictor_sim_numpy(br, entries)
            assert np.array_equal(ref[0], vec[0])
            assert ref[1:] == vec[1:]

    def test_pin_on_workload_stream(self):
        br = np.asarray(trace_for("crc32", "small").branch_log, dtype=np.int64)
        ref = kernels._predictor_sim_python(br, 2048)
        vec = kernels._predictor_sim_numpy(br, 2048)
        assert np.array_equal(ref[0], vec[0])
        assert ref[1:] == vec[1:]

    def test_dispatcher_matches_reference_below_threshold(self):
        rng = np.random.default_rng(7)
        n = kernels._PREDICTOR_VECTOR_MIN // 2
        br = (rng.integers(0, 50, n, dtype=np.int64) << 1) | rng.integers(
            0, 2, n, dtype=np.int64)
        ref = kernels._predictor_sim_python(br, 1024)
        got = kernels._predictor_sim(br, 1024)
        assert np.array_equal(ref[0], got[0])
        assert ref[1:] == got[1:]
