"""Fast-engine equivalence suite: the fast engine against the reference
interpreter (``Simulator._run_python``, the oracle) must be byte-identical.

The fast engine's contract is pickle-equality of the full
:class:`ExecutionTrace` — block sequence, memory-address stream, branch
log, output, exit value, instruction count — plus exact ``SimTrap``
parity (same trap kind and message at the same boundary).

``REPRO_EXEC_EQUIV_ALL=1`` widens the traced sweep from the sample pairs
to every workload pair (the CI fast leg's job).
"""

import gc
import os
import pickle

import pytest

from repro.cc.driver import compile_program
from repro.sim import fastexec
from repro.sim.functional import SimTrap, Simulator, run_binary
from repro.workloads import WORKLOADS, all_pairs

# Loop-heavy, call-heavy, FP-heavy and branchy workloads; small inputs
# keep the tier-1 run fast.  dijkstra exercises the memo-hit path.
SAMPLE_PAIRS = (
    ("bitcount", "small"),
    ("crc32", "small"),
    ("dijkstra", "small"),
    ("fft", "small"),
    ("qsort", "small"),
    ("sha", "small"),
    ("stringsearch", "small"),
)


def equiv_pairs():
    if os.environ.get("REPRO_EXEC_EQUIV_ALL") == "1":
        return tuple(all_pairs())
    return SAMPLE_PAIRS


_BINARIES: dict = {}


def binary_for(workload: str, input_name: str):
    key = (workload, input_name)
    if key not in _BINARIES:
        source = WORKLOADS[workload].source_for(input_name)
        _BINARIES[key] = compile_program(source, "x86", 0).binary
    return _BINARIES[key]


def assert_equivalent(binary, collect_trace: bool = True) -> None:
    ref = Simulator(binary)._run_python(collect_trace)
    fast = fastexec.FastSimulator(binary).run(collect_trace)
    assert pickle.dumps(ref) == pickle.dumps(fast)


class TestTraceEquivalence:
    @pytest.mark.parametrize("workload,input_name", equiv_pairs())
    def test_traced_byte_identical(self, workload, input_name):
        assert_equivalent(binary_for(workload, input_name), collect_trace=True)

    @pytest.mark.parametrize("workload,input_name", SAMPLE_PAIRS)
    def test_untraced_byte_identical(self, workload, input_name):
        assert_equivalent(binary_for(workload, input_name), collect_trace=False)

    def test_run_binary_matches_oracle(self):
        """The public entry point runs the fast engine, same bytes as
        the oracle."""
        binary = binary_for("crc32", "small")
        assert (pickle.dumps(run_binary(binary))
                == pickle.dumps(Simulator(binary)._run_python(True)))


class TestTrapParity:
    def trap_message(self, run, *args, **kwargs) -> str:
        with pytest.raises(SimTrap) as excinfo:
            run(*args, **kwargs)
        return str(excinfo.value)

    def assert_same_trap(self, binary, needle: str, **sim_kwargs) -> None:
        ref = self.trap_message(
            lambda: Simulator(binary, **sim_kwargs)._run_python(True))
        fast = self.trap_message(
            lambda: fastexec.FastSimulator(binary, **sim_kwargs).run(True))
        assert ref == fast
        assert needle in fast

    def test_budget_exhaustion(self):
        binary = compile_program("int main() { while (1) { } return 0; }",
                                 "x86", 0).binary
        self.assert_same_trap(binary, "budget", max_instructions=10_000)

    def test_budget_boundary_is_exact(self):
        """Trap-vs-complete must flip at the same instruction count."""
        binary = binary_for("bitcount", "small")
        total = Simulator(binary)._run_python(True).instructions
        for runner in (
            lambda mi: Simulator(binary, max_instructions=mi)._run_python(True),
            lambda mi: fastexec.FastSimulator(binary, mi).run(True),
        ):
            assert runner(total).instructions == total
            with pytest.raises(SimTrap, match="budget"):
                runner(total - 1)

    def test_division_by_zero(self):
        binary = compile_program(
            "int main() { int z = 0; return 1 / z; }", "x86", 0).binary
        self.assert_same_trap(binary, "division by zero")

    @pytest.mark.parametrize("idx,kind", [
        (-2000000000, "load"), (2000000000, "load"),
    ])
    def test_out_of_range_load(self, idx, kind):
        binary = compile_program(
            "int t[4];\n"
            "int peek(int i) { return t[i]; }\n"
            f"int main() {{ printf(\"%d\", peek({idx})); return 0; }}",
            "x86", 0).binary
        self.assert_same_trap(binary, f"{kind} out of range")

    @pytest.mark.parametrize("idx", [-2000000000, 2000000000])
    def test_out_of_range_store(self, idx):
        binary = compile_program(
            "int t[4];\n"
            "void poke(int i) { t[i] = 7; }\n"
            f"int main() {{ poke({idx}); return 0; }}",
            "x86", 0).binary
        self.assert_same_trap(binary, "store out of range")


class TestSegmentMemo:
    def test_memo_engages(self):
        """Anchored loops must actually replay memoized iterations —
        otherwise the equivalence above only covers compiled blocks."""
        binary = binary_for("dijkstra", "small")
        unit = fastexec._compiled_unit(binary, True)
        assert unit is not None and unit.anchors
        before = sum(a.hits for a in unit.anchors)
        fastexec.FastSimulator(binary).run(True)
        assert sum(a.hits for a in unit.anchors) > before

    def test_adaptive_anchors_self_disable(self):
        """Loops whose entry state never repeats (bitcount's LCG-driven
        kernels) must shut their anchors off instead of probing forever."""
        binary = binary_for("bitcount", "small")
        unit = fastexec._compiled_unit(binary, True)
        assert unit is not None
        fastexec.FastSimulator(binary).run(True)
        probed = [a for a in unit.anchors if a.probes]
        assert probed
        assert all(not a.on or a.hits for a in probed)


class TestCompiledCache:
    SOURCE = ('int main() { int i; int s; s = 0; '
              'for (i = 0; i < 10; i = i + 1) { s = s + i; } '
              'printf("%d", s); return 0; }')

    def test_unit_reused_per_binary(self):
        binary = compile_program(self.SOURCE, "x86", 0).binary
        unit1 = fastexec._compiled_unit(binary, True)
        unit2 = fastexec._compiled_unit(binary, True)
        assert unit1 is not None and unit1 is unit2

    def test_traced_and_untraced_compile_separately(self):
        binary = compile_program(self.SOURCE, "x86", 0).binary
        traced = fastexec._compiled_unit(binary, True)
        untraced = fastexec._compiled_unit(binary, False)
        assert traced is not untraced
        assert traced.traced and not untraced.traced

    def test_cache_entry_dies_with_binary(self):
        gc.collect()  # flush earlier tests' cyclic garbage first
        binary = compile_program(self.SOURCE, "x86", 0).binary
        fastexec._compiled_unit(binary, True)
        before = fastexec.compiled_cache_size()
        del binary
        gc.collect()
        assert fastexec.compiled_cache_size() == before - 1

    def test_debug_hook_records_units(self):
        binary = compile_program(self.SOURCE, "x86", 0).binary
        fastexec.EXEC_DEBUG = {}
        try:
            fastexec.FastSimulator(binary).run(True)
            units = fastexec.EXEC_DEBUG.get("units")
            assert units and units[0]["traced"]
        finally:
            fastexec.EXEC_DEBUG = None
