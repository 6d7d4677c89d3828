"""Parametric machine construction vs the five Table III constants."""

import pytest

from repro.cc.driver import compile_program
from repro.sim.functional import run_binary
from repro.sim.machines import (
    MACHINES,
    MachineSpec,
    SPEC_BY_NAME,
    TABLE_III_SPECS,
    machine_from_axes,
    spec_from_axes,
)


@pytest.fixture(scope="module")
def trace(fib_source):
    return run_binary(compile_program(fib_source, "x86", 0).binary)


class TestTableIIIEquivalence:
    def test_constants_are_built_from_specs(self):
        assert len(TABLE_III_SPECS) == len(MACHINES) == 5
        for spec, machine in zip(TABLE_III_SPECS, MACHINES):
            assert spec.name == machine.name
            assert spec.build() == machine

    def test_axes_roundtrip_reproduces_each_machine(self):
        for spec, machine in zip(TABLE_III_SPECS, MACHINES):
            rebuilt = machine_from_axes(name=spec.name, **spec.axes())
            assert rebuilt == machine

    def test_parametric_machines_reproduce_simulation_exactly(self, trace):
        """The fig11 acceptance check: identical timing, cycle for cycle."""
        for spec, machine in zip(TABLE_III_SPECS, MACHINES):
            parametric = machine_from_axes(name=spec.name, **spec.axes())
            assert parametric.simulate(trace) == machine.simulate(trace)
            assert parametric.runtime_seconds(trace) == \
                machine.runtime_seconds(trace)

    def test_spec_by_name_covers_the_quintet(self):
        assert set(SPEC_BY_NAME) == {m.name for m in MACHINES}

    def test_built_machines_carry_their_spec(self):
        for spec, machine in zip(TABLE_III_SPECS, MACHINES):
            assert machine.spec is not None
            assert machine.spec == spec


class TestFingerprint:
    def test_equal_axes_equal_fingerprint_names_never_matter(self):
        a = spec_from_axes(name="alpha", isa="x86", width=4)
        b = spec_from_axes(name="beta", isa="x86", width=4)
        assert a.fingerprint() == b.fingerprint()

    def test_every_cycle_axis_changes_the_fingerprint(self):
        base = spec_from_axes(isa="x86")
        for axis, value in (("isa", "ia64"), ("width", 8), ("rob", 3),
                            ("l1_kb", 64), ("l2_kb", 4096),
                            ("l1_hit_cycles", 9), ("l2_hit_cycles", 99),
                            ("memory_cycles", 999),
                            ("mispredict_penalty", 2),
                            ("predictor_entries", 128),
                            ("in_order", True)):
            changed = spec_from_axes(**{axis: value})
            assert changed.fingerprint() != base.fingerprint(), axis

    def test_frequency_is_excluded(self):
        # The clock scales cycles to seconds outside the cycle model;
        # two specs differing only in clock share replay artifacts.
        slow = spec_from_axes(isa="x86", frequency_ghz=1.0)
        fast = spec_from_axes(isa="x86", frequency_ghz=4.0)
        assert slow.fingerprint() == fast.fingerprint()

    def test_table_iii_fingerprints_are_distinct(self):
        prints = {spec.fingerprint() for spec in TABLE_III_SPECS}
        assert len(prints) == len(TABLE_III_SPECS)


class TestSpecConstruction:
    def test_defaults_produce_a_buildable_machine(self):
        machine = machine_from_axes()
        assert machine.isa.name == "x86"
        assert machine.timing.width == 2

    def test_derived_name_encodes_key_axes(self):
        spec = spec_from_axes(isa="ia64", width=6, rob=256)
        assert "ia64" in spec.name and "w6" in spec.name \
            and "rob256" in spec.name

    def test_explicit_axes_land_in_timing_config(self):
        machine = machine_from_axes(
            isa="x86_64", width=4, rob=128, l1_kb=64, l2_kb=4096,
            l1_hit_cycles=2, memory_cycles=90, mispredict_penalty=10,
            predictor_entries=8192, frequency_ghz=3.2,
        )
        timing = machine.timing
        assert timing.width == 4
        assert timing.rob_size == 128
        assert timing.l1.size_bytes == 64 * 1024
        assert timing.l2.size_bytes == 4096 * 1024
        assert timing.memory_cycles == 90
        assert timing.predictor_entries == 8192
        assert machine.frequency_ghz == 3.2
        assert machine.isa.name == "x86_64"

    def test_unknown_isa_rejected_at_build(self):
        with pytest.raises(KeyError, match="sparc"):
            machine_from_axes(isa="sparc")

    def test_unknown_axis_rejected(self):
        with pytest.raises(TypeError):
            spec_from_axes(l3_kb=1024)

    @pytest.mark.parametrize("axis", ["rob", "predictor_entries"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_rob_or_predictor_rejected(self, axis, value):
        """A zero or negative ROB / predictor table would make the
        oracle models index an empty table and the replay kernel run on
        a -1 mask: the spec refuses it up front."""
        with pytest.raises(ValueError, match=axis):
            MachineSpec(name="bad", **{axis: value})
        with pytest.raises(ValueError, match=axis):
            spec_from_axes(**{axis: value})

    def test_smallest_rob_and_predictor_accepted(self, trace):
        machine = machine_from_axes(rob=1, predictor_entries=1)
        assert machine.simulate(trace).cycles > 0

    def test_in_order_machines_use_the_inorder_model(self, trace):
        ooo = machine_from_axes(width=4)
        ino = machine_from_axes(width=4, in_order=True)
        assert ino.simulate(trace).cycles >= ooo.simulate(trace).cycles

    def test_spec_axes_exclude_name(self):
        axes = MachineSpec(name="anything").axes()
        assert "name" not in axes
