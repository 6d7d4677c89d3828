"""Machines: parametric construction plus the paper's Table III quintet.

A :class:`MachineSpec` is an axis-value description of a hardware
platform — ISA, clock, issue width, ROB size, L1/L2 geometry, memory and
branch parameters — that lowers to a concrete :class:`Machine` via
:meth:`MachineSpec.build`.  The explorer (:mod:`repro.explore`) sweeps
spaces of these axis values; the five fixed machines of the paper's
Table III are themselves built from :data:`TABLE_III_SPECS`, so the
parametric path and the paper's constants can never drift apart.

The Table III parameters are first-order public-spec values (issue
width, ROB size, cache sizes, pipeline depth via the mispredict penalty);
Fig. 11 only reads *normalized* execution times, so relative magnitudes
are what matters:

==============  =======  ======  =====  ====  =======  =========
machine         ISA      clock   width  ROB   L1 D     L2
==============  =======  ======  =====  ====  =======  =========
Pentium 4 3GHz  x86      3.0GHz  2      126   8 KB     1 MB
Core 2          x86_64   2.2GHz  3      96    32 KB    2 MB
Pentium 4 2.8   x86      2.8GHz  2      126   8 KB     1 MB
Itanium 2       ia64     0.9GHz  4      --    16 KB    256 KB (in-order)
Core i7         x86_64   2.67GHz 4      128   32 KB    8 MB
==============  =======  ======  =====  ====  =======  =========
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from repro.isa.targets import ISA, ISA_BY_NAME
from repro.sim.cache import CacheConfig
from repro.sim.inorder import InOrderModel
from repro.sim.ooo import OutOfOrderModel
from repro.sim.timing_common import TimingConfig, TimingResult
from repro.sim.trace import ExecutionTrace


@dataclass(frozen=True)
class Machine:
    """One hardware platform: ISA + clock + core model."""

    name: str
    isa: ISA
    frequency_ghz: float
    in_order: bool
    timing: TimingConfig = field(hash=False)
    #: The parametric spec this machine was built from, when it came
    #: through :meth:`MachineSpec.build` — what lets the engine address
    #: replays on this machine by content (``spec.fingerprint()``).
    spec: "MachineSpec | None" = field(default=None, hash=False,
                                       compare=False)

    def model(self):
        if self.in_order:
            return InOrderModel(self.timing)
        return OutOfOrderModel(self.timing)

    def simulate(self, trace: ExecutionTrace) -> TimingResult:
        return self.model().simulate(trace)

    def runtime_seconds(self, trace: ExecutionTrace) -> float:
        result = self.simulate(trace)
        return result.cycles / (self.frequency_ghz * 1e9)


@dataclass(frozen=True)
class MachineSpec:
    """Axis-value description of a machine — the unit the explorer sweeps.

    Every field except ``name`` is a sweepable axis.  Cache geometry is
    expressed as capacity only; lines stay 32 B and associativity 4-way
    (L1) / 8-way (L2), matching every Table III configuration.
    """

    name: str
    isa: str = "x86"
    frequency_ghz: float = 2.0
    width: int = 2
    rob: int = 64
    l1_kb: int = 32
    l2_kb: int = 1024
    l1_hit_cycles: int = 3
    l2_hit_cycles: int = 14
    memory_cycles: int = 120
    mispredict_penalty: int = 12
    predictor_entries: int = 4096
    in_order: bool = False

    def __post_init__(self):
        # Both would index an empty ROB ring / predictor table.
        for axis in ("rob", "predictor_entries"):
            if getattr(self, axis) < 1:
                raise ValueError(f"{axis} must be >= 1, "
                                 f"got {getattr(self, axis)!r}")

    def build(self) -> Machine:
        if self.isa not in ISA_BY_NAME:
            raise KeyError(
                f"unknown ISA {self.isa!r} "
                f"(available: {', '.join(sorted(ISA_BY_NAME))})"
            )
        timing = TimingConfig(
            width=self.width,
            rob_size=self.rob,
            l1=CacheConfig(self.l1_kb * 1024, 32, 4),
            l2=CacheConfig(self.l2_kb * 1024, 32, 8),
            l1_hit_cycles=self.l1_hit_cycles,
            l2_hit_cycles=self.l2_hit_cycles,
            memory_cycles=self.memory_cycles,
            mispredict_penalty=self.mispredict_penalty,
            predictor_entries=self.predictor_entries,
        )
        return Machine(
            name=self.name,
            isa=ISA_BY_NAME[self.isa],
            frequency_ghz=self.frequency_ghz,
            in_order=self.in_order,
            timing=timing,
            spec=self,
        )

    def axes(self) -> dict:
        """The spec as a plain axis→value dict (everything but the name)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "name"
        }

    def fingerprint(self) -> str:
        """Canonical content digest of the cycle-model axes.

        This is what makes a timing replay content-addressable *before*
        execution (see ``repro.engine.tasks.STAGE_REPLAY``): equal axes
        always digest equally, names never matter, and field order is
        canonicalized.  ``frequency_ghz`` is deliberately excluded — the
        clock scales cycles to seconds *outside* the cycle model, so two
        specs differing only in clock share one replay artifact.
        """
        axes = self.axes()
        axes.pop("frequency_ghz")
        payload = json.dumps(axes, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_from_axes(name: str | None = None, **axes) -> MachineSpec:
    """Build a :class:`MachineSpec` from axis values; unset axes default.

    Unknown axis names raise ``TypeError`` so sweep definitions fail
    loudly instead of silently ignoring a misspelled parameter.
    """
    spec = MachineSpec(name="", **axes)
    if name is None:
        name = (f"{spec.isa}-w{spec.width}-rob{spec.rob}"
                f"-l1:{spec.l1_kb}k-l2:{spec.l2_kb}k"
                f"@{spec.frequency_ghz}GHz")
    return replace(spec, name=name)


def machine_from_axes(name: str | None = None, **axes) -> Machine:
    """One-shot ``spec_from_axes(...).build()``."""
    return spec_from_axes(name, **axes).build()


# L1 hit latencies (cycles) reflect each design's load-to-use cost: the
# deeply pipelined Pentium 4 pays ~4 cycles, Nehalem ~2 effective, the
# 900 MHz Itanium 2 one.
TABLE_III_SPECS: tuple[MachineSpec, ...] = (
    MachineSpec(
        name="Pentium 4, 3GHz", isa="x86", frequency_ghz=3.0,
        width=2, rob=126, l1_kb=8, l2_kb=1024, l1_hit_cycles=4,
        memory_cycles=200, mispredict_penalty=20,
    ),
    MachineSpec(
        name="Core 2", isa="x86_64", frequency_ghz=2.2,
        width=3, rob=96, l1_kb=32, l2_kb=2048, l1_hit_cycles=3,
        memory_cycles=130, mispredict_penalty=12,
    ),
    MachineSpec(
        name="Pentium 4, 2.8GHz", isa="x86", frequency_ghz=2.8,
        width=2, rob=126, l1_kb=8, l2_kb=1024, l1_hit_cycles=4,
        memory_cycles=190, mispredict_penalty=20,
    ),
    MachineSpec(
        name="Itanium 2", isa="ia64", frequency_ghz=0.9,
        width=4, rob=48, l1_kb=16, l2_kb=256, l1_hit_cycles=1,
        memory_cycles=100, mispredict_penalty=6, in_order=True,
    ),
    MachineSpec(
        name="Core i7", isa="x86_64", frequency_ghz=2.67,
        width=4, rob=128, l1_kb=32, l2_kb=8192, l1_hit_cycles=2,
        memory_cycles=110, mispredict_penalty=14,
    ),
)

SPEC_BY_NAME: dict[str, MachineSpec] = {
    spec.name: spec for spec in TABLE_III_SPECS
}

PENTIUM4_3GHZ = TABLE_III_SPECS[0].build()
CORE2 = TABLE_III_SPECS[1].build()
PENTIUM4_28GHZ = TABLE_III_SPECS[2].build()
ITANIUM2 = TABLE_III_SPECS[3].build()
COREI7 = TABLE_III_SPECS[4].build()

MACHINES: tuple[Machine, ...] = (
    PENTIUM4_3GHZ,
    CORE2,
    PENTIUM4_28GHZ,
    ITANIUM2,
    COREI7,
)


def estimate_runtime(trace: ExecutionTrace, machine: Machine) -> float:
    """Wall-clock seconds for *trace* on *machine*."""
    return machine.runtime_seconds(trace)
