"""Figs. 7 & 8 — data cache hit rates across sizes (1..32 KB).

Per benchmark: hit rate at each cache size, original vs synthetic.
Fig. 7 uses -O0 binaries, Fig. 8 the -O2 binaries; the paper's example
signal is dijkstra's working-set knee at 8 KB appearing in both the
original and the clone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentRunner, QUICK_PAIRS, format_table
from repro.profiling.memory_profile import PROFILE_SWEEP_SIZES as CACHE_SIZES
from repro.sim.cache import sweep_cache_sizes


@dataclass
class CacheFigureResult:
    level: int
    rows: list[dict] = field(default_factory=list)

    def series(self, workload: str, input_name: str, side: str) -> dict[int, float]:
        for row in self.rows:
            if (
                row["workload"] == workload
                and row["input"] == input_name
                and row["side"] == side
            ):
                return row["hit_rates"]
        raise KeyError((workload, input_name, side))

    def format_table(self) -> str:
        headers = ["benchmark", "side"] + [f"{s // 1024}KB" for s in CACHE_SIZES]
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [f"{row['workload']}/{row['input']}", row["side"]]
                + [row["hit_rates"][size] for size in CACHE_SIZES]
            )
        figure = "Fig. 7" if self.level == 0 else "Fig. 8"
        return format_table(
            headers,
            table_rows,
            title=f"{figure}: data cache hit rates at -O{self.level}",
        )


def run_cache_figure(
    runner: ExperimentRunner,
    pairs=QUICK_PAIRS,
    opt_level: int = 0,
    isa: str = "x86",
    sizes=CACHE_SIZES,
) -> CacheFigureResult:
    result = CacheFigureResult(level=opt_level)
    for workload, input_name in pairs:
        org = runner.original_trace(workload, input_name, isa, opt_level)
        syn = runner.synthetic_trace(workload, input_name, isa, opt_level)
        result.rows.append(
            {
                "workload": workload,
                "input": input_name,
                "side": "ORG",
                "hit_rates": sweep_cache_sizes(org.mem_addrs, sizes),
            }
        )
        result.rows.append(
            {
                "workload": workload,
                "input": input_name,
                "side": "SYN",
                "hit_rates": sweep_cache_sizes(syn.mem_addrs, sizes),
            }
        )
    return result
