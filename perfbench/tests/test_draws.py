"""The seeded draws: reproducible, bounded, resolvable."""

import draws
from repro.workloads import parse_pairs
from repro.workloads.synth import SynthRecipe


def test_same_seed_same_draw_and_seeds_differ():
    for workload in ("report-cold", "report-warm", "sweep-replay"):
        assert draws.draw(workload, 7) == draws.draw(workload, 7)
    assert draws.draw("report-cold", 7) == draws.draw("report-warm", 7)
    assert len({tuple(draws.report_pairs(seed)) for seed in range(20)}) == 20


def test_report_draw_is_bounded():
    for seed in range(50):
        pairs = draws.report_pairs(seed)
        assert pairs[:-1] == [(name, "small") for name in draws.REPORT_CORE]
        recipe = SynthRecipe.parse(pairs[-1][0])
        assert recipe.footprint <= 4096
        assert (recipe.depth, recipe.trip, recipe.calls) == (2, 28, 2)
        assert parse_pairs(",".join(f"{w}/{i}" for w, i in pairs))


def test_sweep_pairs_are_large_inputs():
    assert draws.draw("sweep-replay", 3) == list(draws.SWEEP_PAIRS)
    assert all(input_name == "large" for _, input_name in draws.SWEEP_PAIRS)
