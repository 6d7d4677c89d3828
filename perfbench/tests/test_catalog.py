"""Metric names and units: the catalog, BENCHMARK.json and the contract."""

import json
import re
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_catalog():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(catalog.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(catalog.PER_LAYER)


def test_names_units_and_bounds_follow_the_contract():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in bench["end_to_end"])}
    assert 1 <= len(bench["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])


def test_sections_are_the_report_sections():
    from repro.experiments.report import FIGURES

    assert tuple(FIGURES) == catalog.SECTIONS


def test_store_stages_cover_the_engine_stages():
    from repro.engine.tasks import STAGES
    from repro.workloads.synth import RECIPE_STAGE

    assert set(catalog.STORE_STAGES) == set(STAGES) | {RECIPE_STAGE}
