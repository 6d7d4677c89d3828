"""Derived report sections: one content-addressed store entry each.

Every section that is a pure function of stored artifacts is served on a
warm rerun from its ``derive`` entry — same tables, no compiles, runs or
timing replays — while the results-DB sections keep reading the DB.
"""

import sys

import pytest

from repro.engine.api import STAGE_DERIVE, Engine
from repro.engine.store import ArtifactStore
from repro.experiments.report import FIGURES, generate_report, warm_figures
from repro.experiments.runner import ExperimentRunner

PAIRS = (("synth:s5-int-f64-d1-t3-e20-c1", "small"),)
DERIVED = tuple(name for name, spec in FIGURES.items() if spec.derived)
SELECTION = DERIVED + ("history",)


def _report(cache_dir, figures=SELECTION, **engine_options):
    engine = Engine(cache_dir=cache_dir, **engine_options)
    text = generate_report(ExperimentRunner(engine=engine), figures=figures,
                           pairs=PAIRS)
    return engine, text


def _sections(text: str) -> str:
    """The report without its header (timings and hit counts)."""
    return text.split("\n## ", 1)[1]


def _count_calls(monkeypatch, calls: dict) -> None:
    """Count every call of the compiler, the functional simulator and
    the timing models, through any ``from ... import`` binding."""
    from repro.cc import driver
    from repro.sim import functional
    from repro.sim.timing_common import TimingModel

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in ((driver, "compile_program"),
                         (functional, "run_binary")):
        original = getattr(module, attr)
        calls[attr] = 0
        wrapper = counted(attr, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    getattr(loaded, attr, None) is original:
                monkeypatch.setattr(loaded, attr, wrapper)
    calls["simulate"] = 0
    monkeypatch.setattr(TimingModel, "simulate",
                        counted("simulate", TimingModel.simulate))


def test_registry_marks_the_artifact_sections_derived():
    assert set(DERIVED) == {"fig04", "fig05", "fig06", "fig07", "fig08",
                            "fig09", "fig10", "fig11", "obfuscation",
                            "ablation"}


def test_warm_report_matches_cold_and_recomputes_nothing(tmp_path,
                                                         monkeypatch):
    cold_engine, cold = _report(tmp_path)
    assert cold_engine.store.by_stage()[STAGE_DERIVE]["entries"] == \
        len(DERIVED)

    calls: dict = {}
    _count_calls(monkeypatch, calls)
    warm_engine, warm = _report(tmp_path)
    assert _sections(warm) == _sections(cold)
    assert calls == {"compile_program": 0, "run_binary": 0, "simulate": 0}
    # One read per derived section, nothing else.
    assert warm_engine.stats.hits == len(DERIVED)
    assert warm_engine.stats.misses == 0


def test_warm_prefetch_is_empty(tmp_path):
    _report(tmp_path)
    runner = ExperimentRunner(engine=Engine(cache_dir=tmp_path))
    assert warm_figures(runner, SELECTION, pairs=PAIRS) == 0
    assert runner.engine.stats.hits == runner.engine.stats.misses == 0


def test_prefetch_covers_only_sections_that_miss(tmp_path):
    _report(tmp_path, figures=("fig04",))
    runner = ExperimentRunner(engine=Engine(cache_dir=tmp_path))
    # fig04 is stored; fig05 must still warm its -O0..-O3 grid.
    both = warm_figures(runner, ("fig04", "fig05"), pairs=PAIRS)
    fresh = ExperimentRunner(engine=Engine(cache_dir=tmp_path / "other"))
    assert both == warm_figures(fresh, ("fig05",), pairs=PAIRS) > 0


class TestDeriveKey:
    def test_stable_for_equal_inputs(self, tmp_path):
        first = Engine(cache_dir=tmp_path).derive_key("fig04", PAIRS)
        assert first == Engine(cache_dir=tmp_path).derive_key("fig04", PAIRS)
        assert first != Engine(cache_dir=tmp_path).derive_key("fig05", PAIRS)

    def test_changes_with_target_instructions(self, tmp_path):
        key = Engine(cache_dir=tmp_path).derive_key("fig04", PAIRS)
        bigger = Engine(cache_dir=tmp_path, target_instructions=30_000)
        assert bigger.derive_key("fig04", PAIRS) != key

    def test_changes_with_toolchain(self, tmp_path):
        key = Engine(cache_dir=tmp_path).derive_key("fig04", PAIRS)
        other = Engine(store=ArtifactStore(root=tmp_path, toolchain="f" * 64))
        assert other.derive_key("fig04", PAIRS) != key

    def test_changes_with_pair_source(self, tmp_path, monkeypatch):
        from repro.engine import tasks

        engine = Engine(cache_dir=tmp_path)
        key = engine.derive_key("fig04", PAIRS)
        original = tasks._workload_source
        monkeypatch.setattr(tasks, "_workload_source",
                            lambda payload: original(payload) + "\n")
        tasks.pair_fingerprint.cache_clear()
        try:
            assert engine.derive_key("fig04", PAIRS) != key
        finally:
            monkeypatch.undo()
            tasks.pair_fingerprint.cache_clear()
        assert engine.derive_key("fig04", PAIRS) == key


class TestDerive:
    def _counter(self):
        calls = []

        def compute():
            calls.append(1)
            return {"value": len(calls)}
        return calls, compute

    def test_store_serves_later_engines(self, tmp_path):
        calls, compute = self._counter()
        first = Engine(cache_dir=tmp_path).derive("s", PAIRS, compute)
        engine = Engine(cache_dir=tmp_path)
        assert engine.has_derived("s", PAIRS)
        assert engine.derive("s", PAIRS, compute) == first
        assert len(calls) == 1
        assert engine.stats.hits == 1 and engine.stats.misses == 0

    def test_cache_disabled_engine_recomputes(self):
        calls, compute = self._counter()
        engine = Engine(use_cache=False)
        assert engine.derive_key("s", PAIRS) is None
        assert not engine.has_derived("s", PAIRS)
        engine.derive("s", PAIRS, compute)
        engine.derive("s", PAIRS, compute)
        assert len(calls) == 2

    def test_cache_disabled_report_recomputes(self, monkeypatch):
        calls: dict = {}
        _report(None, figures=("fig04",), use_cache=False)
        _count_calls(monkeypatch, calls)
        _report(None, figures=("fig04",), use_cache=False)
        assert calls["compile_program"] > 0 and calls["run_binary"] > 0

    @pytest.mark.parametrize("stored", [False, True])
    def test_records_span_and_cache_outcome(self, tmp_path, stored):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        _, compute = self._counter()
        if stored:
            Engine(cache_dir=tmp_path).derive("s", PAIRS, compute)
        engine = Engine(cache_dir=tmp_path, metrics=MetricsRegistry(),
                        tracer=Tracer())
        engine.derive("s", PAIRS, compute)
        spans = [span for span in engine.tracer.spans()
                 if span["cat"] == STAGE_DERIVE]
        outcome = "hit" if stored else "executed"
        assert [(span["name"], span["args"]["outcome"])
                for span in spans] == [("derive:s", outcome)]
        metrics = engine.metrics.snapshot()["metrics"]
        cache = next(m for m in metrics if m["name"] == "engine_cache")
        assert cache["data"]["values"] == {"hit" if stored else "miss": 1}


def test_history_reflects_a_sweep_recorded_between_reports(tmp_path):
    from repro.engine.store import toolchain_fingerprint
    from repro.explore.db import ResultRecord, ResultsDB

    _, before = _report(tmp_path, figures=("fig04", "history"))
    assert "no stored sweep results yet" in before
    with ResultsDB(tmp_path / "explore.sqlite3") as db:
        db.put(ResultRecord(
            key="k1", sweep="between-reports", created_at=100.0,
            point={"isa": "x86", "opt_level": 0}, metrics={"cpi_err": 0.1},
            score=0.1, toolchain=toolchain_fingerprint(),
        ))
    engine, after = _report(tmp_path, figures=("fig04", "history"))
    assert "between-reports" in after
    assert engine.stats.misses == 0
