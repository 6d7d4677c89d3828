"""CostModel: EWMA learning and per-stage priors for cold stages."""

from __future__ import annotations

import pytest

from repro.explore.db import ResultsDB
from repro.serve.costs import (
    DEFAULT_ALPHA,
    DEFAULT_PRIOR_SECONDS,
    MIN_SAMPLES,
    PRIOR_SECONDS,
    CostModel,
)


class TestColdModel:
    def test_cold_cost_is_static_table(self):
        model = CostModel()
        for stage, prior in PRIOR_SECONDS.items():
            assert model.estimate_seconds([stage]) == prior
        assert PRIOR_SECONDS == {
            "compile": 0.2, "run": 0.15, "profile": 0.05,
            "synthesize": 0.25, "compile-clone": 0.08, "run-clone": 0.04,
            "replay": 0.005,
        }

    def test_cold_unknown_stage_uses_default(self):
        assert CostModel().estimate_seconds(["nonesuch"]) == 0.1
        assert DEFAULT_PRIOR_SECONDS == 0.1

    def test_cold_seconds_is_none(self):
        assert CostModel().seconds("compile") is None

    def test_estimate_prices_cold_stages_through_priors(self):
        model = CostModel()
        assert model.estimate_seconds(["compile", "replay"]) == \
            pytest.approx(0.205)
        assert model.estimate_seconds(
            ["compile", "run", "profile", "synthesize", "compile-clone",
             "run-clone", "replay", "nonesuch"]) == pytest.approx(0.875)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            CostModel(alpha=0.0)
        with pytest.raises(ValueError):
            CostModel(alpha=1.5)


class TestLearning:
    def test_default_alpha_is_sane(self):
        assert 0.0 < DEFAULT_ALPHA <= 1.0

    def test_warm_after_min_samples(self):
        model = CostModel()
        for _ in range(MIN_SAMPLES - 1):
            model.observe("compile", 2.0)
        assert model.seconds("compile") is None
        model.observe("compile", 2.0)
        assert model.seconds("compile") == pytest.approx(2.0)

    def test_ewma_folds_with_alpha(self):
        model = CostModel(alpha=0.5, min_samples=1)
        model.observe("run", 1.0)
        model.observe("run", 3.0)
        assert model.seconds("run") == pytest.approx(2.0)

    def test_negative_observations_ignored(self):
        model = CostModel(min_samples=1)
        model.observe("run", -1.0)
        assert model.samples("run") == 0

    def test_estimate_mixes_learned_and_static(self):
        model = CostModel(min_samples=1)
        model.observe("compile", 4.0)
        assert model.estimate_seconds(["compile", "replay"]) == \
            pytest.approx(4.005)

    def test_snapshot_reports_source(self):
        model = CostModel(min_samples=1)
        model.observe("compile", 1.0)
        snap = model.snapshot()
        assert snap["compile"]["source"] == "learned"
        assert snap["compile"]["seconds"] == 1.0
        assert snap["replay"]["source"] == "static"
        assert snap["replay"]["seconds"] == 0.005
        assert snap["replay"]["ewma_seconds"] is None


class TestPersistence:
    def test_observe_persists_to_db(self, tmp_path):
        with ResultsDB(tmp_path / "e.sqlite3") as db:
            model = CostModel(db=db, min_samples=1)
            model.observe("compile", 1.5)
            history = db.stage_cost_history("compile")
        assert [(s, sec) for s, sec, _ in history] == [("compile", 1.5)]

    def test_warm_start_replays_history(self, tmp_path):
        path = tmp_path / "e.sqlite3"
        with ResultsDB(path) as db:
            db.record_stage_costs([("compile", 2.0)] * MIN_SAMPLES)
        with ResultsDB(path) as db:
            model = CostModel(db=db)
        assert model.seconds("compile") == pytest.approx(2.0)
        assert model.samples("compile") == MIN_SAMPLES

    def test_warm_start_does_not_rewrite_history(self, tmp_path):
        path = tmp_path / "e.sqlite3"
        with ResultsDB(path) as db:
            db.record_stage_costs([("run", 1.0)])
        with ResultsDB(path) as db:
            CostModel(db=db)
            assert len(db.stage_cost_history()) == 1
