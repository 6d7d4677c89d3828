"""Results-DB round-trip, cross-run queries, ranking, compare, Pareto."""

import pytest

from repro.explore.db import (
    ResultRecord,
    ResultsDB,
    pareto_front,
    result_key,
)


def record(key="k", sweep="s", score=0.5, point=None, metrics=None,
           created=1000.0):
    return ResultRecord(
        key=key,
        sweep=sweep,
        created_at=created,
        point=point or {"width": 2, "opt_level": 0},
        metrics=metrics or {"cpi_err": score, "org_runtime_s": 1.0},
        score=score,
    )


@pytest.fixture
def db(tmp_path):
    with ResultsDB(tmp_path / "results.sqlite3") as handle:
        yield handle


class TestRoundTrip:
    def test_put_get_preserves_everything(self, db):
        original = record(point={"isa": "ia64", "width": 4},
                          metrics={"cpi_err": 0.1, "miss": 0.02})
        db.put(original)
        loaded = db.get("k")
        assert loaded == original

    def test_get_missing_returns_none(self, db):
        assert db.get("absent") is None

    def test_put_same_key_upserts(self, db):
        db.put(record(score=0.5))
        db.put(record(score=0.9))
        assert db.get("k").score == 0.9
        assert len(db.query()) == 1

    def test_cross_run_round_trip(self, tmp_path):
        """A second handle on the same path sees the first run's rows."""
        path = tmp_path / "cross.sqlite3"
        with ResultsDB(path) as first:
            first.put(record(key="a", sweep="run1"))
        with ResultsDB(path) as second:
            rows = second.query(sweep="run1")
            assert [r.key for r in rows] == ["a"]


class TestQuery:
    def test_query_filters_by_sweep(self, db):
        db.put(record(key="a", sweep="one"))
        db.put(record(key="b", sweep="two"))
        assert [r.key for r in db.query(sweep="one")] == ["a"]
        assert len(db.query()) == 2

    def test_where_matches_axis_values(self, db):
        db.put(record(key="a", point={"width": 2, "isa": "x86"}))
        db.put(record(key="b", point={"width": 4, "isa": "x86"}))
        assert [r.key for r in db.query(where={"width": 2})] == ["a"]
        # CLI-style string values coerce.
        assert [r.key for r in db.query(where={"width": "4"})] == ["b"]
        assert db.query(where={"width": 8}) == []
        assert db.query(where={"no_such_axis": 1}) == []

    def test_where_matches_pair_axis_in_cli_rendering(self, db):
        # 'pair' round-trips through JSON as a list; the CLI renders
        # (and accepts) workload/input.
        db.put(record(key="p", point={"pair": ["adpcm", "small"],
                                      "opt_level": 0}))
        assert [r.key for r in db.query(where={"pair": "adpcm/small"})] \
            == ["p"]
        assert db.query(where={"pair": "crc32/small"}) == []

    def test_sweeps_lists_counts(self, db):
        db.put(record(key="a", sweep="one", created=5.0))
        db.put(record(key="b", sweep="one", created=9.0))
        db.put(record(key="c", sweep="two", created=7.0))
        assert db.sweeps() == [("one", 2, 9.0), ("two", 1, 7.0)]

    def test_delete_sweep(self, db):
        db.put(record(key="a", sweep="gone"))
        db.put(record(key="b", sweep="kept"))
        assert db.delete_sweep("gone") == 1
        assert [r.sweep for r in db.query()] == ["kept"]


class TestRank:
    def test_rank_orders_by_score_ascending(self, db):
        db.put(record(key="worst", score=0.9))
        db.put(record(key="best", score=0.1))
        db.put(record(key="mid", score=0.5))
        assert [r.key for r in db.rank()] == ["best", "mid", "worst"]

    def test_rank_by_named_metric_with_limit(self, db):
        db.put(record(key="a", metrics={"cpi_err": 0.3}))
        db.put(record(key="b", metrics={"cpi_err": 0.1}))
        db.put(record(key="c", metrics={"cpi_err": 0.2}))
        assert [r.key for r in db.rank(metric="cpi_err", limit=2)] == \
            ["b", "c"]

    def test_rank_descending(self, db):
        db.put(record(key="a", score=0.1))
        db.put(record(key="b", score=0.9))
        assert [r.key for r in db.rank(ascending=False)] == ["b", "a"]

    def test_unknown_metric_raises(self, db):
        db.put(record())
        with pytest.raises(KeyError, match="unknown metric"):
            db.rank(metric="nope")

    def test_records_missing_the_metric_rank_last(self, db):
        # A degenerate point's undefined relative error is dropped at
        # scoring time; ranking on that metric must not abort.
        db.put(record(key="a", metrics={"cpi_err": 0.3}))
        db.put(record(key="degenerate", metrics={"miss_rate_err": 0.1}))
        db.put(record(key="b", metrics={"cpi_err": 0.1}))
        assert [r.key for r in db.rank(metric="cpi_err")] == \
            ["b", "a", "degenerate"]
        assert [r.key for r in db.rank(metric="cpi_err",
                                       ascending=False)] == \
            ["a", "b", "degenerate"]


class TestCompare:
    def test_compare_matches_points_across_sweeps(self, db):
        db.put(record(key="a1", sweep="left", point={"width": 2},
                      score=0.5))
        db.put(record(key="a2", sweep="right", point={"width": 2},
                      score=0.3))
        db.put(record(key="b1", sweep="left", point={"width": 4},
                      score=0.7))
        matched = db.compare("left", "right")
        assert matched == [({"width": 2}, 0.5, 0.3)]

    def test_compare_skips_points_missing_the_metric(self, db):
        db.put(record(key="a1", sweep="left", point={"width": 2},
                      metrics={"cpi_err": 0.5}))
        db.put(record(key="a2", sweep="right", point={"width": 2},
                      metrics={"miss_rate_err": 0.1}))  # no cpi_err
        db.put(record(key="b1", sweep="left", point={"width": 4},
                      metrics={"cpi_err": 0.7}))
        db.put(record(key="b2", sweep="right", point={"width": 4},
                      metrics={"cpi_err": 0.6}))
        matched = db.compare("left", "right", metric="cpi_err")
        assert matched == [({"width": 4}, 0.7, 0.6)]


class TestKeyRecipe:
    def test_key_is_order_insensitive_and_content_sensitive(self):
        base = result_key({"width": 2, "isa": "x86"}, ("f1", "f2"), 100,
                          "tc")
        assert base == result_key({"isa": "x86", "width": 2},
                                  ("f1", "f2"), 100, "tc")
        assert base != result_key({"isa": "x86", "width": 4},
                                  ("f1", "f2"), 100, "tc")
        assert base != result_key({"width": 2, "isa": "x86"},
                                  ("f1",), 100, "tc")
        assert base != result_key({"width": 2, "isa": "x86"},
                                  ("f1", "f2"), 200, "tc")
        assert base != result_key({"width": 2, "isa": "x86"},
                                  ("f1", "f2"), 100, "other")
        # The sweep label is part of the identity: a renamed sweep is
        # scored (and diffable) on its own.
        assert base != result_key({"width": 2, "isa": "x86"},
                                  ("f1", "f2"), 100, "tc", sweep="named")


class TestPareto:
    def test_front_keeps_only_nondominated(self):
        fast_bad = record(key="fast_bad", score=0.9,
                          metrics={"org_runtime_s": 1.0})
        slow_good = record(key="slow_good", score=0.1,
                           metrics={"org_runtime_s": 5.0})
        dominated = record(key="dominated", score=0.95,
                           metrics={"org_runtime_s": 2.0})
        front = pareto_front([fast_bad, slow_good, dominated])
        assert [r.key for r in front] == ["fast_bad", "slow_good"]

    def test_record_missing_a_metric_is_skipped_not_fatal(self):
        # Possible since undefined relative-error components are
        # dropped at scoring time: the front must warn and skip,
        # consistent with rank/compare, instead of raising KeyError.
        ok = record(key="ok", score=0.5,
                    metrics={"cpi_err": 0.5, "org_runtime_s": 1.0})
        degenerate = record(key="degenerate", score=0.1,
                            metrics={"miss_rate_err": 0.1})
        with pytest.warns(RuntimeWarning, match="Pareto front"):
            front = pareto_front([ok, degenerate])
        assert [r.key for r in front] == ["ok"]

    def test_all_records_missing_the_metric_yields_empty_front(self):
        degenerate = record(key="d", metrics={"miss_rate_err": 0.1})
        with pytest.warns(RuntimeWarning):
            assert pareto_front([degenerate]) == []


class TestRounds:
    def test_rounds_and_searches_parse_round_labels(self, db):
        db.put(record(key="a", sweep="s/round-0", score=0.5,
                      created=1.0))
        db.put(record(key="b", sweep="s/round-0", score=0.4,
                      created=2.0))
        db.put(record(key="c", sweep="s/round-1", score=0.2,
                      created=3.0))
        db.put(record(key="d", sweep="plain-sweep", score=0.1))
        assert db.searches() == ["s"]
        # Manually-built records carry no pairs_scored metric -> scope
        # is unknown (None).
        assert db.rounds("s") == [
            (0, "s/round-0", 2, 0.4, 2.0, None),
            (1, "s/round-1", 1, 0.2, 3.0, None),
        ]
        assert db.rounds("absent") == []

    def test_rounds_report_the_scoring_scope(self, db):
        db.put(record(key="a", sweep="s/round-0", score=0.1,
                      metrics={"cpi_err": 0.1, "pairs_scored": 1}))
        db.put(record(key="b", sweep="s/round-1", score=0.3,
                      metrics={"cpi_err": 0.3, "pairs_scored": 5}))
        assert [(idx, pairs) for idx, _, _, _, _, pairs
                in db.rounds("s")] == [(0, 1), (1, 5)]


class TestStageCosts:
    def test_record_and_history_round_trip(self, db):
        db.record_stage_costs([("compile", 1.5)], toolchain="t" * 8)
        db.record_stage_costs([("compile", 2.5), ("replay", 0.01)])
        history = db.stage_cost_history("compile")
        assert [(s, sec) for s, sec, _ in history] == \
            [("compile", 1.5), ("compile", 2.5)]

    def test_history_is_oldest_first_with_recent_limit(self, db):
        for index in range(5):
            db.record_stage_costs([("run", float(index))])
        history = db.stage_cost_history("run", limit=2)
        assert [seconds for _, seconds, _ in history] == [3.0, 4.0]

    def test_batch_record(self, db):
        recorded = db.record_stage_costs(
            [("compile", 1.0), ("run", 2.0)], toolchain="abc")
        assert recorded == 2
        assert len(db.stage_cost_history()) == 2

    def test_stats_aggregate(self, db):
        db.record_stage_costs([("compile", 1.0), ("compile", 3.0)])
        stats = db.stage_cost_stats()
        assert stats["compile"]["n"] == 2
        assert stats["compile"]["mean_seconds"] == pytest.approx(2.0)
        assert stats["compile"]["last_seconds"] == pytest.approx(3.0)

    def test_empty_stats(self, db):
        assert db.stage_cost_stats() == {}

    def test_costs_survive_reopen(self, tmp_path):
        path = tmp_path / "persist.sqlite3"
        with ResultsDB(path) as first:
            first.record_stage_costs([("synthesize", 4.0)])
        with ResultsDB(path) as second:
            assert len(second.stage_cost_history("synthesize")) == 1


class TestSharedAccess:
    """The daemon and the CLI open the same file concurrently."""

    def test_wal_mode_and_busy_timeout(self, tmp_path):
        with ResultsDB(tmp_path / "wal.sqlite3") as db:
            mode = db._conn.execute("PRAGMA journal_mode").fetchone()[0]
            timeout = db._conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert mode == "wal"
        assert timeout == 10_000

    def test_two_connections_interleave_writes(self, tmp_path):
        path = tmp_path / "shared.sqlite3"
        with ResultsDB(path) as writer, ResultsDB(path) as other:
            writer.put(record(key="w1", sweep="shared"))
            other.put(record(key="w2", sweep="shared"))
            other.record_stage_costs([("compile", 1.0)])
            writer.record_stage_costs([("compile", 2.0)])
            assert {r.key for r in writer.query(sweep="shared")} == \
                {"w1", "w2"}
            assert len(other.stage_cost_history("compile")) == 2

    def test_concurrent_writers_queue_not_fail(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "race.sqlite3"

        def hammer(tag):
            with ResultsDB(path) as db:
                for index in range(20):
                    db.record_stage_costs([(f"stage-{tag}", float(index))])
            return True

        with ThreadPoolExecutor(4) as pool:
            assert all(pool.map(hammer, range(4)))
        with ResultsDB(path) as db:
            assert len(db.stage_cost_history()) == 80
