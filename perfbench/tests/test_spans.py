"""Wrappers, self-time arithmetic and per-layer metrics."""

import sys
import types

import pytest

import catalog
import spans


class Clock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrap_records_nesting_and_description():
    clock = Clock()
    recorder = spans.SpanRecorder(clock=clock)

    def inner(x):
        clock.now += 2
        return x * 2

    traced_inner = recorder.wrap("inner", inner,
                                 lambda args, kwargs, result: {"out": result})

    def outer():
        clock.now += 1
        value = traced_inner(3)
        clock.now += 1
        return value

    assert recorder.wrap("outer", outer)() == 6
    (outer_span, inner_span) = recorder.spans
    assert outer_span[:5] == [0, None, "outer", 0.0, 4.0]
    assert inner_span[:5] == [1, 0, "inner", 1.0, 3.0]
    assert inner_span[5] == {"out": 6}


def test_wrap_closes_span_on_error_and_skips_when_inactive():
    clock = Clock()
    recorder = spans.SpanRecorder(clock=clock)

    def boom():
        clock.now += 1
        raise ValueError("x")

    traced = recorder.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert recorder.spans[0][3:5] == [0.0, 1.0]
    assert recorder._open == []
    recorder.active = False
    with pytest.raises(ValueError):
        traced()
    assert len(recorder.spans) == 1


def test_patch_function_replaces_every_binding():
    source = types.ModuleType("repro._bench_test_source")
    user = types.ModuleType("repro._bench_test_user")

    def work():
        return 1

    source.work = work
    user.work = work
    user.other = lambda: 2
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    try:
        recorder = spans.SpanRecorder()
        spans._patch_function(recorder, source.__name__, "work", "w")
        assert source.work is user.work is not work
        assert user.work() == 1
        assert [span[2] for span in recorder.spans] == ["w"]
    finally:
        del sys.modules[source.__name__]
        del sys.modules[user.__name__]


def test_self_time_subtracts_union_of_children():
    span_list = [
        [0, None, "cc.compile", 0.0, 10.0, None],
        [1, 0, "lang.parse", 1.0, 4.0, None],
        [2, 0, "opt.ir_passes", 3.0, 6.0, None],  # overlaps its sibling
        [3, 2, "ir.verify", 5.0, 5.5, None],
    ]
    self_s = spans.self_times(span_list)
    assert self_s == {0: pytest.approx(5.0), 1: pytest.approx(3.0),
                      2: pytest.approx(2.5), 3: pytest.approx(0.5)}


def test_layer_times_plus_unattributed_equal_wall():
    span_list = [
        [0, None, "python.import", 0.5, 1.0, None],
        [1, None, "experiments.report", 1.0, 9.0, None],
        [2, 1, "engine.stage", 2.0, 5.0, {"stage": "compile"}],
        [3, 2, "cc.compile", 2.0, 4.0, {"static_instrs": 100}],
        [4, 3, "lang.parse", 2.0, 3.0, None],
        [5, 1, "experiments.fig11", 5.0, 8.0, None],
        [6, 5, "cc.compile", 5.0, 6.0, {"static_instrs": 50}],
        [7, 5, "sim.replay", 6.0, 7.0, {"instructions": 2_000_000}],
    ]
    metrics = spans.layer_metrics(span_list, wall_s=10.0)
    seconds = sum(metrics[name] for name in set(catalog.SPAN_METRIC.values()))
    assert seconds + metrics["engine.unattributed_s"] == pytest.approx(10.0)
    assert metrics["engine.unattributed_s"] == pytest.approx(1.5)
    assert metrics["cc.compile_s"] == pytest.approx(2.0)
    assert metrics["lang.parse_s"] == pytest.approx(1.0)
    assert metrics["engine.graph_s"] == pytest.approx(1.0)
    assert metrics["cc.compile_calls"] == 2
    assert metrics["cc.compile_calls_outside_engine"] == 1
    assert metrics["sim.replay_calls_outside_engine"] == 1
    assert metrics["isa.static_instrs"] == 150
    assert metrics["sim.replay_minstr_per_s"] == pytest.approx(2.0)


def test_store_get_description_counts_hits_and_bytes(tmp_path):
    path = tmp_path / "object.pkl"
    path.write_bytes(b"x" * 10)
    store = types.SimpleNamespace(path_for=lambda key: path)
    miss = object()
    assert spans._store_get((store, "k", miss), {}, miss) == {"hit": 0}
    assert spans._store_get((store, "k", miss), {}, 5) == {"hit": 1,
                                                         "bytes": 10}


def test_every_span_name_has_a_metric():
    names = {name for _, _, name, _ in spans.FUNCTIONS}
    names |= {"engine.api", "engine.store.get", "engine.store.put",
              "explore.db", "sim.replay", "python.import"}
    names |= {f"experiments.{name}" for name in catalog.SECTIONS}
    assert names <= set(catalog.SPAN_METRIC)
