"""Span arithmetic, the percentile rule and the calibration bracket."""

from __future__ import annotations

import pytest


def spans_fixture():
    # root [0, 10] > a [1, 7] > b [2, 4], b [5, 6]; root > b [8, 9.5]
    return [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 7.0, 0, 0),
        ("b", 2.0, 4.0, 1, 0),
        ("b", 5.0, 6.0, 1, 0),
        ("b", 8.0, 9.5, 0, 0),
    ]


def test_self_time_subtracts_direct_children_only(trace):
    own = trace.self_times(spans_fixture())
    assert own == [10.0 - 6.0 - 1.5, 6.0 - 2.0 - 1.0, 2.0, 1.0, 1.5]
    # Self times partition the root: nothing lost, nothing counted twice.
    assert sum(own) == pytest.approx(10.0)


def test_layer_table_counts_recursion_once(trace):
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("f", 1.0, 9.0, 0, 0),
        ("f", 2.0, 5.0, 1, 0),  # f calls itself
    ]
    table = trace.layer_table(spans)
    assert table["f"]["calls"] == 2
    assert table["f"]["total_s"] == pytest.approx(8.0)  # outer call only
    assert table["f"]["self_s"] == pytest.approx(8.0)  # 5 outer + 3 inner


def test_unattributed_share_is_root_and_loop_self_time(trace):
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("loop.fleet_run", 0.5, 9.5, 0, 0),
        ("engine.facade", 1.0, 9.0, 1, 0),
    ]
    table = trace.layer_table(spans)
    assert trace.unattributed_share(table) == pytest.approx((1.0 + 1.0) / 10.0)
    assert trace.unattributed_share({}) == 0.0


def test_percentile_is_nearest_rank(trace):
    values = list(range(1, 101))
    assert trace.percentile(values, 50) == 50
    assert trace.percentile(values, 90) == 90
    assert trace.percentile(values, 99) == 99
    assert trace.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        trace.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(2, 50), (19, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_highest_percentile_with_ten_samples_beyond(trace, count, expected):
    assert trace.highest_supported_percentile(count) == expected


def test_recorder_nests_and_gives_each_unit_its_own_root(trace):
    ticks = iter(range(100))
    recorder = trace.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: "x", "inner")
    outer = recorder.wrap(lambda: inner() + inner(), "outer")
    recorder.root(outer)
    recorder.root(inner)
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [
        ("root", -1, 0), ("outer", 0, 0), ("inner", 1, 0), ("inner", 1, 0),
        ("root", -1, 4), ("inner", 4, 4),
    ]
    for _name, start, end, _parent, _root in recorder.spans:
        assert end > start


def test_recorder_closes_the_span_when_the_call_raises(trace):
    recorder = trace.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap(boom, "boom")()
    assert recorder.spans[0][2] >= recorder.spans[0][1] > 0
    recorder.wrap(lambda: None, "next")()
    assert recorder.spans[1][3] == -1  # the stack was unwound


def test_patch_and_uninstall_restore_the_attribute(trace):
    class Layer:
        def work(self, query):
            return (len(query), query)

    seen = []
    original = Layer.work
    recorder = trace.Recorder()
    recorder.patch(
        Layer, "work", "layer",
        name_of=lambda _self, query: f"layer.{query}",
        after=lambda result, _self, query: seen.append(result),
    )
    assert Layer().work("ab") == (2, "ab")
    assert recorder.spans[0][0] == "layer.ab"
    assert seen == [(2, "ab")]
    recorder.uninstall()
    assert Layer.work is original


def test_per_layer_metrics_scale_times_and_leave_idle_layers_at_zero(trace):
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("engine.facade", 1.0, 9.0, 0, 0),
        ("exec.select", 2.0, 8.0, 1, 0),
    ]
    metrics = trace.per_layer_metrics(
        spans, trace.Tally(), {"workload.stmts": 1.0}, scale=2.0,
        db_days=0.0, span_cost_s=0.0,
    )
    assert metrics["exec.select_s"] == pytest.approx(12.0)
    assert metrics["engine.facade_self_s"] == pytest.approx(4.0)
    assert metrics["engine.stmt_p50_us"] == pytest.approx(16e6)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.2)
    assert metrics["trace.overhead_ratio"] == 1.0
    assert metrics["dta.session_s"] == 0.0
    assert metrics["controlplane.tuning_cpu_s_per_db_day"] == 0.0


def test_trace_events_are_complete_events_in_microseconds(trace):
    document = trace.trace_events(spans_fixture())
    events = document["traceEvents"]
    assert [e["ph"] for e in events] == ["X"] * 5
    assert events[2]["ts"] == pytest.approx(2e6)
    assert events[2]["dur"] == pytest.approx(2e6)


def test_speed_factor_uses_the_samples_bracketing_the_interval(hostspeed):
    times = [0.0, 1.0, 2.0, 3.0]
    durations = [0.010, 0.020, 0.040, 0.010]
    ref = hostspeed.REFERENCE_S
    # [1.2, 1.8] lies between the samples at 1.0 and 2.0.
    assert hostspeed.speed_factor(times, durations, 1.2, 1.8) == (
        pytest.approx(ref / 0.030)
    )
    # A long unit averages every sample it spans, plus the brackets.
    assert hostspeed.speed_factor(times, durations, 0.5, 2.5) == (
        pytest.approx(ref / 0.020)
    )
    # Outside the sampled range the nearest sample stands in.
    assert hostspeed.speed_factor(times, durations, 5.0, 6.0) == (
        pytest.approx(ref / 0.010)
    )
    with pytest.raises(ValueError):
        hostspeed.speed_factor([], [], 0.0, 1.0)
