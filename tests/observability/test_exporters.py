"""Exporter golden tests: byte-stable Prometheus text and JSON output."""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    MetricsRegistry,
    Profiler,
    SpanRecorder,
    Tracer,
    json_export,
    json_text,
    prometheus_text,
)

PROM_GOLDEN = """\
# HELP events_total Control-plane lifecycle events, by kind.
# TYPE events_total counter
events_total{database="db1",kind="recommendation_created"} 2
events_total{database="db2",kind="validation_started"} 1
# HELP records_in_state Recommendation records currently in each state.
# TYPE records_in_state gauge
records_in_state{state="active"} 3
# HELP state_duration_minutes Simulated time a record spent in one state before leaving it.
# TYPE state_duration_minutes histogram
state_duration_minutes_bucket{state="active",le="1"} 0
state_duration_minutes_bucket{state="active",le="5"} 1
state_duration_minutes_bucket{state="active",le="15"} 2
state_duration_minutes_bucket{state="active",le="30"} 2
state_duration_minutes_bucket{state="active",le="60"} 2
state_duration_minutes_bucket{state="active",le="120"} 2
state_duration_minutes_bucket{state="active",le="240"} 2
state_duration_minutes_bucket{state="active",le="480"} 2
state_duration_minutes_bucket{state="active",le="720"} 2
state_duration_minutes_bucket{state="active",le="1440"} 2
state_duration_minutes_bucket{state="active",le="2880"} 2
state_duration_minutes_bucket{state="active",le="10080"} 2
state_duration_minutes_bucket{state="active",le="+Inf"} 3
state_duration_minutes_sum{state="active"} 20017
state_duration_minutes_count{state="active"} 3
"""


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "events_total", kind="recommendation_created", database="db1"
    ).inc(2)
    registry.counter(
        "events_total", kind="validation_started", database="db2"
    ).inc()
    registry.gauge("records_in_state", state="active").set(3)
    hist = registry.histogram("state_duration_minutes", state="active")
    hist.observe(2.0)
    hist.observe(15.0)
    hist.observe(20000.0)
    return registry


class TestPrometheusText:
    def test_golden(self):
        assert prometheus_text(build_registry()) == PROM_GOLDEN

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_deterministic_across_insertion_order(self):
        a = build_registry()
        b = MetricsRegistry()
        # Same series created in a different order.
        b.gauge("records_in_state", state="active").set(3)
        b.counter(
            "events_total", kind="validation_started", database="db2"
        ).inc()
        hist = b.histogram("state_duration_minutes", state="active")
        for value in (20000.0, 2.0, 15.0):
            hist.observe(value)
        b.counter(
            "events_total", kind="recommendation_created", database="db1"
        ).inc(2)
        assert prometheus_text(a) == prometheus_text(b)


class TestJsonExport:
    def test_metrics_payload(self):
        out = json_export(build_registry())
        assert out["schema"] == "repro-telemetry-v2"
        by_name = {}
        for entry in out["metrics"]:
            by_name.setdefault(entry["name"], []).append(entry)
        assert len(by_name["events_total"]) == 2
        assert by_name["events_total"][0]["value"] == 2.0
        assert by_name["events_total"][0]["labels"] == {
            "database": "db1", "kind": "recommendation_created",
        }
        hist = by_name["state_duration_minutes"][0]
        assert hist["count"] == 3
        assert hist["overflow"] == 1
        assert hist["unit"] == "minutes"
        assert hist["p99"] == pytest.approx(20000.0)

    def test_spans_and_hot_paths_sections(self):
        tracer = Tracer(SpanRecorder())
        span = tracer.start("analysis", "db1", at=10.0, source="qs")
        tracer.end(span, at=22.0, outcome="completed")
        profiler = Profiler()
        profiler.record("optimizer_plan_search", 0.25, sim_ms=3.0)
        out = json_export(MetricsRegistry(), tracer.recorder, profiler)
        assert out["spans"] == [
            {
                "span_id": span.span_id,
                "kind": "analysis",
                "database": "db1",
                "start": 10.0,
                "end": 22.0,
                "outcome": "completed",
                "attributes": {"source": "qs"},
            }
        ]
        assert out["hot_paths"] == [
            {
                "name": "optimizer_plan_search",
                "calls": 1,
                "real_ms": 250.0,
                "sim_ms": 3.0,
            }
        ]

    def test_json_text_round_trips(self):
        text = json_text(build_registry())
        assert json.loads(text)["schema"] == "repro-telemetry-v2"

    def test_history_section(self):
        from repro.observability.timeseries import TelemetryHistory

        history = TelemetryHistory()
        registry = build_registry()
        history.observe_tick(registry, now=0.0)
        history.observe_tick(registry, now=120.0)
        out = json_export(registry, history=history)
        assert out["history"]["schema"] == "repro-history-v2"
        assert out["history"]["last_tick"] == 1
        # A bare TimeSeriesStore is accepted too (replay consumers).
        out = json_export(registry, history=history.store)
        assert out["history"]["last_tick"] == 1
        assert json.loads(json_text(registry, history=history))["history"]


class TestLabelEscaping:
    def test_hostile_label_values_escape_correctly(self):
        registry = MetricsRegistry()
        registry.counter(
            "events_total",
            kind='quo"te',
            database="back\\slash",
        ).inc()
        registry.counter(
            "events_total", kind="new\nline", database="db"
        ).inc()
        text = prometheus_text(registry)
        assert 'kind="quo\\"te"' in text
        assert 'database="back\\\\slash"' in text
        assert 'kind="new\\nline"' in text
        # The exposition must stay one series per line: a raw newline
        # inside a label would split the line.
        for line in text.splitlines():
            assert line.startswith(("#", "events_total"))

    def test_backslash_then_quote_does_not_double_escape(self):
        registry = MetricsRegistry()
        registry.counter("events_total", kind='\\"', database="db").inc()
        text = prometheus_text(registry)
        # One escaped backslash followed by one escaped quote — not a
        # re-escaped escape marker.
        assert 'kind="\\\\\\""' in text
