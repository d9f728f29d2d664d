"""SLO catalog: burn-rate math, multi-window gating, reports."""

from __future__ import annotations

import io
import json

import pytest

from repro.observability.slo import (
    SLO_CATALOG,
    SloSpec,
    dump_statuses,
    evaluate_catalog,
    evaluate_slo,
    render_slo_report,
    replay_statuses,
)
from repro.observability.timeseries import SAMPLE_CATALOG, TimeSeriesStore


def _fill(store: TimeSeriesStore, name: str, values) -> None:
    for tick, value in enumerate(values):
        store.observe(name, tick, float(value))


def _max_spec(**overrides) -> SloSpec:
    spec = dict(
        name="slo_revert_rate",
        description="test",
        series="revert_rate",
        objective=0.30,
        unit="ratio",
        short_window=16,
        long_window=64,
    )
    spec.update(overrides)
    return SloSpec(**spec)


class TestCatalogInvariants:
    def test_every_slo_reads_a_cataloged_series(self):
        for spec in SLO_CATALOG.values():
            assert spec.series in SAMPLE_CATALOG

    def test_windows_ordered_and_objectives_sane(self):
        for spec in SLO_CATALOG.values():
            assert spec.short_window < spec.long_window
            assert spec.burn_threshold >= 1.0
            assert spec.min_samples >= 1
            assert spec.objective > 0.0


class TestBurnMath:
    def test_max_kind_burn_is_mean_over_objective(self):
        store = TimeSeriesStore()
        _fill(store, "revert_rate", [0.6] * 64)
        status = evaluate_slo(store, _max_spec())
        assert status.short_burn == pytest.approx(2.0)
        assert status.long_burn == pytest.approx(2.0)
        assert status.burn == pytest.approx(2.0)
        assert status.alerting

    def test_catalog_burn_is_mean_over_objective(self):
        store = TimeSeriesStore()
        spec = SLO_CATALOG["slo_time_to_implement"]
        # A p95 at twice the objective burns at 2x, past its 1.5 gate.
        _fill(store, "time_to_implement_minutes", [spec.objective * 2.0] * 300)
        status = evaluate_slo(store, spec)
        assert status.short_burn == pytest.approx(2.0)
        assert status.long_burn == pytest.approx(2.0)
        assert status.alerting

    def test_zero_objective_burns_infinitely_on_any_excess(self):
        store = TimeSeriesStore()
        _fill(store, "revert_rate", [0.01] * 64)
        status = evaluate_slo(store, _max_spec(objective=0.0))
        assert status.short_burn == float("inf")
        assert status.alerting
        quiet = TimeSeriesStore()
        _fill(quiet, "revert_rate", [0.0] * 64)
        assert evaluate_slo(quiet, _max_spec(objective=0.0)).short_burn == 0.0

    def test_at_objective_means_burn_one(self):
        store = TimeSeriesStore()
        _fill(store, "revert_rate", [0.30] * 64)
        status = evaluate_slo(store, _max_spec())
        assert status.short_burn == pytest.approx(1.0)
        assert status.long_burn == pytest.approx(1.0)


class TestMultiWindowGating:
    def test_short_blip_alone_does_not_page(self):
        store = TimeSeriesStore()
        # Healthy for 48 ticks, hot for the last 16: the short window
        # burns >1 but the long window still holds the budget.
        _fill(store, "revert_rate", [0.0] * 48 + [0.9] * 16)
        status = evaluate_slo(store, _max_spec())
        assert status.short_burn > 1.0
        assert status.long_burn < 1.0
        assert not status.alerting

    def test_sustained_burn_pages(self):
        store = TimeSeriesStore()
        _fill(store, "revert_rate", [0.9] * 64)
        status = evaluate_slo(store, _max_spec())
        assert status.alerting

    def test_min_samples_gate(self):
        store = TimeSeriesStore()
        _fill(store, "revert_rate", [0.9] * 4)
        status = evaluate_slo(store, _max_spec(min_samples=8))
        assert status.short_burn > 1.0
        assert not status.alerting

    def test_advisory_never_alerts(self):
        store = TimeSeriesStore()
        _fill(store, "tick_wall_seconds", [100.0] * 300)
        status = evaluate_slo(store, SLO_CATALOG["slo_tick_wall_seconds"])
        assert status.short_burn > 1.0
        assert status.advisory
        assert not status.alerting


class TestReportAndPersistence:
    def _statuses(self):
        store = TimeSeriesStore()
        _fill(store, "revert_rate", [0.9] * 300)
        _fill(store, "validation_failure_rate", [0.1] * 300)
        _fill(store, "time_to_implement_minutes", [10.0] * 300)
        _fill(store, "tick_wall_seconds", [0.5] * 300)
        return evaluate_catalog(store)

    def test_catalog_evaluates_in_name_order(self):
        statuses = self._statuses()
        assert [s.name for s in statuses] == sorted(SLO_CATALOG)

    def test_report_lists_alerts(self):
        lines = render_slo_report(self._statuses())
        text = "\n".join(lines)
        assert "slo_revert_rate" in text
        assert "ALERTING" in text
        assert "burn-rate alerts: slo_revert_rate" in text

    def test_statuses_roundtrip_jsonl(self):
        statuses = self._statuses()
        buffer = io.StringIO()
        assert dump_statuses(statuses, buffer) == len(statuses)
        replayed = replay_statuses(buffer.getvalue())
        assert replayed == statuses
        # A v1 record also said whether its objective was a floor or a
        # ceiling; replay drops the key.
        v1 = dict(statuses[0].to_payload(), schema_version=1, kind="max")
        assert replay_statuses([json.dumps(v1)]) == statuses[:1]

    def test_replay_refuses_newer_schema(self):
        from repro.errors import TelemetryError

        with pytest.raises(TelemetryError, match="newer"):
            replay_statuses('{"schema_version": 99, "name": "x"}')
