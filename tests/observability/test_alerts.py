"""AlertWatchdog: pages on the non-advisory SLOs, raise/update/resolve."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.clock import SimClock
from repro.controlplane import ControlPlane
from repro.observability import (
    SLO_CATALOG,
    AlertWatchdog,
    AuditLog,
    MetricsRegistry,
    SpanRecorder,
    TimeSeriesStore,
    render_dashboard,
)
from repro.observability.alerts import FLEET_SCOPE
from repro.observability.slo import evaluate_slo
from repro.parallel.service import ShardedFleetService
from repro.service import ServiceSettings, build_service

#: The fixed-threshold rules the watchdog paged on before the SLO
#: catalog became its one policy.  Audit digests recorded while they
#: existed drop their events to compare against today's stream.
RETIRED_RULES = frozenset(
    {
        "revert_rate_spike",
        "validation_failure_spike",
        "plan_cache_hit_rate_collapse",
    }
)

#: Well inside every non-advisory objective.
HEALTHY = {
    "revert_rate": 0.0,
    "validation_failure_rate": 0.0,
    "plan_cache_hit_rate": 0.5,
    "time_to_implement_minutes": 10.0,
}


def _observe(store: TimeSeriesStore, name: str, start: int, values) -> None:
    for offset, value in enumerate(values):
        store.observe(name, start + offset, float(value))


def _healthy_store(ticks: int = 300) -> TimeSeriesStore:
    store = TimeSeriesStore()
    for name, value in HEALTHY.items():
        _observe(store, name, 0, [value] * ticks)
    return store


class TestWatchdog:
    def test_pages_on_exactly_the_non_advisory_slos(self):
        watchdog = AlertWatchdog(MetricsRegistry(), TimeSeriesStore())
        assert [spec.name for spec in watchdog.slos] == sorted(
            name for name, spec in SLO_CATALOG.items() if not spec.advisory
        )

    def test_quiet_history_raises_nothing(self):
        # No samples: every SLO is gated by its min_samples.
        watchdog = AlertWatchdog(MetricsRegistry(), TimeSeriesStore())
        assert watchdog.evaluate(0.0) == []
        assert watchdog.active() == []

    def test_raise_update_resolve_lifecycle(self):
        registry = MetricsRegistry()
        audit = AuditLog()
        store = _healthy_store()
        watchdog = AlertWatchdog(registry, store, audit=audit)
        assert watchdog.evaluate(5.0) == []

        # Reverts at 0.9 against a 0.30 objective burn at 3x in both windows.
        _observe(store, "revert_rate", 300, [0.9] * 300)
        raised = watchdog.evaluate(10.0)
        assert [a.rule for a in raised] == ["slo_revert_rate"]
        (alert,) = watchdog.active()
        assert alert.firing and alert.raised_at == 10.0
        assert alert.value == pytest.approx(3.0) and alert.samples == 16
        assert registry.total("alerts_raised_total", rule="slo_revert_rate") == 1
        assert registry.total("alerts_firing", rule="slo_revert_rate") == 1
        (event,) = audit.events(event_type="alert_raised")
        assert event.database == FLEET_SCOPE
        assert event.payload == {
            "rule": "slo_revert_rate",
            "value": alert.value,
            "samples": 16,
            "threshold": 1.0,
            "direction": "above",
        }

        # Still burning, more slowly: no re-raise, evidence kept current.
        _observe(store, "revert_rate", 600, [0.6] * 16)
        assert watchdog.evaluate(20.0) == []
        (alert,) = watchdog.active()
        assert alert.value == pytest.approx(2.0)
        assert registry.total("alerts_raised_total", rule="slo_revert_rate") == 1

        # Healthy samples refill both windows: resolved.
        _observe(store, "revert_rate", 616, [0.0] * 300)
        assert watchdog.evaluate(30.0) == []
        assert watchdog.active() == []
        assert alert.resolved_at == 30.0 and not alert.firing
        assert registry.total("alerts_firing", rule="slo_revert_rate") == 0
        assert [e.event_type for e in audit.events()] == [
            "alert_raised",
            "alert_resolved",
        ]
        (resolved,) = audit.events(event_type="alert_resolved")
        assert resolved.payload["rule"] == "slo_revert_rate"
        # History keeps the full episode for post-mortems.
        assert watchdog.history == [alert]

    def test_works_without_an_audit_log(self):
        store = _healthy_store()
        _observe(store, "revert_rate", 300, [0.9] * 300)
        watchdog = AlertWatchdog(MetricsRegistry(), store)  # audit=None
        assert [a.rule for a in watchdog.evaluate(0.0)] == ["slo_revert_rate"]

    def test_advisory_slos_never_page(self):
        registry = MetricsRegistry()
        store = _healthy_store()
        # Twenty times the wall budget, sustained: reported, never paged.
        _observe(store, "tick_wall_seconds", 0, [100.0] * 300)
        watchdog = AlertWatchdog(registry, store, audit=AuditLog())
        assert watchdog.evaluate(0.0) == []
        assert registry.series_for("alerts_firing") == []
        assert watchdog.audit.events() == []

    def test_min_kind_slo_pages_when_the_cache_goes_cold(self):
        # A "stay above" objective burns as objective / mean: a 0.001 hit
        # rate against 0.005 is a 5x burn, recorded like any other page.
        audit = AuditLog()
        store = _healthy_store()
        _observe(store, "plan_cache_hit_rate", 300, [0.001] * 300)
        watchdog = AlertWatchdog(MetricsRegistry(), store, audit=audit)
        (alert,) = watchdog.evaluate(7.0)
        assert alert.rule == "slo_plan_cache_hit_rate"
        assert alert.value == pytest.approx(5.0)
        (event,) = audit.events(event_type="alert_raised")
        assert event.payload["direction"] == "above"
        assert event.payload["threshold"] == (
            SLO_CATALOG["slo_plan_cache_hit_rate"].burn_threshold
        )

    def test_simultaneous_pages_raise_in_catalog_name_order(self):
        audit = AuditLog()
        store = _healthy_store()
        _observe(store, "validation_failure_rate", 300, [1.0] * 300)
        _observe(store, "revert_rate", 300, [0.9] * 300)
        _observe(store, "plan_cache_hit_rate", 300, [0.001] * 300)
        watchdog = AlertWatchdog(MetricsRegistry(), store, audit=audit)
        expected = [
            "slo_plan_cache_hit_rate",
            "slo_revert_rate",
            "slo_validation_failure_rate",
        ]
        assert [a.rule for a in watchdog.evaluate(0.0)] == expected
        assert [a.rule for a in watchdog.active()] == expected
        assert [
            e.payload["rule"] for e in audit.events(event_type="alert_raised")
        ] == expected

    def test_a_short_burn_does_not_page(self):
        # Sixteen bad ticks fill the short window but not the long one:
        # the multi-window gate holds the page back.
        store = _healthy_store()
        _observe(store, "revert_rate", 300, [0.9] * 16)
        status = evaluate_slo(store, SLO_CATALOG["slo_revert_rate"])
        assert status.short_burn >= status.burn_threshold > status.long_burn
        watchdog = AlertWatchdog(MetricsRegistry(), store, audit=AuditLog())
        assert watchdog.evaluate(0.0) == []
        assert watchdog.audit.events() == []

    def test_a_second_burn_is_a_new_episode(self):
        registry = MetricsRegistry()
        store = _healthy_store()
        watchdog = AlertWatchdog(registry, store, audit=AuditLog())
        start = 300
        for now in (10.0, 30.0):
            _observe(store, "revert_rate", start, [0.9] * 300)
            assert [a.rule for a in watchdog.evaluate(now)] == ["slo_revert_rate"]
            _observe(store, "revert_rate", start + 300, [0.0] * 300)
            assert watchdog.evaluate(now + 10.0) == []
            start += 600
        assert [(a.raised_at, a.resolved_at) for a in watchdog.history] == [
            (10.0, 20.0),
            (30.0, 40.0),
        ]
        assert registry.total("alerts_raised_total", rule="slo_revert_rate") == 2
        assert registry.total("alerts_firing", rule="slo_revert_rate") == 0


class TestWiring:
    def test_a_plane_pages_on_its_own_history(self):
        plane = ControlPlane(SimClock())
        watchdog = plane.watchdog
        assert watchdog.store is plane.history.store
        assert watchdog.registry is plane.telemetry.registry
        assert watchdog.audit is plane.audit
        # Shard workers leave paging to the region service.
        worker = ControlPlane(SimClock(), enable_watchdog=False)
        assert worker.watchdog is None and worker.history is None

    def test_the_region_service_pages_on_the_merged_history(self):
        service = ShardedFleetService(2, seed=3)
        watchdog = service.watchdog
        assert watchdog.store is service.history.store
        assert watchdog.registry is service.telemetry.registry
        assert watchdog.audit is service.telemetry.audit


class TestDashboardPanel:
    def _burning(self):
        registry = MetricsRegistry()
        store = _healthy_store()
        _observe(store, "revert_rate", 300, [0.9] * 300)
        watchdog = AlertWatchdog(registry, store)
        watchdog.evaluate(10.0)
        return registry, watchdog

    def test_firing_line_shows_burn_against_threshold(self):
        registry, watchdog = self._burning()
        lines = render_dashboard(registry, SpanRecorder(), watchdog=watchdog)
        firing = [line for line in lines if "FIRING" in line]
        assert firing == [
            f"  FIRING {'slo_revert_rate':<30} value 3.000 >= 1.000 "
            "(samples 16, raised t+10m)"
        ]

    def test_without_a_watchdog_the_gauges_name_the_paging_slos(self):
        registry, watchdog = self._burning()
        lines = render_dashboard(registry, SpanRecorder())
        assert "  FIRING slo_revert_rate" in lines
        # Resolved: the gauge drops to 0 and the panel empties.
        _observe(watchdog.store, "revert_rate", 600, [0.0] * 300)
        watchdog.evaluate(20.0)
        lines = render_dashboard(registry, SpanRecorder())
        assert lines[lines.index("alerts:") + 1] == "  (none firing)"


def audit_digest(audit: AuditLog, anomaly_series) -> tuple:
    """(count, sha256) of the audit stream minus the retired rules'
    alert events and the ``telemetry_anomaly`` events on
    ``anomaly_series``, with ``seq`` / ``parent_seq`` renumbered."""
    events = [json.loads(line) for line in audit.to_jsonl().splitlines()]
    kept = [
        event
        for event in events
        if not (
            event["event_type"].startswith("alert_")
            and event["payload"].get("rule") in RETIRED_RULES
        )
        and not (
            event["event_type"] == "telemetry_anomaly"
            and event["payload"].get("series") in anomaly_series
        )
    ]
    renumbered = {event["seq"]: i for i, event in enumerate(kept)}
    normalized = [
        dict(
            event,
            seq=renumbered[event["seq"]],
            parent_seq=(
                None
                if event["parent_seq"] is None
                else renumbered[event["parent_seq"]]
            ),
        )
        for event in kept
    ]
    text = json.dumps(normalized, sort_keys=True).encode("utf-8")
    return len(normalized), hashlib.sha256(text).hexdigest()


def test_standard_fleet_audit_equals_parent_but_for_retired_rules():
    """The benchmark's ``fleet_standard`` recipe: 48 ticks, through the
    26.5 h revert spike to the ``slo_revert_rate`` page at 47.5 h.
    While the fixed-threshold rules existed they paged three times (the
    plan-cache floor at 3.5 h, the revert and validation spikes at
    26.5 h), and the jump to three firing alerts raised a
    ``telemetry_anomaly`` on ``alerts_firing_count`` at 27.5 h; today
    the SLO page raises that anomaly at 48.5 h instead.  Every other
    event — the SLO page's payload included — must be what it was: the
    digest below was recorded with those rules in place, over the
    stream with the retired rules' alerts and the
    ``alerts_firing_count`` anomalies removed."""
    service = build_service(
        4,
        tier="standard",
        seed=11,
        service_settings=ServiceSettings(max_statements_per_step=40),
    )
    service.run(0.4657879960582425)  # the benchmark's seed-11 phase tick
    for _tick in range(48):
        service.run(1.0)
    assert audit_digest(service.telemetry.audit, {"alerts_firing_count"}) == (
        258,
        "f588090a27721a46433165d11e2a56f3805a41df2c52e450b31ea76f70712004",
    )
