"""AlertWatchdog: pages on the non-advisory SLOs, raise/update/resolve."""

from __future__ import annotations

import collections
import hashlib
import json
import re

import pytest

from repro.observability import (
    SLO_CATALOG,
    AlertWatchdog,
    AuditLog,
    MetricsRegistry,
    TimeSeriesStore,
    render_dashboard,
)
from repro.observability.alerts import FLEET_SCOPE
from repro.observability.slo import evaluate_slo
from repro.service import ServiceSettings, build_service

#: Well inside every non-advisory objective.
HEALTHY = {
    "revert_rate": 0.0,
    "validation_failure_rate": 0.0,
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

    def test_slo_pages_with_its_own_burn_threshold(self):
        # Burn is mean / objective: a p95 of 1 200 minutes against 240 is
        # a 5x burn, past slo_time_to_implement's 1.5 gate.
        audit = AuditLog()
        store = _healthy_store()
        _observe(store, "time_to_implement_minutes", 300, [1200.0] * 300)
        watchdog = AlertWatchdog(MetricsRegistry(), store, audit=audit)
        (alert,) = watchdog.evaluate(7.0)
        assert alert.rule == "slo_time_to_implement"
        assert alert.value == pytest.approx(5.0)
        (event,) = audit.events(event_type="alert_raised")
        assert event.payload["direction"] == "above"
        assert event.payload["threshold"] == (
            SLO_CATALOG["slo_time_to_implement"].burn_threshold
        ) == 1.5

    def test_simultaneous_pages_raise_in_catalog_name_order(self):
        audit = AuditLog()
        store = _healthy_store()
        _observe(store, "validation_failure_rate", 300, [1.0] * 300)
        _observe(store, "revert_rate", 300, [0.9] * 300)
        _observe(store, "time_to_implement_minutes", 300, [1200.0] * 300)
        watchdog = AlertWatchdog(MetricsRegistry(), store, audit=audit)
        expected = [
            "slo_revert_rate",
            "slo_time_to_implement",
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
    def test_the_region_service_pages_on_the_merged_history(self):
        service = build_service(2, seed=3)
        watchdog = service.watchdog
        assert watchdog.store is service.history.store
        assert watchdog.registry is service.telemetry.registry
        assert watchdog.audit is service.telemetry.audit
        # Planes leave history and paging to the region service.
        plane = service.database_plane("db-standard-0")
        assert not hasattr(plane, "history")
        assert not hasattr(plane, "watchdog")


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
        lines = render_dashboard(registry, watchdog=watchdog)
        firing = [line for line in lines if "FIRING" in line]
        assert firing == [
            f"  FIRING {'slo_revert_rate':<30} value 3.000 >= 1.000 "
            "(samples 16, raised t+10m)"
        ]

    def test_without_a_watchdog_the_gauges_name_the_paging_slos(self):
        registry, watchdog = self._burning()
        lines = render_dashboard(registry)
        assert "  FIRING slo_revert_rate" in lines
        # Resolved: the gauge drops to 0 and the panel empties.
        _observe(watchdog.store, "revert_rate", 600, [0.0] * 300)
        watchdog.evaluate(20.0)
        lines = render_dashboard(registry)
        assert lines[lines.index("alerts:") + 1] == "  (none firing)"


#: Index names end in the id of the recommendation that built them.
_AUTO_INDEX_SUFFIX = re.compile(r"(nci_auto_\w*?)_\d+\b")


def unordered_audit_digest(audit: AuditLog) -> tuple:
    """(count, sha256) of the audit stream as a multiset of events.

    What a region run decides does not depend on the order in which its
    per-database streams interleave, but ids do.  So each event drops
    ``seq``, its ``parent_seq`` becomes the parent event's (type, at,
    database), its ``rec_id`` becomes (database, per-database ordinal),
    and the rec-id suffix of ``nci_auto_*`` index names is dropped."""
    events = [json.loads(line) for line in audit.to_jsonl().splitlines()]
    by_seq = {event["seq"]: event for event in events}
    rec_ids = collections.defaultdict(set)
    for event in events:
        if event["rec_id"] is not None:
            rec_ids[event["database"]].add(event["rec_id"])
    ordinals = {
        database: {rec_id: i for i, rec_id in enumerate(sorted(ids))}
        for database, ids in rec_ids.items()
    }
    normalized = []
    for event in events:
        parent = by_seq.get(event["parent_seq"])
        rec_id = event["rec_id"]
        line = json.dumps(
            dict(
                {k: v for k, v in event.items() if k != "seq"},
                parent_seq=None if parent is None else [
                    parent["event_type"], parent["at"], parent["database"]
                ],
                rec_id=None if rec_id is None else [
                    event["database"], ordinals[event["database"]][rec_id]
                ],
            ),
            sort_keys=True,
        )
        normalized.append(_AUTO_INDEX_SUFFIX.sub(r"\1", line))
    text = "\n".join(sorted(normalized)).encode("utf-8")
    return len(normalized), hashlib.sha256(text).hexdigest()


def run_benchmark_fleet(n_databases: int, tier: str):
    """The benchmark's fleet recipe at seed 11: 40 statements per tick,
    the seed-11 phase tick, then 48 one-hour ticks."""
    service = build_service(
        n_databases,
        tier=tier,
        seed=11,
        service_settings=ServiceSettings(max_statements_per_step=40),
    )
    service.run(0.4657879960582425)  # the benchmark's seed-11 phase tick
    for _tick in range(48):
        service.run(1.0)
    return service


def test_standard_fleet_audit_equals_parent_but_for_order():
    """The benchmark's ``fleet_standard`` recipe, through the 26.5 h
    revert spike to the ``slo_revert_rate`` page at 47.5 h.  The region
    service used to drive one multi-database plane here; it now merges
    single-database planes, which interleave the same events
    differently.  The digest below was recorded with the multi-database
    driver: every event and payload must be what it was."""
    service = run_benchmark_fleet(4, "standard")
    assert unordered_audit_digest(service.telemetry.audit) == (
        259,
        "3d6aeadc4b6a5159d08edefca7f5e552919a43e6b7e593e28cb478515278193d",
    )
