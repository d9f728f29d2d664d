"""Unit tests for the fleet-parallel merge machinery."""

from __future__ import annotations

import pytest

from repro.controlplane.store import StateStore
from repro.errors import TelemetryError
from repro.observability.audit import AuditLog
from repro.observability.metrics import MetricsRegistry
from repro.parallel import (
    DeterministicMerger,
    TickDelta,
    apply_metric_diff,
    diff_snapshots,
    registry_snapshot,
)
from repro.recommender.recommendation import Action, IndexRecommendation


def make_recommendation() -> IndexRecommendation:
    return IndexRecommendation(
        action=Action.CREATE, table="orders", key_columns=("o_cust",)
    )


class TestSnapshotDiff:
    def test_counter_and_gauge_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter("events_total", kind="x", database="db").inc(3)
        worker.gauge("records_in_state", state="active").set(2)
        before = registry_snapshot(worker)
        worker.counter("events_total", kind="x", database="db").inc(2)
        worker.gauge("records_in_state", state="active").set(1)
        diff = diff_snapshots(before, registry_snapshot(worker))

        merged = MetricsRegistry()
        merged.counter("events_total", kind="x", database="db").inc(3)
        merged.gauge("records_in_state", state="active").set(2)
        apply_metric_diff(merged, diff)
        assert merged.counter("events_total", kind="x", database="db").value == 5
        assert merged.gauge("records_in_state", state="active").value == 1

    def test_new_series_included_even_at_zero(self):
        """A series that first appears with value 0 still materializes in
        the merged registry — serial and parallel runs must expose the
        same series set, not just the same non-zero values."""
        worker = MetricsRegistry()
        before = registry_snapshot(worker)
        worker.gauge("records_in_state", state="retry").set(0.0)
        diff = diff_snapshots(before, registry_snapshot(worker))
        assert len(diff) == 1

        merged = MetricsRegistry()
        apply_metric_diff(merged, diff)
        assert len(merged.series_for("records_in_state", state="retry")) == 1

    def test_histogram_diff_merges_buckets(self):
        worker = MetricsRegistry()
        histogram = worker.histogram("state_duration_minutes", state="active")
        histogram.observe(5.0)
        before = registry_snapshot(worker)
        histogram.observe(50.0)
        histogram.observe(5000.0)
        diff = diff_snapshots(before, registry_snapshot(worker))

        merged = MetricsRegistry()
        target = merged.histogram("state_duration_minutes", state="active")
        target.observe(5.0)
        apply_metric_diff(merged, diff)
        assert target.count == 3
        assert target.sum == pytest.approx(5055.0)
        assert target.min == pytest.approx(5.0)
        assert target.max == pytest.approx(5000.0)

    def test_unchanged_series_not_in_diff(self):
        worker = MetricsRegistry()
        worker.counter("events_total", kind="x", database="db").inc()
        snap = registry_snapshot(worker)
        assert diff_snapshots(snap, registry_snapshot(worker)) == {}

    def test_uncataloged_name_rejected_at_merge(self):
        diff = {("fleet_bogus_metric", "counter", ()): 1.0}
        with pytest.raises(TelemetryError, match="CATALOG"):
            apply_metric_diff(MetricsRegistry(), diff)


class TestStoreIngest:
    def test_ingest_replays_and_continues_ids(self):
        worker = StateStore()
        record = worker.insert("db-a", make_recommendation(), at=1.0)
        entries = worker.journal_since(0)

        merged = StateStore()
        for entry in entries:
            merged.ingest(entry.op, entry.at, 7, entry.payload)
        replayed = merged.get(7)
        assert replayed is not None
        assert replayed.database == "db-a"
        assert replayed.state == record.state
        # The id counter continues past ingested ids: a direct insert
        # afterwards must not collide.
        fresh = merged.insert("db-b", make_recommendation(), at=2.0)
        assert fresh.rec_id == 8

    def test_ingest_does_not_fire_hooks(self):
        merged = StateStore()
        fired = []
        merged.on_insert = lambda record: fired.append(record)
        worker = StateStore()
        worker.insert("db-a", make_recommendation(), at=1.0)
        for entry in worker.journal_since(0):
            merged.ingest(entry.op, entry.at, 1, entry.payload)
        assert fired == []


def make_merger():
    return DeterministicMerger(
        store=StateStore(),
        audit=AuditLog(),
        registry=MetricsRegistry(),
    )


def delta_for(database: str, journal, audit=()) -> TickDelta:
    return TickDelta(
        database=database,
        journal=list(journal),
        audit=list(audit),
        metrics={},
    )


class TestDeterministicMerger:
    def test_sorted_by_database_and_rec_ids_remapped(self):
        """Deltas arriving in arbitrary order merge in db-name order, and
        each database's local rec_id 1 gets a distinct global id."""
        stores = {}
        deltas = []
        for name in ("db-b", "db-a"):
            worker = StateStore()
            worker.insert(name, make_recommendation(), at=1.0)
            stores[name] = worker
            deltas.append(delta_for(name, worker.journal_since(0)))

        merger = make_merger()
        merger.merge(deltas)
        assert merger.rec_ids[("db-a", 1)] == 1
        assert merger.rec_ids[("db-b", 1)] == 2
        assert merger.store.get(1).database == "db-a"
        assert merger.store.get(2).database == "db-b"

    def test_audit_rec_ids_remapped_and_chained(self):
        worker_store = StateStore()
        worker_store.insert("db-b", make_recommendation(), at=1.0)
        worker_audit = AuditLog()
        worker_audit.emit(
            1.0,
            "recommendation_registered",
            "db-b",
            rec_id=1,
            state="active",
        )
        worker_audit.emit(
            2.0, "state_changed", "db-b", rec_id=1, to_state="implementing"
        )

        # Another database merged first shifts db-b's global ids.
        other = StateStore()
        other.insert("db-a", make_recommendation(), at=1.0)

        merger = make_merger()
        merger.merge(
            [
                delta_for(
                    "db-b",
                    worker_store.journal_since(0),
                    audit=worker_audit.events_since(0),
                ),
                delta_for("db-a", other.journal_since(0)),
            ]
        )
        events = merger.audit.events()
        assert [e.database for e in events] == ["db-b", "db-b"]
        assert all(e.rec_id == 2 for e in events), "local 1 -> global 2"
        # The chain is recomputed at merge time: the second event hangs
        # off the first.
        assert events[1].parent_seq == events[0].seq

    def test_out_of_order_stream_raises(self):
        merger = make_merger()
        worker = StateStore()
        record = worker.insert("db-a", make_recommendation(), at=1.0)
        from repro.controlplane.states import RecommendationState

        worker.transition(record, RecommendationState.IMPLEMENTING, 2.0)
        entries = worker.journal_since(0)
        update_only = [e for e in entries if e.op != "insert"]
        with pytest.raises(TelemetryError, match="out of order"):
            merger.merge([delta_for("db-a", update_only)])
