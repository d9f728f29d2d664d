"""Tests for the MI DMV, Query Store, and index usage statistics."""

from __future__ import annotations

import pytest

from repro.engine import (
    IndexDefinition,
    InsertQuery,
    Op,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine.missing_index import MissingIndexDmv
from repro.engine.query_store import MetricAggregate, QueryStore
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


class TestMissingIndexDmv:
    def test_groups_accumulate(self):
        dmv = MissingIndexDmv()
        for i in range(5):
            dmv.record("t", ("a",), (), ("b",), 10.0, 50.0, now=float(i))
        assert len(dmv) == 1
        entry = dmv.entries()[0]
        assert entry.user_seeks == 5
        assert entry.avg_total_cost == pytest.approx(10.0)
        assert entry.first_seen == 0.0 and entry.last_seen == 4.0

    def test_distinct_groups(self):
        dmv = MissingIndexDmv()
        dmv.record("t", ("a",), (), (), 1.0, 10.0, 0.0)
        dmv.record("t", ("b",), (), (), 1.0, 10.0, 0.0)
        dmv.record("t", ("a",), ("c",), (), 1.0, 10.0, 0.0)
        assert len(dmv) == 3

    def test_running_average(self):
        dmv = MissingIndexDmv()
        dmv.record("t", ("a",), (), (), 10.0, 20.0, 0.0)
        dmv.record("t", ("a",), (), (), 30.0, 40.0, 1.0)
        entry = dmv.entries()[0]
        assert entry.avg_total_cost == pytest.approx(20.0)
        assert entry.avg_user_impact == pytest.approx(30.0)

    def test_reset_clears(self):
        dmv = MissingIndexDmv()
        dmv.record("t", ("a",), (), (), 1.0, 10.0, 0.0)
        dmv.reset()
        assert len(dmv) == 0
        assert dmv.resets == 1

    def test_snapshot_is_frozen_copy(self):
        dmv = MissingIndexDmv()
        dmv.record("t", ("a",), (), (), 1.0, 10.0, 0.0)
        snap = dmv.snapshot(now=5.0)
        dmv.record("t", ("a",), (), (), 1.0, 10.0, 6.0)
        assert snap.entries[0].user_seeks == 1
        assert dmv.entries()[0].user_seeks == 2

    def test_engine_restart_resets_dmv(self):
        eng = perfect_engine()
        eng.execute(
            SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))
        )
        assert len(eng.missing_indexes) == 1
        eng.restart()
        assert len(eng.missing_indexes) == 0

    def test_index_create_resets_dmv(self):
        eng = perfect_engine()
        eng.execute(
            SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))
        )
        eng.create_index(IndexDefinition("ix", "orders", ("o_status",)))
        assert len(eng.missing_indexes) == 0


class TestMetricAggregate:
    def test_mean_and_std(self):
        agg = MetricAggregate()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            agg.observe(v)
        assert agg.mean == pytest.approx(5.0)
        assert agg.stddev == pytest.approx(2.138, rel=0.01)

    def test_merge_matches_combined(self):
        a, b, c = MetricAggregate(), MetricAggregate(), MetricAggregate()
        for v in (1.0, 2.0, 3.0):
            a.observe(v)
            c.observe(v)
        for v in (10.0, 20.0):
            b.observe(v)
            c.observe(v)
        merged = a.merge(b)
        assert merged.count == c.count
        assert merged.mean == pytest.approx(c.mean)
        assert merged.variance == pytest.approx(c.variance)

    def test_merge_with_empty(self):
        a = MetricAggregate()
        a.observe(5.0)
        assert a.merge(MetricAggregate()).mean == 5.0
        assert MetricAggregate().merge(a).count == 1


class TestQueryStore:
    def test_intervals_bucket_by_time(self):
        qs = QueryStore(interval_minutes=60)
        qs.record(1, 100, 5.0, 10, 6.0, now=10.0)
        qs.record(1, 100, 5.0, 10, 6.0, now=70.0)
        first = qs.aggregate(0.0, 59.0)
        assert first[(1, 100)].executions == 1
        both = qs.aggregate(0.0, 120.0)
        assert both[(1, 100)].executions == 2

    def test_top_queries_ranked(self):
        qs = QueryStore()
        for _ in range(10):
            qs.record(1, 100, 1.0, 1, 1.0, now=0.0)
        qs.record(2, 200, 100.0, 1, 1.0, now=0.0)
        top = qs.top_queries(0.0, 60.0, k=1)
        assert top[0][0] == 2

    def test_per_query_totals_across_plans(self):
        qs = QueryStore()
        qs.record(1, 100, 5.0, 1, 1.0, now=0.0)
        qs.record(1, 101, 7.0, 1, 1.0, now=0.0)
        totals = qs.per_query_totals(0.0, 60.0)
        assert totals[1] == pytest.approx(12.0)

    def test_plans_for_query(self):
        qs = QueryStore()
        from repro.engine.query_store import PlanInfo

        qs.register_plan(PlanInfo(100, "Scan", ()))
        qs.register_plan(PlanInfo(101, "Seek[ix]", ("ix",)))
        qs.record(1, 100, 1.0, 1, 1.0, now=0.0)
        qs.record(1, 101, 1.0, 1, 1.0, now=61.0)
        plans = qs.plans_for_query(1, 0.0, 120.0)
        assert {p.plan_id for p in plans} == {100, 101}

    def test_retention_evicts_old_intervals(self):
        qs = QueryStore(interval_minutes=60, retention_intervals=2)
        qs.record(1, 100, 1.0, 1, 1.0, now=0.0)
        qs.record(1, 100, 1.0, 1, 1.0, now=60.0 * 10)
        assert qs.aggregate(0.0, 59.0) == {}

    def test_engine_integration_tracks_plan_change(self):
        eng = perfect_engine()
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )
        r1 = eng.execute(query)
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        r2 = eng.execute(query)
        assert r1.plan_id != r2.plan_id
        plans = eng.query_store.plans_for_query(r1.query_id, 0.0, 60.0)
        assert {p.plan_id for p in plans} == {r1.plan_id, r2.plan_id}
        seek_plan = eng.query_store.plan_info(r2.plan_id)
        assert "ix_cust" in seek_plan.referenced_indexes

    def test_workload_coverage(self):
        eng = perfect_engine()
        q_big = SelectQuery("orders", ("o_note",))
        q_small = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_id", Op.EQ, 5),)
        )
        for _ in range(5):
            eng.execute(q_big)
            eng.execute(q_small)
        coverage = eng.workload_coverage([q_big.template_key()], 0.0, 60.0)
        assert coverage > 0.9
        total = eng.workload_coverage(
            [q_big.template_key(), q_small.template_key()], 0.0, 60.0
        )
        assert total == pytest.approx(1.0)


class TestUsageStats:
    def test_seek_scan_lookup_update_counters(self):
        eng = perfect_engine()
        eng.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",)))
        # Non-covering: seek + lookup.
        eng.execute(
            SelectQuery("orders", ("o_note",), (Predicate("o_cust", Op.EQ, 3),))
        )
        usage = eng.usage_stats.get("ix_cust")
        assert usage.user_seeks == 1
        assert usage.user_lookups == 1
        # DML maintains the index.
        eng.execute(InsertQuery("orders", ((70_000, 1, 1, 1.0, 1, "x"),)))
        assert eng.usage_stats.get("ix_cust").user_updates == 1

    def test_update_only_counts_affected_indexes(self):
        eng = perfect_engine()
        eng.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",)))
        eng.create_index(IndexDefinition("ix_amt", "orders", ("o_amount",)))
        eng.execute(
            UpdateQuery(
                "orders", (("o_amount", 1.0),), (Predicate("o_id", Op.EQ, 3),)
            )
        )
        assert eng.usage_stats.get("ix_amt").user_updates == 1
        cust = eng.usage_stats.get("ix_cust")
        assert cust is None or cust.user_updates == 0

    def test_drop_forgets_counters(self):
        eng = perfect_engine()
        eng.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",)))
        eng.execute(
            SelectQuery("orders", ("o_cust",), (Predicate("o_cust", Op.EQ, 3),))
        )
        eng.drop_index("orders", "ix_cust")
        assert eng.usage_stats.get("ix_cust") is None

    def test_reads_property(self):
        from repro.engine.usage_stats import IndexUsage

        usage = IndexUsage("ix", "t", user_seeks=2, user_scans=3, user_lookups=1)
        assert usage.reads == 6
