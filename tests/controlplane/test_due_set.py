"""The process() due-set and the plan-cache gauge memoization.

``ControlPlane.process`` used to scan every record ever created on every
tick — O(history) even when the database is quiescent.  The store
hooks now maintain a live set of non-terminal rec_ids, and the
plan-cache gauges are only re-published when the engine's counters
moved.  These tests pin both the bookkeeping and the equivalence with
the old full-scan semantics.
"""

from __future__ import annotations

from repro.clock import HOURS, SimClock
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlane,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.workload import make_profile


def build_plane(create_mode=AutoMode.AUTO, seed=31):
    clock = SimClock()
    profile = make_profile(f"due-{seed}", seed=seed, tier="standard", clock=clock)
    plane = ControlPlane(
        clock,
        profile.name,
        profile.engine,
        config=AutoIndexingConfig(create_mode=create_mode),
        settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
    )
    return clock, profile, plane


def make_recommendation() -> IndexRecommendation:
    return IndexRecommendation(
        action=Action.CREATE, table="orders", key_columns=("o_cust",)
    )


class TestDueSet:
    def test_insert_joins_live_set_and_terminal_leaves_it(self):
        _clock, _profile, plane = build_plane()
        record = plane.store.insert("due-31", make_recommendation(), at=0.0)
        assert record.rec_id in plane._live
        plane.store.transition(record, RecommendationState.EXPIRED, 1.0)
        assert record.rec_id not in plane._live

    def test_live_set_matches_non_terminal_records_after_run(self):
        """After a real closed-loop run, the due set is exactly the set
        of non-terminal rec_ids — the invariant that makes skipping the
        full scan safe."""
        _clock, profile, plane = build_plane()
        for _ in range(24):  # 2 simulated days
            profile.workload.run(profile.engine, 2, max_statements=80)
            plane.process()
        records = plane.store.all_records()
        assert records, "run produced no records"
        expected = {r.rec_id for r in records if not r.terminal}
        assert plane._live == expected
        assert any(r.terminal for r in records), (
            "run should have produced terminal records the due set dropped"
        )

    def test_quiescent_tick_drives_no_terminal_records(self):
        _clock, _profile, plane = build_plane(create_mode=AutoMode.OFF)
        record = plane.store.insert("due-31", make_recommendation(), at=0.0)
        plane.store.transition(record, RecommendationState.EXPIRED, 1.0)
        driven = []
        plane._drive = lambda rec, now: driven.append(rec.rec_id)
        plane.process(plane.clock.now)
        assert driven == []


class TestPlanCacheMemo:
    def test_gauges_published_once_per_change(self):
        _clock, profile, plane = build_plane(create_mode=AutoMode.OFF)
        profile.workload.run(profile.engine, 2, max_statements=40)
        plane.process()
        cache = profile.engine.plan_cache
        registry = plane.telemetry.registry
        name = profile.name
        assert registry.gauge("plan_cache_hits", database=name).value == cache.hits
        assert (
            registry.gauge("plan_cache_misses", database=name).value
            == cache.misses
        )
        published = plane._engine_gauges_published

        # An idle tick (no workload) leaves the memo untouched, and the
        # gauges still read correctly.
        plane.process(plane.clock.now)
        assert plane._engine_gauges_published == published
        assert registry.gauge("plan_cache_hits", database=name).value == cache.hits

        # More workload moves the counters; the next tick re-publishes.
        profile.workload.run(profile.engine, 2, max_statements=40)
        plane.process()
        assert plane._engine_gauges_published != published
        assert registry.gauge("plan_cache_hits", database=name).value == cache.hits

    def test_memo_skip_detectable_via_gauge_identity(self):
        """The skip is real: when nothing changed, .set() is not called."""
        _clock, profile, plane = build_plane(create_mode=AutoMode.OFF)
        profile.workload.run(profile.engine, 1, max_statements=20)
        plane.process()
        calls = []
        registry = plane.telemetry.registry
        original = registry.gauge

        def counting_gauge(name, **labels):
            if name.startswith("plan_cache"):
                calls.append(name)
            return original(name, **labels)

        registry.gauge = counting_gauge
        plane.process(plane.clock.now)  # idle: no plan-cache movement
        assert calls == []
        profile.workload.run(profile.engine, 1, max_statements=20)
        plane.process()
        assert calls, "changed counters must re-publish"
