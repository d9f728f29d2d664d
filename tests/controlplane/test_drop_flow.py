"""Closed-loop drop flow: duplicate/unused indexes dropped and validated."""

from __future__ import annotations

import pytest

from repro.clock import DAYS, HOURS, SimClock
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlane,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.recommender.recommendation import Action
from repro.engine.schema import IndexDefinition
from repro.workload import make_profile


def build_drop_loop():
    clock = SimClock()
    profile = make_profile("drop-loop", seed=37, tier="standard", clock=clock)
    fact = profile.schema_spec.fact_tables()[0]
    key = fact.columns[2].name
    # Two duplicates (identical keys) plus one index nobody will read.
    profile.engine.create_index(
        IndexDefinition("ix_dup_a", fact.name, (key,), (fact.columns[3].name,))
    )
    profile.engine.create_index(IndexDefinition("ix_dup_b", fact.name, (key,)))
    settings = ControlPlaneSettings(
        snapshot_period=4 * HOURS,
        analysis_period=2 * DAYS,  # keep create-side quiet
        drop_analysis_period=12 * HOURS,
        validation_window=6 * HOURS,
    )
    plane = ControlPlane(
        clock,
        profile.name,
        profile.engine,
        tier="standard",
        config=AutoIndexingConfig(
            create_mode=AutoMode.OFF, drop_mode=AutoMode.AUTO
        ),
        settings=settings,
    )
    plane.drops.settings.observation_days = 0.5
    return clock, profile, plane


def test_duplicate_dropped_and_validated():
    clock, profile, plane = build_drop_loop()
    for _ in range(30):
        profile.workload.run(profile.engine, hours=2, max_statements=60)
        plane.process()
    drops = [
        r
        for r in plane.store.all_records()
        if r.recommendation.action is Action.DROP
    ]
    assert drops, "expected drop recommendations"
    done = [
        r for r in drops
        if r.state in (RecommendationState.SUCCESS, RecommendationState.REVERTED)
    ]
    assert done, "no drop reached a terminal validated state"
    duplicate_drops = [
        r for r in done if "duplicate" in r.recommendation.details
    ]
    if duplicate_drops:
        record = duplicate_drops[0]
        # The dropped duplicate must actually be gone from the database.
        assert not profile.engine.index_exists(
            record.recommendation.table, record.recommendation.existing_index_name
        ) or record.state is RecommendationState.REVERTED


def test_drop_recommend_only_keeps_indexes():
    clock, profile, plane = build_drop_loop()
    plane.config.drop_mode = AutoMode.RECOMMEND_ONLY
    for _ in range(20):
        profile.workload.run(profile.engine, hours=2, max_statements=50)
        plane.process()
    assert profile.engine.index_exists(
        profile.schema_spec.fact_tables()[0].name, "ix_dup_a"
    )
    assert profile.engine.index_exists(
        profile.schema_spec.fact_tables()[0].name, "ix_dup_b"
    )


def test_analyze_drops_fault_defers_and_the_job_keeps_its_period():
    """Regression: an injected ``analyze_drops`` fault used to escape
    ``service.run()`` as ``TransientError`` with the drop-analysis job
    popped and never re-armed (0 runs over the following 8 hours)."""
    from repro.service import build_service

    service = build_service(
        1,
        seed=3,
        control_settings=ControlPlaneSettings(drop_analysis_period=2 * HOURS),
    )
    plane = service.database_plane(service.database_names[0])
    events = service.telemetry.registry

    plane.faults.configure("analyze_drops", transient=1.0)
    service.run(4)
    assert events.total("events_total", kind="analysis_deferred") == 2
    assert events.total("events_total", kind="drop_analysis_completed") == 0

    plane.faults.configure("analyze_drops")
    service.run(8)
    assert events.total("events_total", kind="analysis_deferred") == 2
    assert events.total("events_total", kind="drop_analysis_completed") == 4
