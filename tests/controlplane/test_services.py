"""Micro-service unit tests: implementation rebuild, health sweeps, DTA
session management."""

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
from repro.errors import ResourceBudgetExceededError
from repro.recommender.dta import DtaSession
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.workload import make_profile


@pytest.fixture
def loop():
    clock = SimClock()
    profile = make_profile("svc-test", seed=61, tier="standard", clock=clock)
    plane = ControlPlane(
        clock,
        profile.name,
        profile.engine,
        tier="standard",
        config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
        settings=ControlPlaneSettings(validation_window=6 * HOURS),
    )
    return clock, profile, plane


def make_recommendation(profile) -> IndexRecommendation:
    fact = profile.schema_spec.fact_tables()[0]
    return IndexRecommendation(
        action=Action.CREATE,
        table=fact.name,
        key_columns=(fact.columns[2].name,),
        included_columns=(fact.columns[3].name,),
        source="MI",
        estimated_improvement_pct=80.0,
        created_at=0.0,
    )


class TestImplementationService:
    def test_begin_creates_build_job(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.implement_service.begin(record, clock.now)
        assert record.state is RecommendationState.IMPLEMENTING
        assert record.rec_id in plane.build_jobs
        assert record.index_name is not None

    def test_build_advances_with_time(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.implement_service.begin(record, clock.now)
        clock.advance(120.0)
        plane.implement_service.drive(record, clock.now)
        assert record.state is RecommendationState.VALIDATING
        assert profile.engine.index_exists(
            record.recommendation.table, record.index_name
        )

    def test_rebuild_after_lost_job(self, loop):
        """Control-plane crash loses the in-memory build job; the record
        recovers by restarting the build (resumable semantics)."""
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.implement_service.begin(record, clock.now)
        plane.build_jobs.clear()  # simulated crash
        clock.advance(60.0)
        plane.implement_service.drive(record, clock.now)
        assert record.rec_id in plane.build_jobs
        clock.advance(120.0)
        plane.implement_service.drive(record, clock.now)
        assert record.state is RecommendationState.VALIDATING

    def test_drop_of_missing_index_is_permanent_error(self, loop):
        clock, profile, plane = loop
        fact = profile.schema_spec.fact_tables()[0]
        recommendation = IndexRecommendation(
            action=Action.DROP,
            table=fact.name,
            key_columns=("whatever",),
            existing_index_name="ix_gone",
            source="DROP_ANALYSIS",
            created_at=0.0,
        )
        plane.config.drop_mode = AutoMode.AUTO
        record = plane.store.insert(profile.name, recommendation, 0.0)
        plane.process()  # _drive catches the PermanentError
        record = plane.store.get(record.rec_id)
        assert record.state is RecommendationState.ERROR
        assert plane.incidents


class TestHealthService:
    def test_stuck_retry_errored(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.store.update(record, 0.0, retry_at=float("inf"))
        plane.store.transition(record, RecommendationState.RETRY, 0.0, "stuck")
        clock.advance(plane.settings.stuck_threshold + 60.0)
        plane.health_service.check(clock.now)
        assert record.state is RecommendationState.ERROR

    def test_stale_active_expired(self, loop):
        clock, profile, plane = loop
        plane.config.create_mode = AutoMode.RECOMMEND_ONLY
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        clock.advance(plane.settings.stuck_threshold + 60.0)
        plane.health_service.check(clock.now)
        assert record.state is RecommendationState.EXPIRED

    def test_stuck_validating_raises_incident(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.store.transition(record, RecommendationState.IMPLEMENTING, 0.0)
        plane.store.update(record, 0.0, implemented_at=0.0, validate_after=1e12)
        plane.store.transition(record, RecommendationState.VALIDATING, 0.0)
        clock.advance(plane.settings.stuck_threshold + 60.0)
        plane.health_service.check(clock.now)
        assert any(i.rec_id == record.rec_id for i in plane.incidents)
        assert record.state is RecommendationState.VALIDATING  # not auto-fixed

    def test_healthy_records_untouched(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.health_service.check(clock.now)
        assert record.state is RecommendationState.ACTIVE
        assert not plane.incidents


class TestDtaSessionManager:
    def test_session_completes_and_emits(self, loop):
        clock, profile, plane = loop
        profile.workload.run(profile.engine, hours=4, max_statements=250)
        recommendations = plane.dta_service.run(clock.now)
        registry = plane.telemetry.registry
        assert registry.total("events_total", kind="dta_completed") == 1
        assert isinstance(recommendations, list)

    def test_interference_abort_handled(self, loop):
        clock, profile, plane = loop
        profile.workload.run(profile.engine, hours=2, max_statements=120)
                # Force the interference proxy: exhaust the tuning pool window.
        pool = plane.engine.governor.tuning
        assert pool.budget_cpu_ms is not None
        pool._roll_window(clock.now)
        pool._window_cpu_ms = pool.budget_cpu_ms * 2
        result = plane.dta_service.run(clock.now)
        assert result == []
        registry = plane.telemetry.registry
        assert registry.total("events_total", kind="dta_aborted") == 1

    def test_budget_deferrals_resume_one_session_then_abandon(
        self, loop, monkeypatch
    ):
        """A budget-exhausted session is kept and resumed by the next run
        (one span stays open across the deferrals) until the deferral cap
        abandons it; the run after that starts a fresh session."""
        clock, profile, plane = loop
        profile.workload.run(profile.engine, hours=2, max_statements=120)
        manager = plane.dta_service
        attempts = []

        def exhausted(session):
            attempts.append(session)
            raise ResourceBudgetExceededError("tuning budget spent")

        monkeypatch.setattr(DtaSession, "run", exhausted)
        cap = manager.MAX_BUDGET_DEFERRALS
        recorder = plane.telemetry.tracer.recorder
        for attempt in range(cap - 1):
            with pytest.raises(ResourceBudgetExceededError):
                manager.run(clock.now + attempt)
            assert len(recorder.spans(kind="dta_session", open_only=True)) == 1
        assert manager.run(clock.now + cap) == []
        assert len(attempts) == cap
        assert all(session is attempts[0] for session in attempts)
        assert manager.last_run_info == {"session_outcome": "abandoned"}
        [span] = recorder.spans(kind="dta_session")
        assert (span.outcome, span.start, span.end) == (
            "abandoned", clock.now, clock.now + cap,
        )
        registry = plane.telemetry.registry
        assert registry.total("events_total", kind="dta_budget_exhausted") == cap
        assert registry.total("events_total", kind="dta_abandoned") == 1

        with pytest.raises(ResourceBudgetExceededError):
            manager.run(clock.now + cap + 1)
        assert attempts[-1] is not attempts[0]
        assert len(recorder.spans(kind="dta_session", open_only=True)) == 1
