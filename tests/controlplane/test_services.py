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
from repro.controlplane.services import implement_service
from repro.engine.cost_model import CostModelSettings
from repro.engine.engine import EngineSettings, SqlEngine
from repro.engine.schema import IndexDefinition
from repro.engine.table import Table
from repro.errors import (
    PermanentError,
    ResourceBudgetExceededError,
    SessionAbortedError,
    TransientError,
)
from repro.recommender.dta import DtaSession
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.service import ServiceSettings, build_service
from repro.validation import ValidationSettings
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


def duration_samples(plane, source: str):
    """``(count, min, max)`` of the plane's
    ``tuning_session_duration_minutes{source}`` histogram, if any."""
    return [
        (series.metric.count, series.metric.min, series.metric.max)
        for series in plane.telemetry.registry.series_for(
            "tuning_session_duration_minutes", source=source
        )
    ]


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


def drop_recommendation(profile, auto_created=False) -> IndexRecommendation:
    """A DROP of ``ix_old``, which this creates on the first fact table."""
    fact = profile.schema_spec.fact_tables()[0]
    key = (fact.columns[2].name,)
    profile.engine.create_index(
        IndexDefinition("ix_old", fact.name, key, auto_created=auto_created)
    )
    return IndexRecommendation(
        action=Action.DROP,
        table=fact.name,
        key_columns=key,
        existing_index_name="ix_old",
        source="DROP_ANALYSIS",
        created_at=0.0,
    )


class TestImplementationService:
    def test_begin_creates_build_job(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.implement_service.begin(plane, record, clock.now)
        assert record.state is RecommendationState.IMPLEMENTING
        assert record.rec_id in plane.build_jobs
        assert record.index_name is not None

    def test_build_advances_with_time(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.implement_service.begin(plane, record, clock.now)
        clock.advance(120.0)
        plane.implement_service.drive(plane, record, clock.now)
        assert record.state is RecommendationState.VALIDATING
        assert profile.engine.index_exists(
            record.recommendation.table, record.index_name
        )

    def test_rebuild_after_lost_job(self, loop):
        """Control-plane crash loses the in-memory build job; the record
        recovers by restarting the build (resumable semantics)."""
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.implement_service.begin(plane, record, clock.now)
        plane.build_jobs.clear()  # simulated crash
        clock.advance(60.0)
        plane.implement_service.drive(plane, record, clock.now)
        assert record.rec_id in plane.build_jobs
        clock.advance(120.0)
        plane.implement_service.drive(plane, record, clock.now)
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


    def test_build_completes_through_the_engine(self, loop):
        """The finished build is the engine's DDL: one MI DMV reset, and
        the index is stamped with the plane's ``now``, not the engine's."""
        clock, profile, plane = loop
        engine = profile.engine
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.implement_service.begin(plane, record, clock.now)
        resets = engine.missing_indexes.resets
        now = clock.now + 120.0
        plane.implement_service.drive(plane, record, now)
        assert record.state is RecommendationState.VALIDATING
        assert engine.missing_indexes.resets == resets + 1
        index = engine.database.table(record.recommendation.table).get_index(
            record.index_name
        )
        assert index.created_at == now != engine.now

    def test_drop_forgets_usage_and_resets_once(self, loop):
        clock, profile, plane = loop
        engine, recommendation = profile.engine, drop_recommendation(profile)
        engine.usage_stats.record_seek(recommendation.table, "ix_old", clock.now)
        record = plane.store.insert(profile.name, recommendation, 0.0)
        plane.implement_service.begin(plane, record, clock.now)
        resets = engine.missing_indexes.resets
        plane.implement_service.drive(plane, record, clock.now)
        assert record.state is RecommendationState.VALIDATING
        assert not engine.index_exists(recommendation.table, "ix_old")
        assert engine.usage_stats.get("ix_old") is None
        assert engine.missing_indexes.resets == resets + 1

    def test_revert_of_drop_recreates_the_index(self, loop):
        clock, profile, plane = loop
        engine, recommendation = profile.engine, drop_recommendation(profile)
        record = plane.store.insert(profile.name, recommendation, 0.0)
        plane.implement_service.begin(plane, record, clock.now)
        plane.implement_service.drive(plane, record, clock.now)
        plane.store.transition(
            record, RecommendationState.REVERTING, clock.now, "regressed"
        )
        resets = engine.missing_indexes.resets
        now = clock.now + 90.0
        plane.implement_service.drive_revert(plane, record, now)
        assert record.state is RecommendationState.REVERTED
        table = engine.database.table(recommendation.table)
        assert table.get_index("ix_old").created_at == now
        assert engine.missing_indexes.resets == resets + 1
        event = plane.audit.events(event_type="revert_completed")[-1]
        assert event.payload["method"] == "recreate_index"
        assert event.payload["rows_built"] == table.row_count

    @pytest.mark.parametrize("auto_created", [True, False])
    def test_revert_of_drop_keeps_who_created_the_index(self, loop, auto_created):
        """The drop recommender keeps user-created duplicates over
        auto-created ones, so a reverted drop must bring the index back
        with the ``auto_created`` flag it was dropped with."""
        clock, profile, plane = loop
        engine = profile.engine
        recommendation = drop_recommendation(profile, auto_created=auto_created)
        table = engine.database.table(recommendation.table)
        dropped = table.get_index("ix_old").definition
        record = plane.store.insert(profile.name, recommendation, 0.0)
        plane.implement_service.begin(plane, record, clock.now)
        plane.implement_service.drive(plane, record, clock.now)
        assert not engine.index_exists(recommendation.table, "ix_old")
        plane.store.transition(
            record, RecommendationState.REVERTING, clock.now, "regressed"
        )
        plane.implement_service.drive_revert(plane, record, clock.now + 90.0)
        assert record.state is RecommendationState.REVERTED
        recreated = table.get_index("ix_old").definition
        assert recreated == dropped
        assert recreated.auto_created is auto_created


class TestHealthService:
    def test_stuck_retry_errored(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.store.update(record, 0.0, retry_at=float("inf"))
        plane.store.transition(record, RecommendationState.RETRY, 0.0, "stuck")
        clock.advance(plane.settings.stuck_threshold + 60.0)
        plane.health_service.check(plane, clock.now)
        assert record.state is RecommendationState.ERROR

    def test_stale_active_expired(self, loop):
        clock, profile, plane = loop
        plane.config.create_mode = AutoMode.RECOMMEND_ONLY
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        clock.advance(plane.settings.stuck_threshold + 60.0)
        plane.health_service.check(plane, clock.now)
        assert record.state is RecommendationState.EXPIRED

    def test_stuck_validating_raises_incident(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.store.transition(record, RecommendationState.IMPLEMENTING, 0.0)
        plane.store.update(record, 0.0, implemented_at=0.0, validate_after=1e12)
        plane.store.transition(record, RecommendationState.VALIDATING, 0.0)
        clock.advance(plane.settings.stuck_threshold + 60.0)
        plane.health_service.check(plane, clock.now)
        assert any(i.rec_id == record.rec_id for i in plane.incidents)
        assert record.state is RecommendationState.VALIDATING  # not auto-fixed

    def test_healthy_records_untouched(self, loop):
        clock, profile, plane = loop
        record = plane.store.insert(profile.name, make_recommendation(profile), 0.0)
        plane.health_service.check(plane, clock.now)
        assert record.state is RecommendationState.ACTIVE
        assert not plane.incidents


class TestDtaSessionManager:
    def test_session_completes_and_emits(self, loop):
        """A completed session emits, and its one duration sample is
        the clock at close minus the start."""
        clock, profile, plane = loop
        profile.workload.run(profile.engine, hours=4, max_statements=250)
        started = clock.now
        recommendations = plane.dta_service.run(plane, started)
        registry = plane.telemetry.registry
        assert registry.total("events_total", kind="dta_completed") == 1
        assert isinstance(recommendations, list)
        duration = clock.now - started
        assert duration_samples(plane, "DTA") == [(1, duration, duration)]

    def test_interference_abort_handled(self, loop):
        clock, profile, plane = loop
        profile.workload.run(profile.engine, hours=2, max_statements=120)
                # Force the interference proxy: exhaust the tuning pool window.
        pool = plane.engine.governor.tuning
        assert pool.budget_cpu_ms is not None
        pool._roll_window(clock.now)
        pool._window_cpu_ms = pool.budget_cpu_ms * 2
        result = plane.dta_service.run(plane, clock.now)
        assert result == []
        registry = plane.telemetry.registry
        assert registry.total("events_total", kind="dta_aborted") == 1

    def test_budget_deferrals_resume_one_session_then_abandon(
        self, loop, monkeypatch
    ):
        """A budget-exhausted session is kept and resumed by the next run
        (its start time survives the deferrals, and nothing is observed)
        until the deferral cap abandons it with one duration sample, read
        off the clock; the run after that starts a fresh session."""
        clock, profile, plane = loop
        profile.workload.run(profile.engine, hours=2, max_statements=120)
        manager = plane.dta_service
        attempts = []

        def exhausted(session):
            attempts.append(session)
            clock.advance(0.25)  # the pass's own work moves the clock
            raise ResourceBudgetExceededError("tuning budget spent")

        monkeypatch.setattr(DtaSession, "run", exhausted)
        cap = manager.MAX_BUDGET_DEFERRALS
        started = clock.now
        for attempt in range(cap - 1):
            clock.advance_to(started + attempt)
            with pytest.raises(ResourceBudgetExceededError):
                manager.run(plane, started + attempt)
            assert manager._session_started == started
            assert duration_samples(plane, "DTA") == []
        closed = started + cap
        clock.advance_to(closed)
        assert manager.run(plane, closed) == []
        assert len(attempts) == cap
        assert all(session is attempts[0] for session in attempts)
        assert manager.last_run_info == {"session_outcome": "abandoned"}
        # One sample: the clock after the abandoning pass minus the first
        # start, i.e. ``cap`` minutes plus that pass's quarter minute (up
        # to the float subtraction itself), not the scheduled ``closed``.
        duration = clock.now - started
        assert duration == pytest.approx(cap + 0.25)
        assert duration_samples(plane, "DTA") == [(1, duration, duration)]
        registry = plane.telemetry.registry
        assert registry.total("events_total", kind="dta_budget_exhausted") == cap
        assert registry.total("events_total", kind="dta_abandoned") == 1

        with pytest.raises(ResourceBudgetExceededError):
            manager.run(plane, started + cap + 1)
        assert attempts[-1] is not attempts[0]
        assert manager._session_started == started + cap + 1
        assert duration_samples(plane, "DTA") == [(1, duration, duration)]

    @pytest.mark.parametrize("outcome", ["completed", "aborted", "abandoned"])
    def test_terminal_outcome_observes_one_duration(
        self, loop, monkeypatch, outcome
    ):
        """Every way a session ends observes one DTA sample: the clock at
        close minus the first start, across a budget deferral in
        between."""
        clock, _profile, plane = loop
        manager = plane.dta_service
        monkeypatch.setattr(manager, "MAX_BUDGET_DEFERRALS", 2)
        calls = []

        def run(session):
            calls.append(session)
            clock.advance(0.25)  # the pass's own work moves the clock
            if len(calls) == 1 or outcome == "abandoned":
                raise ResourceBudgetExceededError("tuning budget spent")
            if outcome == "aborted":
                raise SessionAbortedError("tuning slowed user queries")
            return []

        monkeypatch.setattr(DtaSession, "run", run)
        first_start = clock.now + 3.0
        clock.advance_to(first_start)
        with pytest.raises(ResourceBudgetExceededError):
            manager.run(plane, first_start)
        assert duration_samples(plane, "DTA") == []
        close = first_start + 7.5
        clock.advance_to(close)
        assert manager.run(plane, close) == []
        assert manager.last_run_info["session_outcome"] == outcome
        duration = clock.now - first_start
        assert duration == pytest.approx(7.75)
        assert duration_samples(plane, "DTA") == [(1, duration, duration)]


class TestRecommendationService:
    @pytest.mark.parametrize(
        "outcome, error",
        [
            ("completed", None),
            ("deferred", TransientError("snapshot unavailable")),
            ("failed", PermanentError("recommender broke")),
        ],
        ids=["completed", "deferred", "failed"],
    )
    def test_only_a_completed_mi_pass_observes_its_duration(
        self, loop, monkeypatch, outcome, error
    ):
        """An MI pass observes ``clock.now - now`` once it completes; a
        deferred or failed pass observes nothing."""
        clock, _profile, plane = loop

        def recommend():
            clock.advance(4.0)  # the pass takes simulated time
            if error is not None:
                raise error
            return []

        monkeypatch.setattr(plane.mi, "recommend", recommend)
        now = clock.now
        plane.recommend_service.analyze(plane, now)
        registry = plane.telemetry.registry
        assert registry.total(
            "analysis_runs_total", source="MI", outcome=outcome
        ) == 1
        duration = clock.now - now
        expected = [(1, duration, duration)] if outcome == "completed" else []
        assert duration_samples(plane, "MI") == expected
        assert duration_samples(plane, "DTA") == []


def test_every_index_change_goes_through_the_engine(monkeypatch):
    """After set-up, each ``Table`` index change of a fleet run (builds,
    and reverts by drop) happens inside ``SqlEngine``'s DDL entry."""
    monkeypatch.setattr(implement_service, "VALIDATION_SETTLE", 5.0)
    service = build_service(
        1,
        seed=2,
        engine_settings=EngineSettings(
            cost_model=CostModelSettings(error_sigma=0.85)
        ),
        control_settings=ControlPlaneSettings(
            snapshot_period=30.0,
            analysis_period=1 * HOURS,
            validation_window=1 * HOURS,
        ),
        validation_settings=ValidationSettings(
            alpha=0.5, regression_threshold=0.0, min_resource_share=0.0,
            min_executions=2,
        ),
        service_settings=ServiceSettings(max_statements_per_step=90),
        default_config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
    )
    depth, inside, outside = [0], [], []

    def engine_ddl(method):
        def wrapper(self, *args, **kwargs):
            depth[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def table_ddl(method):
        def wrapper(self, *args, **kwargs):
            (inside if depth[0] else outside).append(method.__name__)
            return method(self, *args, **kwargs)
        return wrapper

    for name in ("create_index", "drop_index"):
        monkeypatch.setattr(SqlEngine, name, engine_ddl(getattr(SqlEngine, name)))
        monkeypatch.setattr(Table, name, table_ddl(getattr(Table, name)))
    service.run(hours=48)
    assert service.store.count_by_state().get(RecommendationState.REVERTED)
    assert "drop_index" in inside
    assert outside == []
