"""Control-plane integration tests: the full recommendation lifecycle."""

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
from repro.controlplane import control_plane
from repro.controlplane.control_plane import (
    MAX_CONCURRENT_IMPLEMENTATIONS,
    REVERT_COOLDOWN,
)
from repro.engine.cost_model import CostModelSettings
from repro.engine.engine import EngineSettings
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.workload import make_profile


def build_loop(
    seed=21,
    tier="standard",
    create_mode=AutoMode.AUTO,
    error_sigma=0.85,
    fault_seed=0,
):
    clock = SimClock()
    engine_settings = EngineSettings(
        cost_model=CostModelSettings(error_sigma=error_sigma)
    )
    profile = make_profile(
        f"cp-{seed}", seed=seed, tier=tier, clock=clock,
        engine_settings=engine_settings,
    )
    settings = ControlPlaneSettings(
        snapshot_period=2 * HOURS,
        analysis_period=8 * HOURS,
        validation_window=6 * HOURS,
    )
    plane = ControlPlane(
        clock,
        profile.name,
        profile.engine,
        tier=tier,
        config=AutoIndexingConfig(create_mode=create_mode),
        settings=settings,
        fault_seed=fault_seed,
    )
    return clock, profile, plane


def advance(profile, plane, steps, hours=2, max_statements=90):
    for _ in range(steps):
        profile.workload.run(profile.engine, hours, max_statements=max_statements)
        plane.process()


def recommend(profile, key_column=2, created_at=0.0):
    fact = profile.schema_spec.fact_tables()[0]
    return IndexRecommendation(
        action=Action.CREATE,
        table=fact.name,
        key_columns=(fact.columns[key_column].name,),
        included_columns=(fact.columns[3].name,),
        source="MI",
        estimated_improvement_pct=80.0,
        created_at=created_at,
    )


class TestClosedLoop:
    def test_auto_mode_implements_and_validates(self):
        clock, profile, plane = build_loop()
        advance(profile, plane, steps=36)  # 3 days
        records = plane.store.all_records()
        assert records, "no recommendations generated"
        terminal = [r for r in records if r.state in (
            RecommendationState.SUCCESS, RecommendationState.REVERTED)]
        assert terminal, "no recommendation reached a terminal state"
        for record in terminal:
            states = [s for _t, s, _n in record.state_history]
            assert RecommendationState.IMPLEMENTING in states
            assert RecommendationState.VALIDATING in states

    def test_recommend_only_mode_waits_for_user(self):
        clock, profile, plane = build_loop(create_mode=AutoMode.RECOMMEND_ONLY)
        advance(profile, plane, steps=18)
        active = plane.store.records_for(state=RecommendationState.ACTIVE)
        assert active, "expected active recommendations awaiting the user"
        implemented = [
            r for r in plane.store.all_records()
            if r.state not in (RecommendationState.ACTIVE, RecommendationState.EXPIRED)
        ]
        assert not implemented
        # The user applies one through the API; the system implements it.
        plane.request_implementation(active[0].rec_id)
        advance(profile, plane, steps=10)
        record = plane.store.get(active[0].rec_id)
        assert record.state in (
            RecommendationState.VALIDATING,
            RecommendationState.SUCCESS,
            RecommendationState.REVERTED,
        )

    def test_reverted_recommendation_not_reproposed(self):
        clock, profile, plane = build_loop(seed=211)
        advance(profile, plane, steps=72)
        reverted_keys = {
            r.recommendation.structure_key()
            for r in plane.store.all_records()
            if r.state is RecommendationState.REVERTED
        }
        for key in reverted_keys:
            twins = [
                r
                for r in plane.store.all_records()
                if r.recommendation.structure_key() == key
            ]
            live = [r for r in twins if not r.terminal]
            # After a revert, no live twin may exist (cooldown).
            reverted_at = max(
                r.state_history[-1][0]
                for r in twins
                if r.state is RecommendationState.REVERTED
            )
            for record in live:
                assert record.recommendation.created_at < reverted_at

    def test_serialized_implementation(self):
        clock, profile, plane = build_loop()
        advance(profile, plane, steps=36)
        # Replay history: at no point were two records simultaneously
        # in the implementing/validating band.
        timeline = []
        busy = (
            RecommendationState.IMPLEMENTING,
            RecommendationState.VALIDATING,
            RecommendationState.REVERTING,
        )
        for record in plane.store.all_records():
            enter = exit_ = None
            for at, state, _note in record.state_history:
                if state in busy and enter is None:
                    enter = at
                if state.terminal:
                    exit_ = at
            if enter is not None:
                timeline.append((enter, exit_ if exit_ is not None else float("inf")))
        timeline.sort()
        for (s1, e1), (s2, _e2) in zip(timeline, timeline[1:]):
            assert s2 >= e1 - 1e-6, "implementations overlapped"

    def test_transient_faults_retried(self):
        clock, profile, plane = build_loop(fault_seed=12)
        plane.faults.configure("implement", transient=0.7)
        advance(profile, plane, steps=48)
        retried = [
            r
            for r in plane.store.all_records()
            if any(s is RecommendationState.RETRY for _t, s, _n in r.state_history)
        ]
        assert retried, "expected some retries with 50% transient faults"
        # Despite faults, some recommendation still lands.
        finished = [
            r for r in plane.store.all_records()
            if r.state in (RecommendationState.SUCCESS, RecommendationState.REVERTED)
        ]
        assert finished

    def test_permanent_fault_errors_and_raises_incident(self):
        clock, profile, plane = build_loop(fault_seed=3)
        plane.faults.configure("implement", permanent=1.0)
        advance(profile, plane, steps=24)
        errors = plane.store.records_for(state=RecommendationState.ERROR)
        assert errors
        assert plane.incidents

    def test_store_recovery_mid_run(self):
        clock, profile, plane = build_loop()
        advance(profile, plane, steps=24)
        recovered = plane.store.recover()
        original = {r.rec_id: r.state for r in plane.store.all_records()}
        assert {r.rec_id: r.state for r in recovered.all_records()} == original

    def test_expiry_of_stale_recommendations(self, monkeypatch):
        monkeypatch.setattr(control_plane, "RECOMMENDATION_EXPIRY", 2 * DAYS)
        clock, profile, plane = build_loop(create_mode=AutoMode.RECOMMEND_ONLY)
        advance(profile, plane, steps=48)
        expired = plane.store.records_for(state=RecommendationState.EXPIRED)
        assert expired

    def test_validation_history_collected(self):
        clock, profile, plane = build_loop()
        advance(profile, plane, steps=36)
        if any(
            r.state in (RecommendationState.SUCCESS, RecommendationState.REVERTED)
            for r in plane.store.all_records()
        ):
            assert plane.validation_history
            entry = plane.validation_history[0]
            assert {"beneficial", "reverted", "estimated_impact_pct"} <= set(entry)

    def test_events_have_no_customer_data(self):
        clock, profile, plane = build_loop()
        advance(profile, plane, steps=24)
        events = plane.audit.events()
        assert events
        for event in events:
            assert "query_text" not in event.payload
            assert "text" not in event.payload


class TestRegistration:
    """``register_recommendations``: supersession and suppression."""

    def test_newer_duplicate_supersedes_the_active_record(self):
        clock, profile, plane = build_loop(create_mode=AutoMode.RECOMMEND_ONLY)
        [first] = plane.register_recommendations([recommend(profile)], 0.0)
        [other] = plane.register_recommendations(
            [recommend(profile, key_column=4)], 0.0
        )
        [second] = plane.register_recommendations(
            [recommend(profile, created_at=60.0)], 60.0
        )
        assert first.state is RecommendationState.EXPIRED
        assert first.state_history[-1] == (
            60.0, RecommendationState.EXPIRED,
            "superseded by newer recommendation",
        )
        assert second.state is RecommendationState.ACTIVE
        assert other.state is RecommendationState.ACTIVE
        assert plane.telemetry.registry.total(
            "events_total", kind="recommendation_created"
        ) == 3
        assert not plane.audit.events("recommendation_suppressed")

    def test_index_in_flight_is_not_reproposed(self):
        clock, profile, plane = build_loop(create_mode=AutoMode.RECOMMEND_ONLY)
        [record] = plane.register_recommendations([recommend(profile)], 0.0)
        plane.implement_service.begin(plane, record, 0.0)
        assert record.state is RecommendationState.IMPLEMENTING
        assert plane.register_recommendations([recommend(profile)], 30.0) == []
        [event] = plane.audit.events("recommendation_suppressed")
        assert event.payload["reason"] == "in_flight"
        assert event.payload["cooldown_until"] is None
        assert record.state is RecommendationState.IMPLEMENTING
        assert len(plane.store.all_records()) == 1

    def test_failed_index_is_suppressed_until_its_cooldown_ends(self):
        """The latest failure among the twins starts the cooldown, whatever
        their insertion order."""
        clock, profile, plane = build_loop(create_mode=AutoMode.RECOMMEND_ONLY)
        cooldown = REVERT_COOLDOWN
        older = plane.store.insert(profile.name, recommend(profile), 0.0)
        newer = plane.store.insert(profile.name, recommend(profile), 0.0)
        plane.store.transition(newer, RecommendationState.ERROR, 10.0)
        plane.store.transition(older, RecommendationState.ERROR, 50.0)
        assert plane.register_recommendations(
            [recommend(profile)], 50.0 + cooldown - 1.0
        ) == []
        [event] = plane.audit.events("recommendation_suppressed")
        assert event.payload["reason"] == "revert_cooldown"
        assert event.payload["cooldown_until"] == 50.0 + cooldown
        [record] = plane.register_recommendations(
            [recommend(profile)], 50.0 + cooldown
        )
        assert record.state is RecommendationState.ACTIVE

    def test_implementation_cap_counts_busy_records_only(self):
        """ACTIVE and terminal records do not hold the one implementation
        slot; a record that leaves the busy band frees it."""
        assert MAX_CONCURRENT_IMPLEMENTATIONS == 1
        clock, profile, plane = build_loop()
        [done] = plane.register_recommendations(
            [recommend(profile, key_column=5)], 0.0
        )
        plane.store.transition(done, RecommendationState.EXPIRED, 0.0)
        first, second = plane.register_recommendations(
            [recommend(profile), recommend(profile, key_column=4)], 0.0
        )
        plane.process(0.0)
        assert first.state is RecommendationState.IMPLEMENTING
        assert second.state is RecommendationState.ACTIVE
        plane.process(1.0)
        assert second.state is RecommendationState.ACTIVE
        plane.store.transition(first, RecommendationState.ERROR, 2.0)
        plane.process(2.0)
        assert second.state is RecommendationState.IMPLEMENTING
