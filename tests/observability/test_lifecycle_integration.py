"""End-to-end: one closed-loop run, checked against phases + counters.

The same run is measured three ways — the StateStore (ground truth), the
MetricsRegistry, and the OperationalReport built *from* the region
service's merged registry — and all three must agree exactly.  This is the "report and telemetry can
never disagree" invariant the observability subsystem exists for.
"""

from __future__ import annotations

import pytest

from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.engine.cost_model import CostModelSettings
from repro.engine.engine import EngineSettings
from repro.observability.explain import lifecycle_phases
from repro.reporting import operational_report
from repro.service import ServiceSettings, build_service
from tests.controlplane.test_control_plane import advance, build_loop

TERMINAL = (
    RecommendationState.SUCCESS,
    RecommendationState.REVERTED,
    RecommendationState.ERROR,
    RecommendationState.EXPIRED,
)

PHASE_KINDS = {
    RecommendationState.ACTIVE: "recommend",
    RecommendationState.IMPLEMENTING: "implement",
    RecommendationState.VALIDATING: "validate",
    RecommendationState.REVERTING: "revert",
    RecommendationState.RETRY: "retry",
}


def run_loop(steps=36, seed=21):
    clock, profile, plane = build_loop(seed=seed)
    advance(profile, plane, steps=steps)
    return clock, profile, plane


class TestCountersMatchStore:
    def test_registry_agrees_with_state_store(self):
        _clock, _profile, plane = run_loop()
        registry = plane.telemetry.registry
        records = plane.store.all_records()
        assert records, "no recommendations generated"

        assert registry.total("recommendations_created_total") == len(records)

        by_state = plane.store.count_by_state()
        for state, expected in by_state.items():
            gauge = registry.total("records_in_state", state=state.value)
            assert gauge == expected, state
        # Terminal states have no outgoing edges, so the count of records
        # sitting in one equals the count of transitions into it.
        for state in TERMINAL:
            transitions = registry.total(
                "state_transitions_total", to_state=state.value
            )
            assert transitions == by_state.get(state, 0), state

        implemented = sum(1 for r in records if r.implemented_at is not None)
        assert registry.total("implementations_completed_total") == implemented

    def test_events_counter_matches_bus_totals(self):
        _clock, _profile, plane = run_loop(steps=12)
        registry = plane.telemetry.registry
        kinds = {
            dict(series.labels)["kind"]
            for series in registry.all_series()
            if series.name == "events_total"
        }
        emitted = sum(registry.total("events_total", kind=k) for k in kinds)
        assert emitted > 0
        assert registry.total("events_total") == emitted


class TestSpanTree:
    """Phase durations are a view of the audit chain."""

    def test_terminal_record_has_complete_phase_timeline(self):
        _clock, _profile, plane = run_loop()
        terminal = [
            r for r in plane.store.all_records() if r.state in TERMINAL
        ]
        assert terminal, "no recommendation reached a terminal state"

        for record in terminal:
            chain = plane.audit.chain(record.rec_id)
            assert all(e.database == record.database for e in chain)
            phases = lifecycle_phases(chain)
            assert phases, "terminal record has no phases"
            # One phase per non-terminal state visited, in visit order.
            visited = [
                state for _at, state, _note in record.state_history
                if state in PHASE_KINDS
            ]
            assert [p.name for p in phases] == [
                PHASE_KINDS[state] for state in visited
            ]
            # Each phase closes with the state the record moved to next.
            for phase, (at, state, _note), (next_at, next_state, _) in zip(
                phases, record.state_history, record.state_history[1:]
            ):
                assert not phase.open
                assert (phase.start, phase.end) == (at, next_at)
                assert phase.outcome == next_state.value
            assert phases[-1].outcome == record.state.value

        # state_duration_minutes observes exactly the history's intervals.
        registry = plane.telemetry.registry
        for state in PHASE_KINDS:
            intervals = [
                next_at - at
                for record in plane.store.all_records()
                for (at, entered, _), (next_at, _s, _n) in zip(
                    record.state_history, record.state_history[1:]
                )
                if entered is state
            ]
            series = [
                s.metric for s in registry.all_series()
                if s.name == "state_duration_minutes"
                and dict(s.labels)["state"] == state.value
            ]
            count = sum(h.count for h in series)
            total = sum(h.sum for h in series)
            assert count == len(intervals), state
            assert total == pytest.approx(sum(intervals)), state

    def test_open_records_have_open_phases(self):
        _clock, _profile, plane = run_loop(steps=12)
        for record in plane.store.all_records():
            phases = lifecycle_phases(plane.audit.chain(record.rec_id))
            assert phases[-1].open == (record.state not in TERMINAL)
            assert all(not p.open for p in phases[:-1])


class TestReportEqualsRegistry:
    def test_operational_report_is_a_registry_view(self):
        service = build_service(
            2,
            seed=21,
            engine_settings=EngineSettings(
                cost_model=CostModelSettings(error_sigma=0.85)
            ),
            control_settings=ControlPlaneSettings(
                snapshot_period=2 * HOURS,
                analysis_period=8 * HOURS,
                validation_window=6 * HOURS,
            ),
            service_settings=ServiceSettings(max_statements_per_step=90),
            default_config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
        )
        service.run(hours=72)
        registry = service.telemetry.registry
        report = operational_report(service)
        records = service.store.all_records()
        by_state = service.store.count_by_state()
        assert report.validated_success + report.reverted > 0

        # Report vs registry (the report is now *built from* the registry).
        assert report.create_recommendations + report.drop_recommendations \
            == registry.total("recommendations_created_total")
        assert report.implemented == registry.total(
            "implementations_completed_total"
        )
        assert report.validated_success == registry.total(
            "state_transitions_total",
            to_state=RecommendationState.SUCCESS.value,
        )
        assert report.reverted == registry.total(
            "state_transitions_total",
            to_state=RecommendationState.REVERTED.value,
        )
        assert report.incidents == registry.total("incidents_total")

        # Report vs store-derived recomputation (the old definition).
        assert report.create_recommendations + report.drop_recommendations \
            == len(records)
        assert report.validated_success == by_state.get(
            RecommendationState.SUCCESS, 0
        )
        assert report.reverted == by_state.get(RecommendationState.REVERTED, 0)
        assert report.implemented == sum(
            1 for r in records if r.implemented_at is not None
        )
        assert report.reverts_with_write_regression == registry.total(
            "validation_reverts_total", regression="write"
        )
        assert report.reverts_with_select_regression == registry.total(
            "validation_reverts_total", regression="select"
        )
