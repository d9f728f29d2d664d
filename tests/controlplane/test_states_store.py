"""State machine, store/journal, scheduler, faults tests."""

from __future__ import annotations

import pytest

from repro.clock import SimClock
from repro.controlplane import ControlPlane, control_plane
from repro.controlplane.faults import FaultInjector
from repro.controlplane.states import RecommendationState, check_transition
from repro.controlplane.store import StateStore
from repro.errors import InvalidStateTransitionError, PermanentError, TransientError
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.workload import make_profile


def make_rec(table="t", keys=("a",)):
    return IndexRecommendation(
        action=Action.CREATE, table=table, key_columns=tuple(keys), source="MI"
    )


class TestTransitions:
    def test_legal_happy_path(self):
        path = [
            RecommendationState.ACTIVE,
            RecommendationState.IMPLEMENTING,
            RecommendationState.VALIDATING,
            RecommendationState.SUCCESS,
        ]
        for current, new in zip(path, path[1:]):
            check_transition(current, new)

    def test_legal_revert_path(self):
        check_transition(
            RecommendationState.VALIDATING, RecommendationState.REVERTING
        )
        check_transition(
            RecommendationState.REVERTING, RecommendationState.REVERTED
        )

    def test_illegal_transitions_raise(self):
        with pytest.raises(InvalidStateTransitionError):
            check_transition(
                RecommendationState.ACTIVE, RecommendationState.SUCCESS
            )
        with pytest.raises(InvalidStateTransitionError):
            check_transition(
                RecommendationState.SUCCESS, RecommendationState.ACTIVE
            )

    def test_terminal_states(self):
        terminals = [
            RecommendationState.EXPIRED,
            RecommendationState.SUCCESS,
            RecommendationState.REVERTED,
            RecommendationState.ERROR,
        ]
        for state in terminals:
            assert state.terminal
        assert not RecommendationState.ACTIVE.terminal

    def test_retry_resumes_any_action(self):
        for target in (
            RecommendationState.IMPLEMENTING,
            RecommendationState.VALIDATING,
            RecommendationState.REVERTING,
        ):
            check_transition(RecommendationState.RETRY, target)


class TestStore:
    def test_insert_assigns_ids(self):
        store = StateStore()
        r1 = store.insert("db1", make_rec(), at=0.0)
        r2 = store.insert("db1", make_rec(keys=("b",)), at=1.0)
        assert r2.rec_id == r1.rec_id + 1

    def test_transition_records_history(self):
        store = StateStore()
        record = store.insert("db1", make_rec(), at=0.0)
        store.transition(record, RecommendationState.IMPLEMENTING, 5.0, "go")
        assert record.state is RecommendationState.IMPLEMENTING
        assert record.state_history[-1] == (5.0, RecommendationState.IMPLEMENTING, "go")

    def test_illegal_transition_rejected(self):
        store = StateStore()
        record = store.insert("db1", make_rec(), at=0.0)
        with pytest.raises(InvalidStateTransitionError):
            store.transition(record, RecommendationState.SUCCESS, 1.0)

    def test_filtering(self):
        store = StateStore()
        store.insert("db1", make_rec(), at=0.0)
        r2 = store.insert("db2", make_rec(), at=0.0)
        store.transition(r2, RecommendationState.EXPIRED, 1.0)
        assert len(store.records_for(database="db1")) == 1
        assert len(store.records_for(state=RecommendationState.ACTIVE)) == 1
        counts = store.count_by_state()
        assert counts[RecommendationState.EXPIRED] == 1

    def test_update_unknown_field_rejected(self):
        store = StateStore()
        record = store.insert("db1", make_rec(), at=0.0)
        with pytest.raises(AttributeError):
            store.update(record, 1.0, nonsense_field=1)

    def test_recovery_replays_journal(self):
        store = StateStore()
        r1 = store.insert("db1", make_rec(), at=0.0)
        store.transition(r1, RecommendationState.IMPLEMENTING, 1.0, "x")
        store.update(r1, 2.0, index_name="ix_1", implemented_at=2.0)
        store.transition(r1, RecommendationState.VALIDATING, 3.0)
        recovered = store.recover()
        rec = recovered.get(r1.rec_id)
        assert rec.state is RecommendationState.VALIDATING
        assert rec.index_name == "ix_1"
        assert rec.implemented_at == 2.0
        # New ids continue after the recovered ones.
        r2 = recovered.insert("db1", make_rec(keys=("z",)), at=4.0)
        assert r2.rec_id > r1.rec_id

    def test_retry_attempts_survive_recovery(self):
        """Regression: ``_to_retry`` bumped ``attempts`` outside the
        journal, so a recovered store forgot every retry and would never
        exhaust them."""
        clock = SimClock()
        profile = make_profile("retry-db", seed=78, clock=clock)
        plane = ControlPlane(clock, profile.name, profile.engine)
        record = plane.store.insert(profile.name, make_rec(), at=clock.now)
        plane.faults.configure("implement", transient=1.0)
        plane.process()
        clock.advance(control_plane.RETRY_BACKOFF + 1)
        plane.process()
        assert record.attempts == 2
        assert plane.store.recover().get(record.rec_id).attempts == 2

    def test_recovery_of_empty_store(self):
        recovered = StateStore().recover()
        assert recovered.all_records() == []


class TestFaults:
    def test_no_config_no_faults(self):
        injector = FaultInjector(seed=1)
        for _ in range(100):
            injector.check("op")

    def test_transient_rate(self):
        injector = FaultInjector(seed=2)
        injector.configure("op", transient=0.5)
        failures = 0
        for _ in range(200):
            try:
                injector.check("op")
            except TransientError:
                failures += 1
        assert 60 < failures < 140

    def test_permanent_faults(self):
        injector = FaultInjector(seed=3)
        injector.configure("op", permanent=1.0)
        with pytest.raises(PermanentError):
            injector.check("op")
