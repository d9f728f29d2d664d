"""AuditLog: typed emission, causal chains, and JSONL replay.

The replay property test at the bottom is the provenance layer's
integrity check: a control plane's audit stream, persisted as JSONL and
replayed cold, must reconstruct exactly the per-state counts and
per-``rec_id`` chains the live objects hold — the same guarantee the
StateStore journal gives via ``recover()``.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.controlplane import ControlPlane, RecommendationState
from repro.controlplane.states import check_transition
from repro.engine import Database, SqlEngine
from repro.errors import InvalidStateTransitionError, TelemetryError
from repro.observability import AUDIT_CATALOG, AUDIT_SCHEMA_VERSION, AuditLog
from repro.recommender.recommendation import Action, IndexRecommendation


class TestEmission:
    def test_unknown_event_type_rejected(self):
        log = AuditLog()
        with pytest.raises(TelemetryError, match="AUDIT_CATALOG"):
            log.emit(0.0, "made_up_event", "db1")

    def test_customer_data_keys_rejected(self):
        log = AuditLog()
        with pytest.raises(ValueError, match="customer data"):
            log.emit(0.0, "candidate_rejected", "db1", query_text="SELECT 1")
        # The scrub recurses into nested containers.
        with pytest.raises(ValueError, match="customer data"):
            log.emit(
                0.0, "validation_completed", "db1",
                statements=[{"parameters": [1, 2]}],
            )
        assert len(log) == 0

    def test_non_json_payload_rejected(self):
        log = AuditLog()
        with pytest.raises(TelemetryError, match="JSON-serializable"):
            log.emit(0.0, "health_action", "db1", action=object())

    def test_events_are_sequence_numbered_and_immutable(self):
        log = AuditLog()
        first = log.emit(1.0, "health_action", "db1", action="check")
        second = log.emit(2.0, "health_action", "db2", action="check")
        assert (first.seq, second.seq) == (1, 2)
        assert first.schema_version == AUDIT_SCHEMA_VERSION
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.at = 99.0


class TestChains:
    def test_parent_seq_links_one_chain(self):
        log = AuditLog()
        a = log.emit(0.0, "recommendation_registered", "db1", rec_id=7,
                     state="active")
        b = log.emit(1.0, "state_changed", "db1", rec_id=7,
                     from_state="active", to_state="implementing")
        c = log.emit(2.0, "state_changed", "db1", rec_id=7,
                     from_state="implementing", to_state="validating")
        assert a.parent_seq is None
        assert b.parent_seq == a.seq
        assert c.parent_seq == b.seq
        assert log.chain(7) == [a, b, c]

    def test_interleaved_chains_stay_separate(self):
        log = AuditLog()
        a1 = log.emit(0.0, "recommendation_registered", "db1", rec_id=1,
                      state="active")
        b1 = log.emit(1.0, "recommendation_registered", "db1", rec_id=2,
                      state="active")
        a2 = log.emit(2.0, "state_changed", "db1", rec_id=1,
                      from_state="active", to_state="expired")
        assert a2.parent_seq == a1.seq
        assert b1.parent_seq is None
        assert log.chain(1) == [a1, a2]
        assert log.chain(2) == [b1]

    def test_fleet_events_carry_no_chain(self):
        log = AuditLog()
        event = log.emit(0.0, "alert_raised", "<fleet>", rule="revert_rate_spike")
        assert event.rec_id is None and event.parent_seq is None
        assert log.rec_ids() == []

    def test_rec_ids_filters_by_database(self):
        log = AuditLog()
        log.emit(0.0, "recommendation_registered", "db1", rec_id=1, state="active")
        log.emit(0.0, "recommendation_registered", "db2", rec_id=2, state="active")
        assert log.rec_ids() == [1, 2]
        assert log.rec_ids("db2") == [2]

    def test_state_counts_follow_the_state_bearing_events(self):
        log = AuditLog()
        log.emit(0.0, "recommendation_registered", "db1", rec_id=1, state="active")
        log.emit(1.0, "state_changed", "db1", rec_id=1,
                 from_state="active", to_state="implementing")
        log.emit(2.0, "recommendation_registered", "db1", rec_id=2, state="active")
        # Evidence events without a state field do not move the chain.
        log.emit(3.0, "implementation_started", "db1", rec_id=1,
                 index_name="ix_a")
        assert log.current_states() == {1: "implementing", 2: "active"}
        assert log.state_counts() == {"implementing": 1, "active": 1}


class TestPersistence:
    def _sample_log(self):
        log = AuditLog()
        log.emit(0.0, "recommendation_registered", "db1", rec_id=1,
                 state="active", table="t", key_columns=["a", "b"])
        log.emit(5.0, "state_changed", "db1", rec_id=1,
                 from_state="active", to_state="implementing", note="")
        log.emit(6.0, "alert_raised", "<fleet>", rule="revert_rate_spike",
                 value=0.5)
        return log

    def test_jsonl_round_trip_is_exact(self):
        log = self._sample_log()
        replayed = AuditLog.replay(log.to_jsonl())
        assert replayed.events() == log.events()
        assert replayed.chain(1) == log.chain(1)
        assert replayed.counts_by_type() == log.counts_by_type()

    def test_dump_to_path_and_file_object(self, tmp_path):
        log = self._sample_log()
        path = tmp_path / "audit.jsonl"
        assert log.dump(str(path)) == 3
        assert AuditLog.replay(str(path)).events() == log.events()
        buffer = io.StringIO()
        log.dump(buffer)
        assert buffer.getvalue() == log.to_jsonl()

    def test_replay_continues_the_sequence(self):
        log = self._sample_log()
        replayed = AuditLog.replay(log.to_jsonl())
        event = replayed.emit(7.0, "state_changed", "db1", rec_id=1,
                              from_state="implementing", to_state="validating")
        assert event.seq == 4
        assert event.parent_seq == 2  # chains keep their causal links

    def test_replay_rejects_non_ascending_seq(self):
        log = self._sample_log()
        lines = log.to_jsonl().splitlines()
        with pytest.raises(TelemetryError, match="append-only"):
            AuditLog.replay([lines[1], lines[0]])

    def test_replay_rejects_newer_schema(self):
        log = self._sample_log()
        raw = json.loads(log.to_jsonl().splitlines()[0])
        raw["schema_version"] = AUDIT_SCHEMA_VERSION + 1
        with pytest.raises(TelemetryError, match="newer"):
            AuditLog.replay([json.dumps(raw)])

    def test_replay_of_an_empty_stream_is_empty(self):
        # An empty string is an empty stream, not a file path.
        assert len(AuditLog.replay("")) == 0
        assert len(AuditLog.replay(AuditLog().to_jsonl())) == 0

    def test_blank_lines_are_skipped(self):
        log = self._sample_log()
        text = "\n" + log.to_jsonl().replace("\n", "\n\n")
        assert AuditLog.replay(text).events() == log.events()


# ----------------------------------------------------------------------
# Replay property test (ISSUE: the audit stream is a faithful second
# journal of the state machine)

def _legal_next(state: RecommendationState):
    out = []
    for candidate in RecommendationState:
        try:
            check_transition(state, candidate)
        except InvalidStateTransitionError:
            continue
        out.append(candidate)
    return sorted(out, key=lambda s: s.value)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 999)), max_size=30
    )
)
def test_replayed_stream_matches_live_audit_and_recovered_store(steps):
    """Persist + replay reconstructs the live provenance view exactly.

    Random valid insert/transition sequences are driven through a
    ControlPlane's StateStore (whose observer hooks emit the audit
    events); the replayed JSONL must agree with the live AuditLog on
    chains and per-state counts, and both must match the store's own
    crash-recovery view.
    """
    clock = SimClock()
    plane = ControlPlane(
        clock, "db-prop", SqlEngine(Database("db-prop"), clock=clock)
    )
    store = plane.store
    at = 0.0
    for choice, pick in steps:
        at += 1.0
        open_records = [r for r in store.all_records() if not r.terminal]
        if choice < 3 or not open_records:
            recommendation = IndexRecommendation(
                action=Action.CREATE,
                table="t",
                key_columns=("c",),
                source="MI",
            )
            store.insert("db-prop", recommendation, at)
        else:
            record = open_records[pick % len(open_records)]
            targets = _legal_next(record.state)
            store.transition(record, targets[pick % len(targets)], at, "prop")

    replayed = AuditLog.replay(plane.audit.to_jsonl())
    assert replayed.state_counts() == plane.audit.state_counts()
    assert replayed.rec_ids() == plane.audit.rec_ids()
    for rec_id in plane.audit.rec_ids():
        assert replayed.chain(rec_id) == plane.audit.chain(rec_id)
    recovered = {
        state.value: count
        for state, count in store.recover().count_by_state().items()
    }
    assert replayed.state_counts() == recovered
