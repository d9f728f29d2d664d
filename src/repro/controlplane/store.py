"""Persistent, journaled recommendation state store (Section 4).

The paper stores the control plane's state in a highly available database
in the same region.  Here a :class:`StateStore` keeps an in-memory table
of :class:`RecommendationRecord` rows plus an append-only journal of every
mutation; :meth:`StateStore.recover` rebuilds the table purely from the
journal, which is how the tests exercise crash recovery.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.controlplane.states import RecommendationState, check_transition
from repro.recommender.recommendation import IndexRecommendation


@dataclasses.dataclass
class RecommendationRecord:
    """One row of the recommendation table."""

    rec_id: int
    database: str
    recommendation: IndexRecommendation
    state: RecommendationState = RecommendationState.ACTIVE
    state_history: List[Tuple[float, RecommendationState, str]] = dataclasses.field(
        default_factory=list
    )
    #: Index name once implemented (auto-generated for CREATE actions).
    index_name: Optional[str] = None
    implemented_at: Optional[float] = None
    validate_after: Optional[float] = None
    #: Which state RETRY should re-enter.
    retry_target: Optional[RecommendationState] = None
    retry_at: Optional[float] = None
    attempts: int = 0
    note: str = ""
    #: Filled by validation.
    validation_summary: str = ""
    aggregate_change: Optional[float] = None
    #: The labeled example this validation contributes to the low-impact
    #: classifier's training data (Section 5.2).
    validation_example: Optional[dict] = None

    @property
    def terminal(self) -> bool:
        return self.state.terminal


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One append-only journal record."""

    seq: int
    at: float
    op: str  # "insert" | "transition" | "update"
    rec_id: int
    payload: dict


class StateStore:
    """Journaled store of recommendation records.

    ``on_insert(record, at)`` and ``on_transition(record, old_state,
    new_state, at, note)`` are optional observer hooks, called after the
    entry is applied; the control plane uses them to write the audit
    chain and keep state-machine metrics in lockstep with the store —
    the store itself stays the single source of truth for transitions.
    """

    def __init__(self) -> None:
        self._records: Dict[int, RecommendationRecord] = {}
        self._journal: List[JournalEntry] = []
        self._id_counter = itertools.count(1)
        self._seq_counter = itertools.count(1)
        self.on_insert: Optional[Callable] = None
        self.on_transition: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Mutations (journaled)

    def _append(
        self, at: float, op: str, rec_id: int, payload: dict
    ) -> RecommendationRecord:
        """Journal one entry, then apply it: the table only ever changes
        by :meth:`_apply_entry`, so the journal reproduces it by
        construction."""
        entry = JournalEntry(
            seq=next(self._seq_counter), at=at, op=op, rec_id=rec_id,
            payload=payload,
        )
        self._journal.append(entry)
        return self._apply_entry(entry, insert_note="created")

    def insert(
        self, database: str, recommendation: IndexRecommendation, at: float
    ) -> RecommendationRecord:
        record = self._append(
            at,
            "insert",
            next(self._id_counter),
            {"database": database, "recommendation": recommendation},
        )
        if self.on_insert is not None:
            self.on_insert(record, at)
        return record

    def transition(
        self,
        record: RecommendationRecord,
        new_state: RecommendationState,
        at: float,
        note: str = "",
    ) -> None:
        check_transition(record.state, new_state)
        old_state = record.state
        self._append(at, "transition", record.rec_id, {"state": new_state, "note": note})
        if self.on_transition is not None:
            self.on_transition(record, old_state, new_state, at, note)

    def update(self, record: RecommendationRecord, at: float, **fields) -> None:
        """Journaled update of auxiliary fields."""
        for key in fields:
            if not hasattr(record, key):
                raise AttributeError(f"RecommendationRecord has no field {key!r}")
        self._append(at, "update", record.rec_id, dict(fields))

    # ------------------------------------------------------------------
    # Queries

    def get(self, rec_id: int) -> Optional[RecommendationRecord]:
        return self._records.get(rec_id)

    def all_records(self) -> List[RecommendationRecord]:
        return list(self._records.values())

    def records_for(
        self,
        database: Optional[str] = None,
        state: Optional[RecommendationState] = None,
    ) -> List[RecommendationRecord]:
        out = []
        for record in self._records.values():
            if database is not None and record.database != database:
                continue
            if state is not None and record.state is not state:
                continue
            out.append(record)
        return out

    def count_by_state(self) -> Dict[RecommendationState, int]:
        counts: Dict[RecommendationState, int] = {}
        for record in self._records.values():
            counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    def validation_history(self) -> List[dict]:
        """Classifier training examples, in the order they were journaled."""
        return [
            entry.payload["validation_example"]
            for entry in self._journal
            if "validation_example" in entry.payload
        ]

    def journal_since(self, index: int) -> List[JournalEntry]:
        """Entries appended after the first ``index`` (a drain cursor).

        The fleet-parallel layer drains each worker store once per tick
        with a monotonically advancing cursor, so this must be O(delta),
        not O(journal).
        """
        return self._journal[index:]

    def journal(self) -> List[JournalEntry]:
        """A copy of the append-only journal."""
        return list(self._journal)

    # ------------------------------------------------------------------
    # Replay (shared by the live mutators, crash recovery and the
    # fleet-parallel merge)

    def _apply_entry(
        self, entry: JournalEntry, insert_note: str
    ) -> RecommendationRecord:
        """Apply one journal entry to the record table (no hooks)."""
        if entry.op == "insert":
            record = RecommendationRecord(
                rec_id=entry.rec_id,
                database=entry.payload["database"],
                recommendation=entry.payload["recommendation"],
            )
            record.state_history.append((entry.at, record.state, insert_note))
            self._records[entry.rec_id] = record
        elif entry.op == "transition":
            record = self._records[entry.rec_id]
            record.state = entry.payload["state"]
            record.note = entry.payload.get("note", "")
            record.state_history.append((entry.at, record.state, record.note))
        elif entry.op == "update":
            record = self._records[entry.rec_id]
            for key, value in entry.payload.items():
                setattr(record, key, value)
        return record

    def ingest(self, op: str, at: float, rec_id: int, payload: dict) -> None:
        """Append and apply one externally produced journal entry.

        The fleet-parallel merge replays per-shard journals through this
        path with globally remapped ``rec_id``s; the observer hooks do
        NOT fire (the shard already emitted the matching telemetry, which
        the merger replays separately), and no transition checking is
        re-done — the shard's own store already enforced it.
        """
        self._append(at, op, rec_id, payload)
        if op == "insert":
            # Keep direct insert() ids ahead of everything merged so far.
            self._id_counter = itertools.count(rec_id + 1)

    # ------------------------------------------------------------------
    # Crash recovery

    def recover(self) -> "StateStore":
        """Rebuild a fresh store purely from this store's journal."""
        rebuilt = StateStore()
        max_id = 0
        for entry in self._journal:
            rebuilt._apply_entry(entry, insert_note="created (recovered)")
            if entry.op == "insert":
                max_id = max(max_id, entry.rec_id)
            rebuilt._journal.append(entry)
        rebuilt._id_counter = itertools.count(max_id + 1)
        rebuilt._seq_counter = itertools.count(
            self._journal[-1].seq + 1 if self._journal else 1
        )
        return rebuilt
