"""Decision provenance: the append-only, causally-linked audit stream.

The paper's lesson is that auto-indexing earns trust only when every
automated action is *auditable* — a customer (or an on-call engineer)
must be able to reconstruct why an index was created, why validation
judged it REGRESSED, and why a revert fired (Sections 2, 8).  The
metrics layer answers "how much" and "how long"; this module
answers "why": every decision point in the lifecycle emits a typed
:class:`AuditEvent` carrying the evidence behind the decision (what-if
estimated costs, failed policy predicates, Welch t-test statistics,
lock-wait timings).

Design points:

- **Append-only.**  Events are immutable and sequence-numbered; the log
  never rewrites history.
- **Typed.**  Every event type is declared in :data:`AUDIT_CATALOG`
  with a description and the paper lifecycle state it evidences; an
  undeclared type raises :class:`~repro.errors.TelemetryError` (and the
  ``scripts/check_observability_names.py`` lint enforces the same
  taxonomy statically).
- **Causally linked.**  Events that belong to a recommendation carry its
  ``rec_id`` and a ``parent_seq`` pointing at the previous event of the
  same chain, so a chain can be followed without scanning the log.
- **Schema-versioned, JSONL-persistable.**  Each event records the
  payload schema version; :meth:`AuditLog.dump` / :meth:`AuditLog.replay`
  round-trip the whole stream through JSON lines, which is how the
  ``repro explain --audit`` path reconstructs decisions offline.
- **Compliant.**  Every payload passes the same recursive customer-data
  scrub as metric labels.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, IO, Iterable, Iterator, List, Optional, Union

from repro.errors import TelemetryError
from repro.observability.compliance import ensure_compliant

#: Version of the event payload schemas below.  Bump when a payload's
#: meaning changes; :meth:`AuditLog.replay` refuses newer versions.
AUDIT_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class AuditEventSpec:
    """One catalog entry: the contract for an audit event type."""

    name: str
    description: str
    #: Paper lifecycle state the event evidences (None = fleet-level or
    #: chain-spine event).
    lifecycle_state: Optional[str]


def _spec(
    name: str, description: str, lifecycle_state: Optional[str] = None
) -> tuple:
    return name, AuditEventSpec(name, description, lifecycle_state)


#: The audit event taxonomy.  Names are stable public API: the explain
#: CLI, the JSONL schema, and the observability-name lint all key on
#: them.  ``lifecycle_state`` maps each event to the Section 4 state it
#: evidences (see DESIGN.md, "Decision provenance").
AUDIT_CATALOG: Dict[str, AuditEventSpec] = dict(
    [
        _spec("source_selected",
              "Recommender-source policy decision (MI vs DTA) with the "
              "predicate values that drove it.", "active"),
        _spec("candidates_generated",
              "One analysis pass produced candidates, with per-candidate "
              "what-if / DMV estimated costs.", "active"),
        _spec("candidate_rejected",
              "A candidate was filtered out of an analysis pass, with the "
              "failed predicate.", "active"),
        _spec("recommendation_registered",
              "A recommendation entered the state store (start of its "
              "audit chain).", "active"),
        _spec("recommendation_suppressed",
              "A re-proposed recommendation was suppressed (revert "
              "cooldown or an in-flight twin).", "active"),
        _spec("state_changed",
              "State-machine transition (the spine every evidence event "
              "hangs off).", None),
        _spec("implementation_started",
              "DDL began: online build or low-priority drop.",
              "implementing"),
        _spec("implementation_completed",
              "DDL finished, with build timing / lock-wait evidence.",
              "implementing"),
        _spec("validation_completed",
              "Validator judged the change, with per-statement Welch "
              "t-test inputs and verdicts.", "validating"),
        _spec("revert_decided",
              "Validation decided to revert, with the trigger predicate "
              "and the statements behind it.", "reverting"),
        _spec("revert_completed",
              "The revert DDL finished (index dropped or recreated).",
              "reverted"),
        _spec("retry_scheduled",
              "A transient failure parked the record in RETRY with "
              "back-off.", "retry"),
        _spec("error_raised",
              "A permanent failure (or exhausted retries) ended the "
              "record in ERROR.", "error"),
        _spec("health_action",
              "The health service corrected a stuck record or raised an "
              "incident.", None),
        _spec("alert_raised",
              "A non-advisory SLO started alerting: both burn-rate "
              "windows reached its burn threshold.", None),
        _spec("alert_resolved",
              "A previously alerting SLO stopped alerting.", None),
        _spec("telemetry_anomaly",
              "The telemetry-history EWMA/z-score detector flagged an "
              "excursion on a sampled fleet series.", None),
    ]
)

#: Event types whose payload carries a ``state`` / ``to_state`` field
#: that advances the chain's lifecycle state (used by
#: :meth:`AuditLog.current_states`).
_STATE_BEARING = {"recommendation_registered": "state", "state_changed": "to_state"}


@dataclasses.dataclass(frozen=True)
class AuditEvent:
    """One immutable, sequence-numbered provenance record."""

    seq: int
    at: float  # simulated minutes
    event_type: str
    database: str
    rec_id: Optional[int]
    #: Sequence number of the previous event in the same rec_id chain
    #: (None for chain heads and fleet-level events).
    parent_seq: Optional[int]
    schema_version: int
    payload: dict

    def to_json_line(self) -> str:
        """One deterministic JSON line (sorted keys, no timestamps)."""
        return json.dumps(
            {
                "seq": self.seq,
                "at": self.at,
                "event_type": self.event_type,
                "database": self.database,
                "rec_id": self.rec_id,
                "parent_seq": self.parent_seq,
                "schema_version": self.schema_version,
                "payload": self.payload,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json_line(cls, line: str) -> "AuditEvent":
        raw = json.loads(line)
        version = raw.get("schema_version", 0)
        if version > AUDIT_SCHEMA_VERSION:
            raise TelemetryError(
                f"audit event schema v{version} is newer than this "
                f"reader (v{AUDIT_SCHEMA_VERSION})"
            )
        return cls(
            seq=raw["seq"],
            at=raw["at"],
            event_type=raw["event_type"],
            database=raw["database"],
            rec_id=raw["rec_id"],
            parent_seq=raw["parent_seq"],
            schema_version=version,
            payload=raw["payload"],
        )


def jsonl_lines(source: Union[str, Iterable[str]]) -> Iterator[str]:
    """Non-blank lines of JSONL given as text, lines, or a file path (a
    one-line string that does not start with ``{``).  Shared by every
    ``replay`` in this package."""
    if isinstance(source, str):
        text = source.strip()
        if text and "\n" not in source and not text.startswith("{"):
            with open(source) as fp:
                source = fp.read()
        source = source.splitlines()
    for line in source:
        line = line.strip()
        if line:
            yield line


def write_text(destination: Union[str, IO[str]], text: str) -> None:
    """Write ``text`` to a path or an open file (every ``dump``)."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fp:
            fp.write(text)


class AuditLog:
    """Append-only store of audit events with per-``rec_id`` chains."""

    def __init__(self) -> None:
        self._events: List[AuditEvent] = []
        self._chains: Dict[int, List[AuditEvent]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Emission

    def emit(
        self,
        at: float,
        event_type: str,
        database: str,
        rec_id: Optional[int] = None,
        **payload,
    ) -> AuditEvent:
        """Append one event; returns it.

        Raises :class:`~repro.errors.TelemetryError` for event types
        missing from :data:`AUDIT_CATALOG` or payloads that are not
        JSON-serializable, and ``ValueError`` when the payload carries
        customer-data keys.
        """
        if event_type not in AUDIT_CATALOG:
            raise TelemetryError(
                f"audit event type {event_type!r} is not in AUDIT_CATALOG "
                "(src/repro/observability/audit.py)"
            )
        ensure_compliant(payload, f"payload of audit event {event_type!r}")
        try:
            json.dumps(payload)
        except (TypeError, ValueError) as exc:
            raise TelemetryError(
                f"payload of audit event {event_type!r} is not "
                f"JSON-serializable: {exc}"
            ) from exc
        parent_seq = None
        if rec_id is not None and self._chains.get(rec_id):
            parent_seq = self._chains[rec_id][-1].seq
        self._seq += 1
        event = AuditEvent(
            seq=self._seq,
            at=at,
            event_type=event_type,
            database=database,
            rec_id=rec_id,
            parent_seq=parent_seq,
            schema_version=AUDIT_SCHEMA_VERSION,
            payload=payload,
        )
        self._append(event)
        return event

    def _append(self, event: AuditEvent) -> None:
        self._events.append(event)
        if event.rec_id is not None:
            self._chains.setdefault(event.rec_id, []).append(event)

    # ------------------------------------------------------------------
    # Queries

    def events(
        self,
        event_type: Optional[str] = None,
        database: Optional[str] = None,
        rec_id: Optional[int] = None,
    ) -> List[AuditEvent]:
        out = []
        for event in self._events:
            if event_type is not None and event.event_type != event_type:
                continue
            if database is not None and event.database != database:
                continue
            if rec_id is not None and event.rec_id != rec_id:
                continue
            out.append(event)
        return out

    def events_since(self, index: int) -> List[AuditEvent]:
        """Events appended after the first ``index`` (a drain cursor).

        The fleet-parallel layer drains each worker's log once per tick;
        slicing keeps the drain O(delta) instead of O(log).
        """
        return self._events[index:]

    def chain(self, rec_id: int) -> List[AuditEvent]:
        """Every event of one recommendation, in causal order."""
        return list(self._chains.get(rec_id, ()))

    def rec_ids(self, database: Optional[str] = None) -> List[int]:
        """Recommendation ids with at least one event, ascending."""
        if database is None:
            return sorted(self._chains)
        return sorted(
            rec_id
            for rec_id, chain in self._chains.items()
            if chain and chain[0].database == database
        )

    def counts_by_type(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.event_type] = counts.get(event.event_type, 0) + 1
        return counts

    def current_states(self) -> Dict[int, str]:
        """Last known lifecycle state per rec_id, replayed from chains.

        This is the audit stream's answer to
        :meth:`repro.controlplane.store.StateStore.count_by_state` — the
        replay property test asserts the two views agree exactly.
        """
        states: Dict[int, str] = {}
        for rec_id, chain in self._chains.items():
            for event in chain:
                field = _STATE_BEARING.get(event.event_type)
                if field is not None and field in event.payload:
                    states[rec_id] = event.payload[field]
        return states

    def state_counts(self) -> Dict[str, int]:
        """Count of chains currently in each lifecycle state."""
        counts: Dict[str, int] = {}
        for state in self.current_states().values():
            counts[state] = counts.get(state, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Persistence / replay

    def to_jsonl(self) -> str:
        """The whole stream as JSON lines (deterministic)."""
        return "".join(event.to_json_line() + "\n" for event in self._events)

    def dump(self, destination: Union[str, IO[str]]) -> int:
        """Write the stream as JSONL to a path or file object.

        Returns the number of events written.
        """
        write_text(destination, self.to_jsonl())
        return len(self._events)

    @classmethod
    def replay(cls, source: Union[str, Iterable[str]]) -> "AuditLog":
        """Rebuild a log from JSONL text, lines, or a file path.

        Sequence numbers, causal links, and chains are reconstructed
        exactly; emitting into a replayed log continues the sequence.
        """
        log = cls()
        for line in jsonl_lines(source):
            event = AuditEvent.from_json_line(line)
            if event.seq <= log._seq:
                raise TelemetryError(
                    f"audit stream is not append-only: seq {event.seq} "
                    f"after {log._seq}"
                )
            log._seq = event.seq
            log._append(event)
        return log
