"""``repro explain``: a human-readable decision timeline for one record.

Reads one chronological view of a recommendation's life off the audit
stream — decision evidence, every state change, and the phase timings
derived from those state changes — so an engineer can answer the
paper's trust question: *why* did the service create, validate, and
possibly revert this index (Sections 2, 6, 8)?

The audit stream is the only source, so a replayed JSONL file
(``repro explain --audit``) explains exactly like the live run.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional

from repro.observability.audit import AuditEvent, AuditLog


@dataclasses.dataclass
class TimelineEntry:
    """One step of the decision timeline."""

    at: float  # simulated minutes
    source: str  # "audit" | "span" | "fleet"
    title: str
    details: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Phase:
    """One stay of a record in a non-terminal state, read off its chain."""

    name: str
    start: float  # simulated minutes
    end: Optional[float] = None
    #: The state the record moved to when the phase closed.
    outcome: str = ""

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        """Simulated minutes from start to end; None while still open."""
        return None if self.end is None else self.end - self.start


#: Phase name of each non-terminal state; a state missing here is
#: terminal and opens no phase.
PHASE_NAMES = {
    "active": "recommend",
    "implementing": "implement",
    "validating": "validate",
    "reverting": "revert",
    "retry": "retry",
}

#: Fleet-scope event types (``rec_id=None``) joined into a record's
#: timeline when they fire inside its lifetime: alerts opening/closing
#: and telemetry anomalies are the ambient context a decision ran in.
_FLEET_EVENT_TYPES = ("alert_raised", "alert_resolved", "telemetry_anomaly")


def _fmt_t(minutes: float) -> str:
    if minutes >= 1440.0:
        return f"t+{minutes / 1440.0:.1f}d"
    if minutes >= 60.0:
        return f"t+{minutes / 60.0:.1f}h"
    return f"t+{minutes:.1f}m"


def _fmt_val(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _payload_summary(payload: dict, skip=("statements",)) -> str:
    # Sorted keys: a replayed dump's payloads come back in the dump's
    # sorted order, the live ones in emission order.
    parts = [
        f"{key}={_fmt_val(value)}"
        for key, value in sorted(payload.items())
        if key not in skip and not isinstance(value, (dict, list))
    ]
    return " ".join(parts)


def _welch_lines(statements: List[dict]) -> List[str]:
    """Per-statement Welch t-test evidence, one line per metric."""
    lines: List[str] = []
    for statement in statements:
        lines.append(
            f"query {statement['query_id']}: {statement['verdict']} "
            f"(share {statement.get('resource_share', 0.0):.1%}, "
            f"n={statement.get('executions_before', '?')}->"
            f"{statement.get('executions_after', '?')})"
        )
        for metric, test in sorted(statement.get("tests", {}).items()):
            relative = test.get("relative_change")
            rel_text = f"{relative:+.1%}" if relative is not None else "inf"
            lines.append(
                f"  {metric}: mean {test['mean_before']:.4g} -> "
                f"{test['mean_after']:.4g} ({rel_text}), "
                f"t={test['t_statistic']:.2f}, "
                f"dof={test['degrees_of_freedom']:.1f}, "
                f"p={test['p_value']:.3g}"
            )
    return lines


def _audit_entry(event: AuditEvent) -> TimelineEntry:
    payload = event.payload
    details: List[str] = []
    summary = _payload_summary(payload)
    title = f"[audit] {event.event_type}"
    if summary:
        title = f"{title}  {summary}"
    if event.event_type == "validation_completed":
        details.extend(_welch_lines(payload.get("statements", [])))
    elif event.event_type == "revert_decided":
        triggers = payload.get("trigger_query_ids", [])
        if triggers:
            details.append(
                "triggering statements: "
                + ", ".join(str(q) for q in triggers)
            )
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            details.append(f"{key}: {_payload_summary(value)}")
    return TimelineEntry(at=event.at, source="audit", title=title, details=details)


def lifecycle_phases(chain: Iterable[AuditEvent]) -> List[Phase]:
    """A record's state phases, in visit order, derived from its chain.

    ``recommendation_registered`` opens the first phase; each
    ``state_changed`` closes the open phase with the state entered as
    its outcome and, unless that state is terminal, opens the next.
    """
    phases: List[Phase] = []
    for event in chain:
        if event.event_type == "recommendation_registered":
            state = event.payload.get("state")
        elif event.event_type == "state_changed":
            state = event.payload.get("to_state")
            if phases and phases[-1].open:
                phases[-1].end = event.at
                phases[-1].outcome = state
        else:
            continue
        if state in PHASE_NAMES:
            phases.append(Phase(name=PHASE_NAMES[state], start=event.at))
    return phases


def decision_index(audit: AuditLog, database: str) -> List[dict]:
    """One summary row per recommendation chain of ``database``."""
    rows = []
    for rec_id in audit.rec_ids(database):
        chain = audit.chain(rec_id)
        state = None
        for event in chain:
            if event.event_type == "recommendation_registered":
                state = event.payload.get("state", state)
            elif event.event_type == "state_changed":
                state = event.payload.get("to_state", state)
        head = chain[0]
        rows.append(
            {
                "rec_id": rec_id,
                "state": state or "?",
                "events": len(chain),
                "first_at": head.at,
                "last_at": chain[-1].at,
                "action": head.payload.get("action", "?"),
                "source": head.payload.get("source", "?"),
            }
        )
    return rows


def build_timeline(
    audit: AuditLog, database: str, rec_id: int
) -> List[TimelineEntry]:
    """The chronologically sorted timeline for one record.

    The record's chain gives its audit lines and, through
    :func:`lifecycle_phases`, one ``[span]`` line per state phase;
    fleet-scope alert/anomaly events carry no rec_id, so they join by
    *time* — any that fired within the record's first-to-last audit
    window appear as ``[fleet]`` context lines.
    """
    entries: List[TimelineEntry] = []
    chain = [e for e in audit.chain(rec_id) if e.database == database]
    for event in chain:
        entries.append(_audit_entry(event))
    if chain:
        first = chain[0].at
        last = chain[-1].at
        for event in audit.events():
            if event.rec_id is not None:
                continue
            if event.event_type not in _FLEET_EVENT_TYPES:
                continue
            if not first <= event.at <= last:
                continue
            summary = _payload_summary(event.payload)
            title = f"[fleet] {event.event_type}"
            if summary:
                title = f"{title}  {summary}"
            entries.append(
                TimelineEntry(at=event.at, source="fleet", title=title)
            )
    for phase in lifecycle_phases(chain):
        duration = "open" if phase.open else f"{phase.duration:.1f}m"
        entries.append(
            TimelineEntry(
                at=phase.start,
                source="span",
                title=(
                    f"[span] {phase.name} {duration}"
                    + (f" -> {phase.outcome}" if phase.outcome else "")
                ),
            )
        )
    # Stable order: by time, audit evidence before phase timings before
    # ambient fleet context at equal timestamps.
    source_rank = {"audit": 0, "span": 1, "fleet": 2}
    entries.sort(key=lambda e: (e.at, source_rank[e.source]))
    return entries


def render_explain(audit: AuditLog, database: str, rec_id: int) -> List[str]:
    """The printable ``repro explain <db> <rec-id>`` output."""
    chain = audit.chain(rec_id)
    chain = [e for e in chain if e.database == database]
    lines = [f"== decision provenance: {database} / recommendation {rec_id} =="]
    if not chain:
        lines.append(
            f"(no audit events recorded for recommendation {rec_id} "
            f"on {database})"
        )
        known = audit.rec_ids(database)
        if known:
            lines.append(
                "known recommendation ids: "
                + ", ".join(str(r) for r in known)
            )
        return lines
    head = chain[0]
    registered = next(
        (e for e in chain if e.event_type == "recommendation_registered"), head
    )
    what = _payload_summary(registered.payload)
    if what:
        lines.append(f"recommendation: {what}")
    for entry in build_timeline(audit, database, rec_id):
        lines.append(f"  {_fmt_t(entry.at):>9}  {entry.title}")
        for detail in entry.details:
            lines.append(f"{'':>13}{detail}")
    return lines


def render_index(audit: AuditLog, database: str) -> List[str]:
    """The printable per-database decision index (no rec-id given)."""
    rows = decision_index(audit, database)
    lines = [f"== decisions recorded for {database} =="]
    if not rows:
        lines.append("(no recommendation decisions recorded)")
        return lines
    lines.append(
        f"  {'rec':>4}  {'state':<13} {'action':<7} {'source':<14} "
        f"{'events':>6}  first..last"
    )
    for row in rows:
        lines.append(
            f"  {row['rec_id']:>4}  {row['state']:<13} {row['action']:<7} "
            f"{row['source']:<14} {row['events']:>6}  "
            f"{_fmt_t(row['first_at'])}..{_fmt_t(row['last_at'])}"
        )
    return lines
