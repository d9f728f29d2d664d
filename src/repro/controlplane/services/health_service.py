"""Micro-service (d): detect issues and take corrective action (Section 4).

Well-known stuck conditions are processed automatically (stale ACTIVE
records expire, records stuck in RETRY past their horizon error out);
anything else raises an incident for on-call engineers — an audit event
that :func:`~repro.controlplane.control_plane.incidents_from_audit`
reads back as an ``Incident``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controlplane.states import RecommendationState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controlplane.control_plane import ControlPlane, ManagedDatabase


class HealthService:
    """Periodic per-database health sweep."""

    def __init__(self, plane: "ControlPlane") -> None:
        self.plane = plane

    def check(self, managed: "ManagedDatabase", now: float) -> None:
        threshold = self.plane.settings.stuck_threshold
        for record in self.plane.store.records_for(database=managed.name):
            if record.terminal:
                continue
            last_change = (
                record.state_history[-1][0] if record.state_history else 0.0
            )
            age = now - last_change
            if age < threshold:
                continue
            audit = self.plane.telemetry.audit
            if record.state is RecommendationState.RETRY:
                # Known condition: retries stopped being scheduled.
                audit.emit(
                    now,
                    "health_action",
                    managed.name,
                    rec_id=record.rec_id,
                    action="error_stuck_retry",
                    state=record.state.value,
                    age_minutes=age,
                    stuck_threshold_minutes=threshold,
                )
                self.plane.store.transition(
                    record,
                    RecommendationState.ERROR,
                    now,
                    "health: stuck in retry",
                )
                self.plane.telemetry.count_event("health_corrected", managed.name)
            elif record.state is RecommendationState.ACTIVE:
                audit.emit(
                    now,
                    "health_action",
                    managed.name,
                    rec_id=record.rec_id,
                    action="expire_stale_active",
                    state=record.state.value,
                    age_minutes=age,
                    stuck_threshold_minutes=threshold,
                )
                self.plane.store.transition(
                    record,
                    RecommendationState.EXPIRED,
                    now,
                    "health: stale active recommendation",
                )
                self.plane.telemetry.count_event("health_corrected", managed.name)
            else:
                audit.emit(
                    now,
                    "health_action",
                    managed.name,
                    rec_id=record.rec_id,
                    action="incident_raised",
                    state=record.state.value,
                    age_minutes=age,
                    stuck_threshold_minutes=threshold,
                )
                self.plane.telemetry.registry.counter(
                    "incidents_total", database=managed.name
                ).inc()
                self.plane.telemetry.count_event("incident", managed.name)
