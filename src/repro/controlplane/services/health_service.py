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
    from repro.controlplane.control_plane import ControlPlane


class HealthService:
    """Periodic per-database health sweep (the plane is an argument)."""

    def check(self, plane: "ControlPlane", now: float) -> None:
        telemetry = plane.telemetry
        audit = telemetry.audit
        threshold = plane.settings.stuck_threshold
        for record in plane.store.all_records():
            if record.terminal:
                continue
            last_change = (
                record.state_history[-1][0] if record.state_history else 0.0
            )
            age = now - last_change
            if age < threshold:
                continue
            if record.state is RecommendationState.RETRY:
                # Known condition: retries stopped being scheduled.
                audit.emit(
                    now,
                    "health_action",
                    plane.name,
                    rec_id=record.rec_id,
                    action="error_stuck_retry",
                    state=record.state.value,
                    age_minutes=age,
                    stuck_threshold_minutes=threshold,
                )
                plane.store.transition(
                    record,
                    RecommendationState.ERROR,
                    now,
                    "health: stuck in retry",
                )
                telemetry.count_event("health_corrected", plane.name)
            elif record.state is RecommendationState.ACTIVE:
                audit.emit(
                    now,
                    "health_action",
                    plane.name,
                    rec_id=record.rec_id,
                    action="expire_stale_active",
                    state=record.state.value,
                    age_minutes=age,
                    stuck_threshold_minutes=threshold,
                )
                plane.store.transition(
                    record,
                    RecommendationState.EXPIRED,
                    now,
                    "health: stale active recommendation",
                )
                telemetry.count_event("health_corrected", plane.name)
            else:
                audit.emit(
                    now,
                    "health_action",
                    plane.name,
                    rec_id=record.rec_id,
                    action="incident_raised",
                    state=record.state.value,
                    age_minutes=age,
                    stuck_threshold_minutes=threshold,
                )
                telemetry.registry.counter(
                    "incidents_total", database=plane.name
                ).inc()
                telemetry.count_event("incident", plane.name)
