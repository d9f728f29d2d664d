"""Micro-service (a): invoke database analysis and generate recommendations."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError, TransientError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controlplane.control_plane import ControlPlane


class RecommendationService:
    """Drives the database's MI snapshots and analysis sessions.

    Keeps no reference to its plane: every method takes it as an
    argument.
    """

    def snapshot(self, plane: "ControlPlane", now: float) -> None:
        """Periodic MI DMV snapshot (reset tolerance, Section 5.2)."""
        plane.mi.take_snapshot()
        plane.telemetry.count_event("mi_snapshot", plane.name)

    def analyze(self, plane: "ControlPlane", now: float) -> None:
        """One analysis pass: pick the source by policy and run it."""
        decision = plane.policy.decide(plane.engine, plane.tier)
        source = decision.source
        telemetry = plane.telemetry
        telemetry.audit.emit(
            now,
            "source_selected",
            plane.name,
            source=source,
            rule=decision.rule,
            evidence=decision.evidence,
        )
        try:
            # Inside the try: a fault here defers or fails this pass like
            # any other analysis error instead of escaping ``process()``
            # with the scheduler job popped and never re-armed.
            plane.faults.check("analyze")
            if source == "DTA":
                recommendations = plane.dta_service.run(plane, now)
            else:
                recommendations = plane.mi.recommend()
        except TransientError:
            # Budget exhaustion and friends: the scheduler will try again
            # on the next analysis period; DTA's own cache keeps progress.
            telemetry.registry.counter(
                "analysis_runs_total", database=plane.name, source=source,
                outcome="deferred",
            ).inc()
            telemetry.count_event("analysis_deferred", plane.name)
            return
        except ReproError:
            telemetry.registry.counter(
                "analysis_runs_total", database=plane.name, source=source,
                outcome="failed",
            ).inc()
            telemetry.count_event("analysis_failed", plane.name)
            return
        telemetry.registry.counter(
            "analysis_runs_total", database=plane.name, source=source,
            outcome="completed",
        ).inc()
        self._audit_analysis(plane, now, source, recommendations)
        if source != "DTA":
            # DTA sessions observe their own (resumable) duration; MI
            # analyses are instantaneous passes over the DMV snapshots.
            telemetry.registry.histogram(
                "tuning_session_duration_minutes", source=source,
            ).observe(plane.clock.now - now)
        telemetry.count_event("analysis_completed", plane.name)
        if recommendations:
            plane.register_recommendations(recommendations, now)

    def _audit_analysis(
        self, plane: "ControlPlane", now: float, source: str, recommendations
    ) -> None:
        """Record the per-candidate evidence behind one analysis pass."""
        audit = plane.telemetry.audit
        candidates = [
            {
                "table": rec.table,
                "key_columns": list(rec.key_columns),
                "action": rec.action.value,
                "estimated_improvement_pct": rec.estimated_improvement_pct,
                "estimated_size_bytes": rec.estimated_size_bytes,
            }
            for rec in recommendations
        ]
        payload = {
            "source": source,
            "recommendations": len(recommendations),
            "candidates": candidates,
        }
        if source == "DTA":
            payload.update(plane.dta_service.last_run_info)
        audit.emit(now, "candidates_generated", plane.name, **payload)
        if source != "DTA":
            for decision in plane.mi.last_decisions:
                if decision.get("accepted"):
                    continue
                audit.emit(
                    now,
                    "candidate_rejected",
                    plane.name,
                    source=source,
                    **decision,
                )

    def analyze_drops(self, plane: "ControlPlane", now: float) -> None:
        """Long-horizon drop analysis (Section 5.4)."""
        telemetry = plane.telemetry
        try:
            plane.faults.check("analyze_drops")
            recommendations = plane.drops.recommend()
        except TransientError:
            # As in analyze(): the next drop-analysis period tries again.
            telemetry.count_event("analysis_deferred", plane.name)
            return
        except ReproError:
            telemetry.count_event("analysis_failed", plane.name)
            return
        telemetry.count_event("drop_analysis_completed", plane.name)
        if recommendations:
            plane.register_recommendations(recommendations, now)
