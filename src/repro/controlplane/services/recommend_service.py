"""Micro-service (a): invoke database analysis and generate recommendations."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError, TransientError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controlplane.control_plane import ControlPlane, ManagedDatabase


class RecommendationService:
    """Drives MI snapshots and analysis sessions per database."""

    def __init__(self, plane: "ControlPlane") -> None:
        self.plane = plane

    def snapshot(self, managed: "ManagedDatabase", now: float) -> None:
        """Periodic MI DMV snapshot (reset tolerance, Section 5.2)."""
        managed.mi.take_snapshot()
        self.plane.telemetry.count_event("mi_snapshot", managed.name)

    def analyze(self, managed: "ManagedDatabase", now: float) -> None:
        """One analysis pass: pick the source by policy and run it."""
        managed.analysis_runs += 1
        decision = self.plane.policy.decide(managed.engine, managed.tier)
        source = decision.source
        telemetry = self.plane.telemetry
        telemetry.audit.emit(
            now,
            "source_selected",
            managed.name,
            source=source,
            rule=decision.rule,
            evidence=decision.evidence,
        )
        span = telemetry.tracer.start(
            "analysis", managed.name, now, source=source
        )
        try:
            # Inside the try: a fault here defers or fails this pass like
            # any other analysis error instead of escaping ``process()``
            # with the scheduler job popped and never re-armed.
            self.plane.faults.check("analyze")
            if source == "DTA":
                recommendations = self.plane.dta_service.run(managed, now)
            else:
                recommendations = managed.mi.recommend()
        except TransientError:
            # Budget exhaustion and friends: the scheduler will try again
            # on the next analysis period; DTA's own cache keeps progress.
            telemetry.tracer.end(span, self.plane.clock.now, outcome="deferred")
            telemetry.registry.counter(
                "analysis_runs_total", database=managed.name, source=source,
                outcome="deferred",
            ).inc()
            self.plane.telemetry.count_event("analysis_deferred", managed.name)
            return
        except ReproError:
            telemetry.tracer.end(span, self.plane.clock.now, outcome="failed")
            telemetry.registry.counter(
                "analysis_runs_total", database=managed.name, source=source,
                outcome="failed",
            ).inc()
            self.plane.telemetry.count_event("analysis_failed", managed.name)
            return
        telemetry.tracer.end(
            span,
            self.plane.clock.now,
            outcome="completed",
            recommendations=len(recommendations),
        )
        telemetry.registry.counter(
            "analysis_runs_total", database=managed.name, source=source,
            outcome="completed",
        ).inc()
        self._audit_analysis(managed, now, source, recommendations)
        if source != "DTA":
            # DTA sessions observe their own (resumable) span duration;
            # MI analyses are instantaneous passes over the DMV snapshots.
            telemetry.registry.histogram(
                "tuning_session_duration_minutes", source=source,
            ).observe(span.duration or 0.0)
        self.plane.telemetry.count_event("analysis_completed", managed.name)
        if recommendations:
            self.plane.register_recommendations(managed, recommendations, now)

    def _audit_analysis(
        self,
        managed: "ManagedDatabase",
        now: float,
        source: str,
        recommendations,
    ) -> None:
        """Record the per-candidate evidence behind one analysis pass."""
        audit = self.plane.telemetry.audit
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
            payload.update(self.plane.dta_service.last_run_info)
        audit.emit(now, "candidates_generated", managed.name, **payload)
        if source != "DTA":
            for decision in managed.mi.last_decisions:
                if decision.get("accepted"):
                    continue
                audit.emit(
                    now,
                    "candidate_rejected",
                    managed.name,
                    source=source,
                    **decision,
                )

    def analyze_drops(self, managed: "ManagedDatabase", now: float) -> None:
        """Long-horizon drop analysis (Section 5.4)."""
        telemetry = self.plane.telemetry
        try:
            self.plane.faults.check("analyze_drops")
            recommendations = managed.drops.recommend()
        except TransientError:
            # As in analyze(): the next drop-analysis period tries again.
            telemetry.count_event("analysis_deferred", managed.name)
            return
        except ReproError:
            telemetry.count_event("analysis_failed", managed.name)
            return
        telemetry.count_event("drop_analysis_completed", managed.name)
        if recommendations:
            self.plane.register_recommendations(managed, recommendations, now)
