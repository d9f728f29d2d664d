"""Micro-service: DTA session management (Section 5.3.3).

Owns session lifecycle at fleet scale: creates sessions with tier-derived
settings, tolerates budget exhaustion by leaving the session resumable
(its what-if cache is retained), aborts sessions that interfere with user
queries, and guarantees terminal states with cleanup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.errors import ResourceBudgetExceededError, SessionAbortedError
from repro.observability.spans import Span
from repro.recommender.dta import DtaSession, DtaSettings
from repro.recommender.recommendation import IndexRecommendation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controlplane.control_plane import ControlPlane, ManagedDatabase


class DtaSessionManager:
    """Tracks at most one live DTA session per database."""

    MAX_BUDGET_DEFERRALS = 8

    def __init__(self, plane: "ControlPlane") -> None:
        self.plane = plane
        self._sessions: Dict[str, DtaSession] = {}
        self._deferrals: Dict[str, int] = {}
        #: Open telemetry span per resumable session; a budget-deferred
        #: session keeps its span open across analysis periods, so the
        #: recorded duration is the true wall-to-wall simulated time.
        self._session_spans: Dict[str, Span] = {}
        #: What-if evidence of the most recent completed/aborted run —
        #: folded into the ``candidates_generated`` audit event.
        self.last_run_info: dict = {}

    def settings_for(self, managed: "ManagedDatabase") -> DtaSettings:
        return DtaSettings(tier=managed.tier)

    def run(self, managed: "ManagedDatabase", now: float) -> List[IndexRecommendation]:
        """Run (or resume) a session; raises TransientError on budget."""
        telemetry = self.plane.telemetry
        session = self._sessions.get(managed.name)
        if session is None:
            session = DtaSession(
                managed.engine,
                self.settings_for(managed),
                interference_check=lambda: self._interfering(managed),
            )
            self._sessions[managed.name] = session
            self._deferrals[managed.name] = 0
            self._session_spans[managed.name] = telemetry.tracer.start(
                "dta_session", managed.name, now, source="DTA",
                tier=managed.tier,
            )
        try:
            recommendations = session.run()
        except ResourceBudgetExceededError:
            self._deferrals[managed.name] += 1
            self.plane.telemetry.count_event("dta_budget_exhausted", managed.name)
            if self._deferrals[managed.name] >= self.MAX_BUDGET_DEFERRALS:
                # Give up: clean up and surface an analysis failure.
                del self._sessions[managed.name]
                self._close_session_span(managed, now, "abandoned")
                self.last_run_info = {"session_outcome": "abandoned"}
                self.plane.telemetry.count_event("dta_abandoned", managed.name)
                return []
            raise  # transient: the next analysis period resumes the session
        except SessionAbortedError:
            del self._sessions[managed.name]
            self._close_session_span(managed, now, "aborted")
            self.last_run_info = {"session_outcome": "aborted"}
            self.plane.telemetry.count_event("dta_aborted", managed.name)
            return []
        managed.dta_sessions += 1
        del self._sessions[managed.name]
        whatif_calls = session.whatif.stats.calls
        self.last_run_info = {
            "session_outcome": "completed",
            "whatif_calls": whatif_calls,
            "workload_coverage": session.report.coverage if session.report else 0.0,
        }
        self._close_session_span(
            managed, now, "completed", whatif_calls=whatif_calls
        )
        telemetry.registry.counter(
            "dta_whatif_calls_total", database=managed.name
        ).inc(whatif_calls)
        self.plane.telemetry.count_event("dta_completed", managed.name)
        return recommendations

    def _close_session_span(
        self, managed: "ManagedDatabase", now: float, outcome: str, **attributes
    ) -> None:
        span = self._session_spans.pop(managed.name, None)
        if span is None:
            return
        self.plane.telemetry.tracer.end(span, now, outcome=outcome, **attributes)
        self.plane.telemetry.registry.histogram(
            "tuning_session_duration_minutes", source="DTA",
        ).observe(span.duration or 0.0)

    def _interfering(self, managed: "ManagedDatabase") -> bool:
        """Detect that tuning is slowing user queries (Section 5.3.1).

        Uses the tuning pool's headroom as the interference proxy: a pool
        pushed to its limit while the user pool is busy indicates pressure.
        """
        headroom = managed.engine.governor.tuning.window_headroom(
            managed.engine.now
        )
        return headroom is not None and headroom <= 0.0
