"""Micro-service: DTA session management (Section 5.3.3).

Owns session lifecycle at fleet scale: creates sessions with tier-derived
settings, tolerates budget exhaustion by leaving the session resumable
(its what-if cache is retained), aborts sessions that interfere with user
queries, and guarantees terminal states with cleanup.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ResourceBudgetExceededError, SessionAbortedError
from repro.recommender.dta import DtaSession, DtaSettings
from repro.recommender.recommendation import IndexRecommendation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controlplane.control_plane import ControlPlane


class DtaSessionManager:
    """Tracks the database's one live DTA session (the plane is an
    argument)."""

    MAX_BUDGET_DEFERRALS = 8

    def __init__(self) -> None:
        #: The resumable session a budget deferral left behind, if any.
        self._session: Optional[DtaSession] = None
        self._deferrals = 0
        #: Simulated start of the live session; a budget-deferred session
        #: keeps it across analysis periods, so the observed duration is
        #: the true first-start-to-close simulated time.
        self._session_started: Optional[float] = None
        #: What-if evidence of the most recent completed/aborted run —
        #: folded into the ``candidates_generated`` audit event.
        self.last_run_info: dict = {}

    def run(self, plane: "ControlPlane", now: float) -> List[IndexRecommendation]:
        """Run (or resume) a session; raises TransientError on budget."""
        telemetry = plane.telemetry
        session = self._session
        if session is None:
            session = DtaSession(
                plane.engine,
                DtaSettings(tier=plane.tier),
                interference_check=functools.partial(
                    _tuning_interferes, plane.engine
                ),
            )
            self._session = session
            self._deferrals = 0
            self._session_started = now
        try:
            recommendations = session.run()
        except ResourceBudgetExceededError:
            self._deferrals += 1
            telemetry.count_event("dta_budget_exhausted", plane.name)
            if self._deferrals >= self.MAX_BUDGET_DEFERRALS:
                # Give up: clean up and surface an analysis failure.
                self._session = None
                self._observe_duration(plane)
                self.last_run_info = {"session_outcome": "abandoned"}
                telemetry.count_event("dta_abandoned", plane.name)
                return []
            raise  # transient: the next analysis period resumes the session
        except SessionAbortedError:
            self._session = None
            self._observe_duration(plane)
            self.last_run_info = {"session_outcome": "aborted"}
            telemetry.count_event("dta_aborted", plane.name)
            return []
        self._session = None
        whatif_calls = session.whatif.stats.calls
        self.last_run_info = {
            "session_outcome": "completed",
            "whatif_calls": whatif_calls,
            "workload_coverage": session.report.coverage if session.report else 0.0,
        }
        self._observe_duration(plane)
        telemetry.registry.counter(
            "dta_whatif_calls_total", database=plane.name
        ).inc(whatif_calls)
        telemetry.count_event("dta_completed", plane.name)
        return recommendations

    def _observe_duration(self, plane: "ControlPlane") -> None:
        """Close the session's clock: one duration sample per session,
        read off the clock the session's analysis passes advanced."""
        started, self._session_started = self._session_started, None
        plane.telemetry.registry.histogram(
            "tuning_session_duration_minutes", source="DTA",
        ).observe(plane.clock.now - started)


def _tuning_interferes(engine) -> bool:
    """Detect that tuning is slowing user queries (Section 5.3.1).

    Uses the tuning pool's headroom as the interference proxy: a pool
    pushed to its limit while the user pool is busy indicates pressure.
    """
    headroom = engine.governor.tuning.window_headroom(engine.now)
    return headroom is not None and headroom <= 0.0
