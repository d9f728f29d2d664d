"""Virtual-time job scheduling for control-plane micro-services."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import TYPE_CHECKING, Callable, List, Tuple

if TYPE_CHECKING:
    from repro.controlplane.control_plane import ControlPlane


@dataclasses.dataclass
class ScheduledJob:
    """A periodic job: ``callback(plane, at)``, where ``plane`` is the
    control plane :meth:`JobScheduler.run_due` was given."""

    name: str
    callback: Callable[["ControlPlane", float], None]
    period: float
    next_run: float


class JobScheduler:
    """Runs due jobs when the control plane processes a tick.

    Unlike :class:`repro.clock.SimClock` timers, jobs here are durable and
    periodic; the control plane calls :meth:`run_due` with the current
    virtual time (typically right after advancing the workload).  Jobs
    due at the same time fire in the order they were scheduled.  The
    plane passes itself to :meth:`run_due` rather than being closed over
    by the jobs, so the jobs hold no reference back to it.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, ScheduledJob]] = []
        self._counter = itertools.count()

    def schedule(
        self,
        name: str,
        callback: Callable[["ControlPlane", float], None],
        first_run: float,
        period: float,
    ) -> ScheduledJob:
        job = ScheduledJob(
            name=name, callback=callback, period=period, next_run=first_run
        )
        heapq.heappush(self._heap, (first_run, next(self._counter), job))
        return job

    def run_due(self, now: float, plane: "ControlPlane") -> int:
        """Run every job due at or before ``now`` as ``callback(plane,
        now)``; returns the run count.

        Each job is re-armed one period after ``now``.
        """
        executed = 0
        while self._heap and self._heap[0][0] <= now:
            _when, _seq, job = heapq.heappop(self._heap)
            try:
                job.callback(plane, now)
            finally:
                # Also when the callback raises: the job is already off
                # the heap, and a job lost here never runs again.
                job.next_run = now + job.period
                heapq.heappush(
                    self._heap, (job.next_run, next(self._counter), job)
                )
            executed += 1
        return executed
