"""Virtual-time job scheduling for control-plane micro-services."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Callable, List, Optional, Tuple


@dataclasses.dataclass
class ScheduledJob:
    """A (possibly periodic) job."""

    name: str
    callback: Callable[[float], None]
    period: Optional[float]
    next_run: float
    enabled: bool = True
    runs: int = 0


class JobScheduler:
    """Runs due jobs when the control plane processes a tick.

    Unlike :class:`repro.clock.SimClock` timers, jobs here are durable and
    periodic; the control plane calls :meth:`run_due` with the current
    virtual time (typically right after advancing the workload).
    """

    def __init__(self) -> None:
        self._jobs: List[ScheduledJob] = []
        self._heap: List[Tuple[float, int, ScheduledJob]] = []
        self._counter = itertools.count()
        #: Disabled one-shot jobs pulled off the heap; re-armed by
        #: :meth:`enable` (periodic jobs stay in the heap while disabled).
        self._parked: List[ScheduledJob] = []

    def schedule(
        self,
        name: str,
        callback: Callable[[float], None],
        first_run: float,
        period: Optional[float] = None,
    ) -> ScheduledJob:
        job = ScheduledJob(
            name=name, callback=callback, period=period, next_run=first_run
        )
        self._jobs.append(job)
        heapq.heappush(self._heap, (first_run, next(self._counter), job))
        return job

    def run_due(self, now: float) -> int:
        """Run every job due at or before ``now``; returns the run count.

        Disabled jobs are *skipped, not dropped*: a periodic job is
        re-armed one period out (so re-enabling it fires on the next due
        tick), and a one-shot job is parked until :meth:`enable` re-arms
        it.  Dropping them permanently was a bug — a database whose
        automation was paused and later resumed would never be analyzed
        again.
        """
        executed = 0
        while self._heap and self._heap[0][0] <= now:
            _when, _seq, job = heapq.heappop(self._heap)
            if not job.enabled:
                if job.period is not None:
                    self._rearm(job, now)
                else:
                    self._parked.append(job)
                continue
            try:
                job.callback(now)
            finally:
                # Also when the callback raises: the job is already off
                # the heap, and a periodic job lost here never runs again.
                if job.period is not None:
                    self._rearm(job, now)
            job.runs += 1
            executed += 1
        return executed

    def _rearm(self, job: ScheduledJob, now: float) -> None:
        job.next_run = now + job.period
        heapq.heappush(self._heap, (job.next_run, next(self._counter), job))

    def enable(self, name: str) -> None:
        """Re-enable jobs named ``name``; parked one-shots are re-armed."""
        for job in self._jobs:
            if job.name == name:
                job.enabled = True
        still_parked = []
        for job in self._parked:
            if job.name == name:
                heapq.heappush(
                    self._heap, (job.next_run, next(self._counter), job)
                )
            else:
                still_parked.append(job)
        self._parked = still_parked

    def disable(self, name: str) -> None:
        """Disable jobs named ``name`` (they stop firing but are kept)."""
        for job in self._jobs:
            if job.name == name:
                job.enabled = False

    def jobs(self) -> List[ScheduledJob]:
        return list(self._jobs)
