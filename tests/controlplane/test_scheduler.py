"""JobScheduler behaviour: periodic cadence and re-arming."""

from __future__ import annotations

import pytest

from repro.controlplane.scheduler import JobScheduler


def test_periodic_job_runs_on_schedule():
    scheduler = JobScheduler()
    runs = []
    plane = object()
    scheduler.schedule(
        "snap", lambda owner, now: runs.append((owner, now)),
        first_run=10.0, period=10.0,
    )
    assert scheduler.run_due(9.0, plane) == 0
    assert scheduler.run_due(10.0, plane) == 1
    assert scheduler.run_due(20.0, plane) == 1
    assert scheduler.run_due(25.0, plane) == 0
    assert runs == [(plane, 10.0), (plane, 20.0)]
    # A late tick fires the job once and re-arms it one period later.
    assert scheduler.run_due(33.0, plane) == 1
    assert scheduler.run_due(40.0, plane) == 0
    assert scheduler.run_due(43.0, plane) == 1
    assert [at for owner, at in runs] == [10.0, 20.0, 33.0, 43.0]


def test_jobs_due_together_fire_in_scheduling_order():
    """Equal due times break ties by scheduling order, also once the jobs
    are re-armed; an earlier due time still fires first."""
    scheduler = JobScheduler()
    plane = object()
    fired = []
    for name in ("snapshot", "analyze", "drops", "health"):
        scheduler.schedule(
            name, lambda plane, now, name=name: fired.append((name, now)),
            first_run=10.0, period=10.0,
        )
    scheduler.schedule(
        "early", lambda plane, now: fired.append(("early", now)),
        first_run=5.0, period=100.0,
    )
    assert scheduler.run_due(10.0, plane) == 5
    assert scheduler.run_due(20.0, plane) == 4
    assert fired == [("early", 10.0)] + [
        (name, at)
        for at in (10.0, 20.0)
        for name in ("snapshot", "analyze", "drops", "health")
    ]


def test_periodic_job_whose_callback_raises_is_rearmed():
    """Regression: ``run_due`` pops the job before calling it, so a
    raising callback used to take a periodic job off the heap for good."""
    scheduler = JobScheduler()
    plane = object()
    runs = []

    def flaky(plane, now: float) -> None:
        runs.append(now)
        if len(runs) == 1:
            raise RuntimeError("boom")

    job = scheduler.schedule("drops", flaky, first_run=10.0, period=10.0)
    with pytest.raises(RuntimeError):
        scheduler.run_due(10.0, plane)
    assert job.next_run == 20.0
    assert scheduler.run_due(20.0, plane) == 1
    assert runs == [10.0, 20.0]
