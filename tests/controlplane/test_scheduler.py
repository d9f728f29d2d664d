"""JobScheduler behaviour, including the disabled-job regression.

The original ``run_due`` popped a due job off the heap and, if it was
disabled, simply dropped it — a periodic job for a paused database was
gone forever, so re-enabling automation never resumed analysis.  These
tests pin the fixed semantics: disabled jobs are skipped but kept.
"""

from __future__ import annotations

import pytest

from repro.controlplane.scheduler import JobScheduler


def test_periodic_job_runs_on_schedule():
    scheduler = JobScheduler()
    runs = []
    scheduler.schedule("snap", runs.append, first_run=10.0, period=10.0)
    assert scheduler.run_due(9.0) == 0
    assert scheduler.run_due(10.0) == 1
    assert scheduler.run_due(20.0) == 1
    assert scheduler.run_due(25.0) == 0
    assert runs == [10.0, 20.0]


def test_disabled_periodic_job_survives_and_resumes():
    """Regression: a disabled periodic job must fire again once re-enabled
    — previously it was popped and never re-pushed."""
    scheduler = JobScheduler()
    runs = []
    job = scheduler.schedule("snap", runs.append, first_run=10.0, period=10.0)
    scheduler.run_due(10.0)
    assert runs == [10.0]

    scheduler.disable("snap")
    assert scheduler.run_due(40.0) == 0
    assert runs == [10.0], "disabled job must not execute"

    scheduler.enable("snap")
    assert scheduler.run_due(60.0) == 1
    assert runs == [10.0, 60.0]
    # And it keeps its periodic cadence afterwards.
    assert scheduler.run_due(70.0) == 1
    assert job.runs == 3


def test_disabled_job_rearmed_one_period_out_while_disabled():
    """While disabled, a due periodic job is re-armed (not busy-polled):
    its next_run advances one period past the tick that skipped it."""
    scheduler = JobScheduler()
    runs = []
    job = scheduler.schedule("snap", runs.append, first_run=10.0, period=10.0)
    scheduler.disable("snap")
    scheduler.run_due(10.0)
    assert job.next_run == 20.0
    scheduler.run_due(25.0)
    assert job.next_run == 35.0
    assert runs == []


def test_disabled_one_shot_parked_until_enabled():
    scheduler = JobScheduler()
    runs = []
    scheduler.schedule("once", runs.append, first_run=5.0)
    scheduler.disable("once")
    assert scheduler.run_due(10.0) == 0
    assert runs == []
    # Still parked: later ticks don't fire it while disabled.
    assert scheduler.run_due(20.0) == 0

    scheduler.enable("once")
    assert scheduler.run_due(30.0) == 1
    assert runs == [30.0]
    # One-shot: it does not fire again.
    assert scheduler.run_due(40.0) == 0


def test_enable_is_idempotent_for_running_jobs():
    scheduler = JobScheduler()
    runs = []
    scheduler.schedule("snap", runs.append, first_run=10.0, period=10.0)
    scheduler.enable("snap")
    scheduler.enable("snap")
    assert scheduler.run_due(10.0) == 1
    assert runs == [10.0]


def test_periodic_job_whose_callback_raises_is_rearmed():
    """Regression: ``run_due`` pops the job before calling it, so a
    raising callback used to take a periodic job off the heap for good."""
    scheduler = JobScheduler()
    runs = []

    def flaky(now: float) -> None:
        runs.append(now)
        if len(runs) == 1:
            raise RuntimeError("boom")

    job = scheduler.schedule("drops", flaky, first_run=10.0, period=10.0)
    with pytest.raises(RuntimeError):
        scheduler.run_due(10.0)
    assert job.runs == 0, "a failed call is not a run"
    assert job.next_run == 20.0
    assert scheduler.run_due(20.0) == 1
    assert runs == [10.0, 20.0]
