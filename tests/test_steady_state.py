"""Long-horizon scenario: databases reach a steady state; drift reopens work.

Section 8.1: "we observe many databases reach a steady state with only
occasional new index recommendations generated for them" — and the paper's
motivation (Section 1.1) calls for continuous tuning because workloads
drift.  This scenario runs one database for two simulated weeks: after the
first week of tuning, new create-recommendations should taper off; turning
on workload drift afterwards reopens recommendation activity.
"""

from __future__ import annotations

import pytest

from repro.clock import DAYS, HOURS, SimClock
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlane,
    ControlPlaneSettings,
)
from repro.recommender.recommendation import Action
from repro.workload import make_profile


@pytest.mark.slow
def test_steady_state_then_drift_reopens_recommendations():
    clock = SimClock()
    profile = make_profile("steady", seed=47, tier="standard", clock=clock)
    plane = ControlPlane(
        clock,
        profile.name,
        profile.engine,
        tier="standard",
        config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
        settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
    )

    def run_days(days: float) -> None:
        steps = int(days * 12)
        for _ in range(steps):
            profile.workload.run(profile.engine, hours=2, max_statements=70)
            plane.process()

    def creates_since(cutoff: float) -> int:
        return sum(
            1
            for r in plane.store.all_records()
            if r.recommendation.action is Action.CREATE
            and r.recommendation.created_at >= cutoff
        )

    run_days(6)
    first_week = creates_since(0.0)
    assert first_week > 0, "tuning never started"

    settle_start = clock.now
    run_days(4)
    steady = creates_since(settle_start)
    # Steady state: far fewer new recommendations than the initial burst.
    assert steady <= max(2, first_week // 2), (
        f"no steady state: {steady} new creates vs initial {first_week}"
    )

    # Now the workload drifts hard: template weights shift over days.
    profile.workload.drift_rate = 0.9
    drift_start = clock.now
    run_days(5)
    after_drift = creates_since(drift_start)
    assert after_drift >= steady, (
        "drift should reopen recommendation activity "
        f"(steady={steady}, after drift={after_drift})"
    )
