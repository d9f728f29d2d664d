"""Scheduling implementations during low-activity periods (§6, §8.2)."""

from __future__ import annotations

import pytest

from repro.clock import HOURS, SimClock
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlane,
    RecommendationState,
    control_plane,
)
from tests.controlplane.test_services import make_recommendation
from repro.workload import make_profile


def build(monkeypatch, low_activity_hours=(22, 6)):
    """A plane that implements only inside ``low_activity_hours``
    (None: at any hour)."""
    monkeypatch.setattr(control_plane, "LOW_ACTIVITY_HOURS", low_activity_hours)
    clock = SimClock()
    profile = make_profile("low-act", seed=71, tier="standard", clock=clock)
    plane = ControlPlane(
        clock,
        profile.name,
        profile.engine,
        tier="standard",
        config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
    )
    return clock, profile, plane


class TestWindow:
    def test_window_open_detection_wrapping(self, monkeypatch):
        clock, profile, plane = build(monkeypatch, low_activity_hours=(22, 6))
        clock.advance(23 * HOURS)  # 23:00
        assert plane._implementation_window_open(clock.now)
        clock.advance(4 * HOURS)  # 03:00
        assert plane._implementation_window_open(clock.now)
        clock.advance(9 * HOURS)  # 12:00
        assert not plane._implementation_window_open(clock.now)

    def test_window_open_detection_non_wrapping(self, monkeypatch):
        clock, profile, plane = build(monkeypatch, low_activity_hours=(2, 5))
        clock.advance(3 * HOURS)
        assert plane._implementation_window_open(clock.now)
        clock.advance(3 * HOURS)
        assert not plane._implementation_window_open(clock.now)

    def test_daytime_recommendation_waits_for_night(self, monkeypatch):
        clock, profile, plane = build(monkeypatch)
        clock.advance(10 * HOURS)  # 10:00 — busy hours
        record = plane.store.insert(
            profile.name, make_recommendation(profile), clock.now
        )
        plane.process()
        assert record.state is RecommendationState.ACTIVE  # deferred
        clock.advance(13 * HOURS)  # 23:00 — low activity
        plane.process()
        assert record.state in (
            RecommendationState.IMPLEMENTING,
            RecommendationState.VALIDATING,
        )

    def test_disabled_window_implements_immediately(self, monkeypatch):
        clock, profile, plane = build(monkeypatch, low_activity_hours=None)
        clock.advance(10 * HOURS)
        record = plane.store.insert(
            profile.name, make_recommendation(profile), clock.now
        )
        plane.process()
        assert record.state is not RecommendationState.ACTIVE
