"""Ownership is a tree: reference counting alone frees what is dropped.

No object stores its owner (a table's column cache, a control plane's
services, scheduler jobs and store hooks get their owner as a call
argument), so the last strong reference to a fleet, an engine, a table
or a B-instance frees it at once, with no help from the cyclic
collector.  Each case runs one of the program's own set-ups with the
collector disabled, watches every ``SqlEngine``, ``Table`` and
``ControlPlane`` it made, and checks all of them are gone the moment
the set-up is dropped.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiment import compare
from repro.experiment.binstance import BInstance
from repro.experiment.compare import _run_phase
from repro.recommender.dta import DtaSession, DtaSessionState, DtaSettings
from repro.service import ServiceSettings, build_service
from repro.workload import make_profile
from tests.engine.test_optimizer import perfect_engine
from tests.recommender.test_dta import GROUPBY, HOT, JOINQ, ORDERED, warm_workload


@pytest.fixture(scope="module")
def profile():
    # The profile tests/experiment/test_experiment.py builds, so the
    # B-instance and phase cases check the data their assertions were
    # written for.
    p = make_profile("exp-test", seed=8, tier="standard", archetype="saas_invoicing")
    p.workload.run(p.engine, hours=2, max_statements=150)
    return p


@pytest.fixture
def no_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def fleet_after_one_tick(watch, request):
    service = build_service(
        2, tier="standard", seed=11,
        service_settings=ServiceSettings(max_statements_per_step=40),
    )
    service.run(1.0)
    for name in service.database_names:
        plane = service.database_plane(name)
        watch(plane.engine, plane)
    return service


def dta_session_over_a_filled_query_store(watch, request):
    request.getfixturevalue("noiseless")
    eng = perfect_engine(seed=77)
    warm_workload(eng, [HOT, GROUPBY, ORDERED, JOINQ])
    session = DtaSession(eng, DtaSettings(tier="premium"))
    recommendations = session.run()
    assert session.state is DtaSessionState.COMPLETED
    assert recommendations
    assert all(r.source == "DTA" for r in recommendations)
    assert session.report is not None
    assert session.report.coverage > 0.5
    watch(eng)
    return session


def binstance_after_replay(watch, request):
    profile = request.getfixturevalue("profile")
    b = BInstance(profile.engine, "b2")
    recording = profile.workload.generate_recording(
        start=b.engine.now, hours=1, max_statements=50
    )
    report = b.replay(recording)
    assert report.executed > 30
    assert b.engine.query_store.queries()
    watch(b.engine)
    return b


def comparison_phase(watch, request):
    """``_run_phase`` drops its B-instance before it returns."""
    profile = request.getfixturevalue("profile")

    class WatchedBInstance(BInstance):
        def replay(self, recording):
            report = super().replay(recording)
            watch(self.engine)
            return report

    monkeypatch = request.getfixturevalue("monkeypatch")
    monkeypatch.setattr(compare, "BInstance", WatchedBInstance)
    monkeypatch.setattr(compare, "PHASE_HOURS", 1)
    recording = profile.workload.generate_recording(
        start=profile.engine.now, hours=1, max_statements=60
    )
    stats = _run_phase(profile, "t", [], [], recording)
    assert stats
    assert all(entry["executions"] >= 1 for entry in stats.values())
    return stats


@pytest.mark.parametrize(
    "scenario",
    [
        fleet_after_one_tick,
        dta_session_over_a_filled_query_store,
        binstance_after_replay,
        comparison_phase,
    ],
    ids=["fleet", "dta", "binstance", "phase"],
)
def test_dropped_set_up_is_freed_by_reference_counting(
    scenario, request, no_cyclic_collector
):
    refs = []

    def watch(engine, *planes):
        owned = (*planes, engine, *engine.database.tables.values())
        refs.extend(weakref.ref(obj) for obj in owned)

    root = scenario(watch, request)
    assert refs
    del root
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert alive == []
