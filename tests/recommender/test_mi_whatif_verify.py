"""Tests for the MI what-if verification extension (Section 10 direction)."""

from __future__ import annotations

import pytest

from repro.controlplane import ControlPlane
from repro.engine import InsertQuery, Op, Predicate, SelectQuery
from repro.engine.engine import WHATIF_CALL_CPU_MS
from repro.recommender import MiRecommender, MiRecommenderSettings
from tests.engine.test_optimizer import perfect_engine
from tests.recommender.test_mi_recommender import SELECTIVE, run_and_snapshot

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


def test_verified_pipeline_keeps_good_candidates():
    eng = perfect_engine(seed=131)
    settings = MiRecommenderSettings(verify_with_whatif=True)
    mi = MiRecommender(eng, settings)
    run_and_snapshot(eng, mi, SELECTIVE)
    recs = mi.recommend()
    assert len(recs) == 1
    assert recs[0].key_columns == ("o_cust",)


def test_verification_costs_whatif_calls():
    eng = perfect_engine(seed=132)
    settings = MiRecommenderSettings(verify_with_whatif=True)
    mi = MiRecommender(eng, settings)
    run_and_snapshot(eng, mi, SELECTIVE)
    before = eng.governor.tuning.usage.cpu_ms
    mi.recommend()
    assert eng.governor.tuning.usage.cpu_ms > before


def test_unverified_pipeline_is_free():
    eng = perfect_engine(seed=133)
    mi = MiRecommender(eng, MiRecommenderSettings(verify_with_whatif=False))
    run_and_snapshot(eng, mi, SELECTIVE)
    before = eng.governor.tuning.usage.cpu_ms
    mi.recommend()
    assert eng.governor.tuning.usage.cpu_ms == before


def test_verification_vetoes_write_dominated_candidate():
    """A candidate whose only effect is slowing hot writes is dropped."""
    eng = perfect_engine(seed=134)
    mi = MiRecommender(eng, MiRecommenderSettings(verify_with_whatif=True, min_seeks=3))
    # Few cheap reads wanting an index + a dominant write stream on the
    # same table: the verification sees no top-statement read gain.
    read = SelectQuery("orders", ("o_amount",), (Predicate("o_note", Op.EQ, "note-3"),))
    base_id = 900_000
    for round_number in range(4):
        for i in range(3):
            eng.execute(read)
        for i in range(40):
            eng.execute(
                InsertQuery(
                    "orders",
                    ((base_id + round_number * 100 + i, 1, 1, 1.0, 1, "x"),),
                )
            )
        eng.clock.advance(60.0)
        mi.take_snapshot()
    verified = mi.recommend()
    # The same pipeline without verification would have recommended it.
    unchecked = MiRecommender(eng, MiRecommenderSettings(min_seeks=3))
    unchecked.accumulator = mi.accumulator
    unverified = unchecked.recommend()
    assert len(verified) <= len(unverified)


def test_dry_tuning_budget_defers_the_analysis():
    """Regression: verification swallowed ResourceBudgetExceededError.

    ``charge_cpu`` adds the charge before raising, so with the error
    swallowed every remaining hot statement charged the exhausted
    window again and the candidate was rejected as "no gain".  The
    transient error must reach ``RecommendationService.analyze``, which
    defers the analysis to the next period.
    """
    eng = perfect_engine(seed=135)
    plane = ControlPlane(
        eng.clock,
        "opt",
        eng,
        mi_settings=MiRecommenderSettings(verify_with_whatif=True),
    )
    other_reads = [
        SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, c),))
        for c in (5, 7)
    ]
    for query in [SELECTIVE] + other_reads:
        run_and_snapshot(eng, plane.mi, query)
    call_ms = WHATIF_CALL_CPU_MS
    tuning = eng.governor.tuning
    # Room for the first statement's base configuration only: its second
    # configuration is the first refusal.
    tuning.budget_cpu_ms = 1.5 * call_ms
    before = tuning.usage.cpu_ms
    plane.recommend_service.analyze(plane, eng.now)
    registry = plane.telemetry.registry
    assert {
        kind: registry.total("events_total", kind=kind)
        for kind in ("analysis_deferred", "analysis_failed", "analysis_completed")
    } == {"analysis_deferred": 1, "analysis_failed": 0, "analysis_completed": 0}
    assert tuning.usage.cpu_ms - before == 2 * call_ms
    assert plane.store.all_records() == []
