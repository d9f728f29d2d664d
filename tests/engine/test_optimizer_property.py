"""Property tests on optimizer invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import IndexDefinition, Op, Predicate, SelectQuery
from tests.engine.test_executor_property import predicates, select_queries
from tests.engine.test_optimizer import perfect_engine


@pytest.fixture(scope="module")
def eng():
    engine = perfect_engine(seed=4001)
    engine.create_index(
        IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
    )
    engine.create_index(IndexDefinition("ix_date", "orders", ("o_date",)))
    return engine


@pytest.fixture(scope="module")
def bare():
    """``eng``'s twin (same seed, same data) that never created its indexes."""
    return perfect_engine(seed=4001)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_excluding_indexes_never_helps(eng, bare, query):
    """The optimizer minimizes over candidates: an engine without the
    indexes can only estimate the same cost or a worse one."""
    full = eng.optimizer.optimize(query).est_cost
    without = bare.optimizer.optimize(query).est_cost
    assert without >= full - 1e-9


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_hypothetical_superset_never_hurts(eng, query):
    """Adding a hypothetical index can only keep or lower estimated cost."""
    base = eng.optimizer.optimize(query).est_cost
    hyp = IndexDefinition(
        "hyp_all",
        "orders",
        ("o_status", "o_date"),
        ("o_amount", "o_note"),
        hypothetical=True,
    )
    with_hyp = eng.whatif_cost(query, extra_indexes=(hyp,))
    assert with_hyp <= base + 1e-9


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(preds=st.lists(predicates(), min_size=1, max_size=4))
def test_property_selectivity_bounds(eng, preds):
    """Combined selectivity always lies in [1/rows, 1]."""
    table = eng.database.table("orders")
    selectivity = eng.cost_model.combined_selectivity(table, tuple(preds))
    assert 1.0 / table.row_count - 1e-12 <= selectivity <= 1.0 + 1e-12


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_plan_estimates_nonnegative(eng, query):
    plan = eng.optimizer.optimize(query)
    for node in plan.walk():
        assert node.est_cost >= 0
        assert node.est_rows >= 0


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_plan_id_stable(eng, query):
    """Re-optimizing the same statement yields the same plan identity."""
    first = eng.optimizer.optimize(query)
    second = eng.optimizer.optimize(query)
    assert first.plan_id() == second.plan_id()
    assert first.signature() == second.signature()
