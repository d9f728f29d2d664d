"""Property tests on optimizer invariants."""

from __future__ import annotations

import dataclasses

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


#: Definitions the generated index sets draw from, by position.
INDEX_POOL = (
    IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",)),
    IndexDefinition("ix_date", "orders", ("o_date",)),
    IndexDefinition(
        "ix_status_date", "orders", ("o_status", "o_date"), ("o_amount",)
    ),
    IndexDefinition("ix_amount", "orders", ("o_amount",), ("o_cust", "o_note")),
    IndexDefinition("ix_note", "orders", ("o_note",)),
)


def index_sets(min_size: int = 0):
    """A set of positions in :data:`INDEX_POOL`."""
    return st.frozensets(
        st.integers(min_value=0, max_value=len(INDEX_POOL) - 1),
        min_size=min_size,
    )


def hypothetical(positions) -> tuple:
    """The pool entries at ``positions`` as hypothetical indexes."""
    return tuple(
        dataclasses.replace(
            INDEX_POOL[i], name=f"hyp_{INDEX_POOL[i].name}", hypothetical=True
        )
        for i in sorted(positions)
    )


@pytest.fixture(scope="module")
def engine_with():
    """Same-seed engines that differ only in which pool indexes are real,
    each built once per index set."""
    built = {}

    def build(positions: frozenset):
        if positions not in built:
            engine = perfect_engine(seed=4001)
            for i in sorted(positions):
                engine.create_index(INDEX_POOL[i])
            built[positions] = engine
        return built[positions]

    return build


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
    with_hyp = eng.whatif_optimize(query, (hyp,)).est_cost
    assert with_hyp <= base + 1e-9


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries(), indexes=index_sets(min_size=1), data=st.data())
def test_property_excluding_a_generated_index_never_lowers_cost(
    engine_with, query, indexes, data
):
    """The general case of the pinned exclusion regressions: for any
    real index set, dropping any one of its indexes can only keep or
    raise the estimated cost."""
    excluded = data.draw(st.sampled_from(sorted(indexes)))
    full = engine_with(indexes).optimizer.optimize(query).est_cost
    without = engine_with(indexes - {excluded}).optimizer.optimize(query)
    assert without.est_cost >= full - 1e-9


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    query=select_queries(),
    base=index_sets(),
    extra=index_sets(min_size=1),
)
def test_property_generated_hypothetical_superset_never_raises_cost(
    eng, query, base, extra
):
    """The general case of the pinned covering-hypothetical regression:
    pricing a hypothetical superset of any generated set can only keep
    or lower the estimated cost."""
    batch = eng.whatif_batch(query)
    with_base = batch.price(hypothetical(base)).est_cost
    with_more = batch.price(hypothetical(base | extra)).est_cost
    assert with_more <= with_base + 1e-9


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
