"""Property test: plan execution equals brute-force evaluation for
hypothesis-generated queries, with and without indexes.

This is the single strongest invariant of the engine: plan choice may
change costs, never results.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import IndexDefinition, Op, OrderItem, Predicate, SelectQuery
from repro.engine.query import AggFunc, Aggregate
from tests.engine.test_exec_differential import floats, ints, texts
from tests.engine.test_executor import brute_force, norm
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")

COLUMNS = {
    "o_id": ints(0, 4100),
    "o_cust": ints(0, 210),
    "o_status": ints(0, 6),
    "o_amount": floats(0, 1100),
    "o_date": ints(0, 370),
    "o_note": texts([f"note-{i}" for i in range(18)]),
}

OPS = [Op.EQ, Op.NEQ, Op.LT, Op.LE, Op.GT, Op.GE, Op.BETWEEN]


@st.composite
def predicates(draw):
    column = draw(st.sampled_from(sorted(COLUMNS)))
    op = draw(st.sampled_from(OPS))
    value = draw(COLUMNS[column])
    if op is Op.BETWEEN:
        value2 = draw(COLUMNS[column])
        low, high = sorted((value, value2), key=lambda v: (v is None, v))
        return Predicate(column, op, low, high)
    return Predicate(column, op, value)


@st.composite
def select_queries(draw):
    preds = tuple(draw(st.lists(predicates(), max_size=3)))
    shape = draw(st.sampled_from(["plain", "agg", "order"]))
    if shape == "agg":
        group = draw(st.sampled_from(["o_status", "o_cust", "o_note"]))
        return SelectQuery(
            "orders",
            predicates=preds,
            group_by=(group,),
            aggregates=(
                Aggregate(AggFunc.COUNT),
                Aggregate(AggFunc.SUM, "o_amount"),
            ),
        )
    projection = tuple(
        draw(
            st.lists(
                st.sampled_from(sorted(COLUMNS)),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    if shape == "order":
        order_column = draw(st.sampled_from(["o_amount", "o_date", "o_id"]))
        return SelectQuery(
            "orders",
            select_columns=projection,
            predicates=preds,
            order_by=(OrderItem(order_column),),
        )
    return SelectQuery("orders", select_columns=projection, predicates=preds)


@pytest.fixture(scope="module")
def engines():
    bare = perfect_engine(seed=3001)
    indexed = perfect_engine(seed=3001)
    indexed.create_index(
        IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
    )
    indexed.create_index(
        IndexDefinition("ix_sd", "orders", ("o_status", "o_date"))
    )
    indexed.create_index(IndexDefinition("ix_note", "orders", ("o_note",)))
    return bare, indexed


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_results_match_brute_force_and_indexes(engines, query):
    bare, indexed = engines
    expected = norm(brute_force(bare, query))
    got_bare = norm(bare.execute(query).rows)
    got_indexed = norm(indexed.execute(query).rows)
    assert got_bare == expected
    assert got_indexed == expected
