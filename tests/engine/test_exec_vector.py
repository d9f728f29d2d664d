"""Vectorized execution path: dispatch, fallback, and pinned metering.

The contract under test: whichever path runs a plan, the charged meters
— and therefore every derived ExecutionMetrics field — are identical.
The TOP-N tests additionally pin the *absolute* charges, so a future
regression back to sort-the-world under TOP cannot slip through.
"""

from __future__ import annotations

import math
import sys

import pytest

from repro.engine import IndexDefinition, Op, OrderItem, Predicate, SelectQuery
from repro.engine.exec import sort_meter_rows
from repro.engine.exec.dispatch import (
    CPU_MS_PER_PAGE,
    CPU_MS_PER_ROW,
    CPU_MS_PER_SORT_ROW,
)
from repro.engine.plans import (
    ClusteredSeekNode,
    IndexSeekNode,
    KeyLookupNode,
    SortNode,
    TopNode,
)
from repro.engine.query import Aggregate, AggFunc
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")

N_ORDERS = 4000  # populate_orders default


#: ``vector_min_rows`` is the one executor setting: 0 vectorizes every
#: supported SELECT plan, ``sys.maxsize`` none; 256 is the default.
MIN_ROWS = {"vector": 0, "auto": 256, "interp": sys.maxsize}


def engine_in_mode(mode: str, seed: int = 77):
    eng = perfect_engine(seed=seed)
    eng.settings.execution.vector_min_rows = MIN_ROWS[mode]
    return eng


def metrics_tuple(metrics):
    return (
        metrics.cpu_time_ms,
        metrics.duration_ms,
        metrics.logical_reads,
        metrics.rows_returned,
    )


def full_scan_pages(eng, table: str = "orders") -> int:
    tree = eng.database.table(table).clustered
    return tree.height + tree.leaf_page_count - 1


class TestTopNPushdown:
    """Satellite: TOP over Sort must not materialize a full sort."""

    QUERY = SelectQuery(
        "orders",
        ("o_id", "o_amount"),
        order_by=(OrderItem("o_amount", ascending=False),),
        limit=5,
    )

    def test_plan_shape_is_top_over_sort(self):
        eng = engine_in_mode("interp")
        plan = eng.optimizer.optimize(self.QUERY)
        assert isinstance(plan, TopNode)
        assert isinstance(plan.child, SortNode)

    @pytest.mark.parametrize("mode", ["interp", "vector"])
    def test_topn_metrics_pinned(self, mode):
        """Page/row/sort charges of TOP-N are exactly the pushed-down
        amounts: a full scan plus ``sort_meter_rows(n, limit)``."""
        eng = engine_in_mode(mode)
        result = eng.execute(self.QUERY)
        pages = full_scan_pages(eng)
        sort_rows = sort_meter_rows(N_ORDERS, 5)
        expected_cpu = (
            N_ORDERS * CPU_MS_PER_ROW
            + pages * CPU_MS_PER_PAGE
            + sort_rows * CPU_MS_PER_SORT_ROW
        )
        assert result.metrics.logical_reads == pages
        assert result.metrics.cpu_time_ms == pytest.approx(
            expected_cpu, rel=0, abs=1e-12
        )
        assert result.metrics.rows_returned == 5

    def test_topn_charges_less_than_full_sort(self):
        """The limit-aware charge must undercut sorting all n rows."""
        full = sort_meter_rows(N_ORDERS, None)
        limited = sort_meter_rows(N_ORDERS, 5)
        assert full == int(N_ORDERS * math.log2(N_ORDERS + 1))
        assert limited == int(N_ORDERS * math.log2(6))
        assert limited < full / 4

    @pytest.mark.parametrize("limit", [1, 3, 50, N_ORDERS, N_ORDERS + 10])
    def test_topn_rows_match_full_sort_prefix(self, limit):
        query = SelectQuery(
            "orders",
            ("o_id", "o_note"),
            order_by=(OrderItem("o_note"), OrderItem("o_id", ascending=False)),
            limit=limit,
        )
        unlimited = SelectQuery(
            "orders",
            ("o_id", "o_note"),
            order_by=(OrderItem("o_note"), OrderItem("o_id", ascending=False)),
        )
        for mode in ("interp", "vector"):
            eng = engine_in_mode(mode)
            got = eng.execute(query).rows
            want = eng.execute(unlimited).rows[:limit]
            assert got == want, f"mode={mode} limit={limit}"

    def test_both_paths_charge_identically(self):
        interp = engine_in_mode("interp").execute(self.QUERY)
        vector = engine_in_mode("vector").execute(self.QUERY)
        assert metrics_tuple(interp.metrics) == metrics_tuple(vector.metrics)
        assert interp.rows == vector.rows


class TestDispatch:
    def test_vector_mode_dispatches_supported_shapes(self):
        eng = engine_in_mode("vector")
        eng.execute(SelectQuery("orders", ("o_id",)))
        assert eng.executor.vector_statements == 1
        assert eng.executor.batch_rows == N_ORDERS

    def test_seeks_vectorize_and_top_over_a_bare_access_is_shape(self):
        """An index seek, a clustered seek and a key lookup vectorize; a
        TOP over a bare seek or a key lookup interprets, counted as
        ``shape``.  Each charges what the interpreter charges."""
        eng = engine_in_mode("vector")
        want = engine_in_mode("interp")
        for engine in (eng, want):
            engine.create_index(
                IndexDefinition(
                    "ix_cust", "orders", ("o_cust",), ("o_amount",)
                )
            )
        cust = (Predicate("o_cust", Op.EQ, 5),)
        cases = [
            (SelectQuery("orders", ("o_amount",), cust), IndexSeekNode, True),
            (SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.EQ, 5),)),
             ClusteredSeekNode, True),
            (SelectQuery("orders", ("o_note",), cust), KeyLookupNode, True),
            (SelectQuery("orders", ("o_note",), cust, limit=3),
             TopNode, False),
            (SelectQuery("orders", ("o_amount",), cust, limit=3),
             TopNode, False),
        ]
        for query, node, vectorized in cases:
            before = eng.executor.vector_statements
            shape = eng.executor.fallback_counts["shape"]
            got, expected = eng.execute(query), want.execute(query)
            assert isinstance(got.plan, node)
            assert eng.executor.vector_statements == before + vectorized
            assert eng.executor.fallback_counts["shape"] == shape + (
                not vectorized
            )
            assert got.rows == expected.rows != []
            assert metrics_tuple(got.metrics) == metrics_tuple(
                expected.metrics
            )
        assert isinstance(got.plan.child, IndexSeekNode)  # TOP's bare seek

    def test_top_over_bare_scan_stays_interpreted(self):
        """TOP without ORDER BY keeps the interpreter's lazy early exit."""
        eng = engine_in_mode("vector")
        result = eng.execute(SelectQuery("orders", ("o_id",), limit=7))
        assert eng.executor.vector_statements == 0
        assert len(result.rows) == 7

    def test_auto_mode_respects_min_rows(self):
        eng = engine_in_mode("auto")
        eng.settings.execution.vector_min_rows = N_ORDERS + 1
        eng.execute(SelectQuery("orders", ("o_id",)))
        assert eng.executor.vector_statements == 0
        eng.settings.execution.vector_min_rows = 256
        eng.execute(SelectQuery("orders", ("o_id",)))
        assert eng.executor.vector_statements == 1

    def test_literal_fallback_charges_as_interpreted(self):
        """A NULL predicate value refuses the vector path before any
        charge; the interpreted run charges exactly what a pure
        interpreted run charges."""
        query = SelectQuery(
            "orders",
            group_by=("o_status",),
            aggregates=(Aggregate(AggFunc.SUM, "o_amount"),),
            predicates=(Predicate("o_cust", Op.EQ, None),),
        )
        vector = engine_in_mode("vector")
        got = vector.execute(query)
        assert vector.executor.vector_statements == 0
        assert vector.executor.interp_statements == 1
        want = engine_in_mode("interp").execute(query)
        assert metrics_tuple(got.metrics) == metrics_tuple(want.metrics)
        assert got.rows == want.rows


class TestAggregates:
    @pytest.mark.parametrize(
        "aggregates",
        [
            (Aggregate(AggFunc.COUNT),),
            (Aggregate(AggFunc.SUM, "o_amount"), Aggregate(AggFunc.AVG, "o_amount")),
            (Aggregate(AggFunc.MIN, "o_note"), Aggregate(AggFunc.MAX, "o_date")),
        ],
    )
    @pytest.mark.parametrize("group_by", [(), ("o_status",), ("o_status", "o_cust")])
    def test_aggregate_parity(self, group_by, aggregates):
        query = SelectQuery("orders", group_by=group_by, aggregates=aggregates)
        interp = engine_in_mode("interp").execute(query)
        vector = engine_in_mode("vector").execute(query)
        assert interp.rows == vector.rows  # values, group order, and bits
        assert metrics_tuple(interp.metrics) == metrics_tuple(vector.metrics)

    def test_empty_input_ungrouped_yields_one_row(self):
        query = SelectQuery(
            "orders",
            predicates=(Predicate("o_id", Op.LT, -1),),
            aggregates=(Aggregate(AggFunc.COUNT), Aggregate(AggFunc.SUM, "o_amount")),
        )
        for mode in ("interp", "vector"):
            rows = engine_in_mode(mode).execute(query).rows
            assert rows == [{"COUNT(*)": 0, "SUM(o_amount)": None}]
