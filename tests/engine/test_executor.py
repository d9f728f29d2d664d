"""Executor correctness and metering tests.

Every test compares plan execution against a brute-force evaluation of the
query over the raw rows, so optimizer plan choice can never change results
— only costs.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import (
    DeleteQuery,
    IndexDefinition,
    InsertQuery,
    JoinSpec,
    Op,
    OrderItem,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine.exec import dispatch
from repro.engine.query import Aggregate, AggFunc
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


@pytest.fixture
def eng():
    return perfect_engine(seed=21)


def exact_sum(values):
    """Exactly rounded sum (matches the executor's order-independent SUM)."""
    if any(isinstance(v, float) for v in values):
        return math.fsum(values)
    return sum(values)


def brute_force(eng, query: SelectQuery):
    """Reference evaluation of a SelectQuery over raw rows."""
    table = eng.database.table(query.table)
    names = table.schema.column_names
    rows = [dict(zip(names, row)) for row in table.rows()]
    rows = [
        r
        for r in rows
        if all(p.matches(r.get(p.column)) for p in query.predicates)
    ]
    if query.join is not None:
        right = eng.database.table(query.join.table)
        right_names = right.schema.column_names
        right_rows = [dict(zip(right_names, row)) for row in right.rows()]
        right_rows = [
            r
            for r in right_rows
            if all(p.matches(r.get(p.column)) for p in query.join.predicates)
        ]
        joined = []
        for left in rows:
            for rrow in right_rows:
                lv = left.get(query.join.left_column)
                if lv is not None and lv == rrow.get(query.join.right_column):
                    joined.append({**rrow, **left})
        rows = joined
    if query.group_by or query.aggregates:
        groups = {}
        for row in rows:
            key = tuple(row.get(c) for c in query.group_by)
            groups.setdefault(key, []).append(row)
        if not groups and not query.group_by:
            groups[()] = []
        out = []
        for key, members in groups.items():
            item = dict(zip(query.group_by, key))
            for agg in query.aggregates:
                if agg.func is AggFunc.COUNT and agg.column is None:
                    item[agg.label()] = len(members)
                else:
                    values = [
                        m.get(agg.column)
                        for m in members
                        if m.get(agg.column) is not None
                    ]
                    if agg.func is AggFunc.COUNT:
                        item[agg.label()] = len(values)
                    elif not values:
                        item[agg.label()] = None
                    elif agg.func is AggFunc.SUM:
                        item[agg.label()] = exact_sum(values)
                    elif agg.func is AggFunc.AVG:
                        item[agg.label()] = exact_sum(values) / len(values)
                    elif agg.func is AggFunc.MIN:
                        item[agg.label()] = min(values)
                    elif agg.func is AggFunc.MAX:
                        item[agg.label()] = max(values)
            out.append(item)
        rows = out
    columns = list(query.select_columns)
    if query.join is not None:
        columns += list(query.join.select_columns)
    if columns and not query.is_aggregate:
        rows = [{c: r.get(c) for c in columns} for r in rows]
    return rows


def norm(rows):
    return sorted(
        (tuple(sorted(row.items(), key=lambda kv: kv[0])) for row in rows),
        key=repr,
    )


QUERIES = [
    SelectQuery("orders", ("o_id", "o_amount"), (Predicate("o_cust", Op.EQ, 3),)),
    SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.BETWEEN, 100, 150),)),
    SelectQuery("orders", ("o_id",), (Predicate("o_amount", Op.GT, 990.0),)),
    SelectQuery("orders", ("o_note",), (Predicate("o_note", Op.EQ, "note-3"),)),
    SelectQuery(
        "orders",
        ("o_id",),
        (Predicate("o_cust", Op.EQ, 2), Predicate("o_status", Op.NEQ, 0)),
    ),
    SelectQuery(
        "orders",
        group_by=("o_status",),
        aggregates=(Aggregate(AggFunc.COUNT), Aggregate(AggFunc.SUM, "o_amount")),
    ),
    SelectQuery(
        "orders",
        aggregates=(Aggregate(AggFunc.MIN, "o_amount"), Aggregate(AggFunc.MAX, "o_date")),
    ),
    SelectQuery(
        "orders",
        ("o_id",),
        (Predicate("o_id", Op.BETWEEN, 0, 30),),
        join=JoinSpec(
            "customers", "o_cust", "c_id",
            predicates=(Predicate("c_region", Op.EQ, 4),),
            select_columns=("c_name",),
        ),
    ),
    SelectQuery(
        "orders",
        ("o_id",),
        (Predicate("o_status", Op.EQ, 1),),
        join=JoinSpec("customers", "o_cust", "c_region", select_columns=("c_name",)),
    ),
]


@pytest.mark.parametrize("query", QUERIES, ids=range(len(QUERIES)))
def test_results_match_brute_force(eng, query):
    result = eng.execute(query)
    assert norm(result.rows) == norm(brute_force(eng, query))


@pytest.mark.parametrize("query", QUERIES[:5], ids=range(5))
def test_results_invariant_to_indexes(eng, query):
    """Adding indexes changes plans and costs, never results."""
    before = eng.execute(query)
    eng.create_index(IndexDefinition("ix_c", "orders", ("o_cust",), ("o_amount",)))
    eng.create_index(IndexDefinition("ix_a", "orders", ("o_amount",)))
    eng.create_index(IndexDefinition("ix_n", "orders", ("o_note", "o_status")))
    after = eng.execute(query)
    assert norm(before.rows) == norm(after.rows)


class TestOrderingAndTop:
    def test_order_by_sorted(self, eng):
        query = SelectQuery(
            "orders",
            ("o_id", "o_amount"),
            (Predicate("o_cust", Op.EQ, 3),),
            order_by=(OrderItem("o_amount"),),
        )
        rows = eng.execute(query).rows
        amounts = [r["o_amount"] for r in rows]
        assert amounts == sorted(amounts)

    def test_order_by_descending(self, eng):
        query = SelectQuery(
            "orders",
            ("o_amount",),
            (Predicate("o_cust", Op.EQ, 3),),
            order_by=(OrderItem("o_amount", ascending=False),),
        )
        amounts = [r["o_amount"] for r in eng.execute(query).rows]
        assert amounts == sorted(amounts, reverse=True)

    def test_top_limits_rows(self, eng):
        query = SelectQuery("orders", ("o_id",), limit=7)
        assert len(eng.execute(query).rows) == 7

    def test_top_with_order(self, eng):
        query = SelectQuery(
            "orders",
            ("o_amount",),
            order_by=(OrderItem("o_amount", ascending=False),),
            limit=3,
        )
        rows = eng.execute(query).rows
        all_amounts = sorted(
            (r[3] for r in eng.database.table("orders").rows()), reverse=True
        )
        assert [r["o_amount"] for r in rows] == all_amounts[:3]


class TestDml:
    def test_insert_visible(self, eng):
        eng.execute(InsertQuery("orders", ((90_000, 1, 1, 5.0, 10, "zz"),)))
        rows = eng.execute(
            SelectQuery("orders", ("o_note",), (Predicate("o_id", Op.EQ, 90_000),))
        ).rows
        assert rows == [{"o_note": "zz"}]

    def test_update_applies(self, eng):
        eng.execute(
            UpdateQuery(
                "orders", (("o_amount", -5.0),), (Predicate("o_id", Op.EQ, 10),)
            )
        )
        rows = eng.execute(
            SelectQuery("orders", ("o_amount",), (Predicate("o_id", Op.EQ, 10),))
        ).rows
        assert rows == [{"o_amount": -5.0}]

    def test_delete_removes(self, eng):
        eng.execute(DeleteQuery("orders", (Predicate("o_id", Op.BETWEEN, 0, 9),)))
        rows = eng.execute(
            SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.BETWEEN, 0, 9),))
        ).rows
        assert rows == []

    def test_write_cost_grows_with_indexes(self, eng):
        insert = InsertQuery("orders", tuple(
            (100_000 + i, i, 1, 1.0, 1, "x") for i in range(50)
        ))
        base = eng.execute(insert).metrics.cpu_time_ms
        for i, key in enumerate(("o_cust", "o_amount", "o_date", "o_status")):
            eng.create_index(IndexDefinition(f"ix_w{i}", "orders", (key,)))
        insert2 = InsertQuery("orders", tuple(
            (200_000 + i, i, 1, 1.0, 1, "x") for i in range(50)
        ))
        loaded = eng.execute(insert2).metrics.cpu_time_ms
        assert loaded > base


class TestMetering:
    def test_seek_cheaper_than_scan(self, eng):
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )
        scan_reads = eng.execute(query).metrics.logical_reads
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        seek_reads = eng.execute(query).metrics.logical_reads
        assert seek_reads < scan_reads / 5

    def test_metrics_positive(self, eng):
        metrics = eng.execute(SelectQuery("orders", ("o_id",))).metrics
        assert metrics.cpu_time_ms > 0
        assert metrics.duration_ms >= metrics.cpu_time_ms * 0.5
        assert metrics.logical_reads > 0

    def test_noise_makes_runs_differ(self, monkeypatch):
        eng = perfect_engine(seed=5)
        monkeypatch.setattr(dispatch, "NOISE_SIGMA", 0.1)
        query = SelectQuery("orders", ("o_id",), (Predicate("o_cust", Op.EQ, 1),))
        cpus = {eng.execute(query).metrics.cpu_time_ms for _ in range(5)}
        assert len(cpus) == 5

    def test_zero_noise_is_deterministic(self, eng):
        query = SelectQuery("orders", ("o_id",), (Predicate("o_cust", Op.EQ, 1),))
        cpus = {eng.execute(query).metrics.cpu_time_ms for _ in range(5)}
        assert len(cpus) == 1
