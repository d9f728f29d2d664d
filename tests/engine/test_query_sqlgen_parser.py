"""Query AST, SQL rendering and template-text tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query import (
    AggFunc,
    Aggregate,
    DeleteQuery,
    InsertQuery,
    JoinSpec,
    Op,
    OrderItem,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine.sqlgen import render, template_text


class TestPredicate:
    def test_eq_matches(self):
        assert Predicate("a", Op.EQ, 5).matches(5)
        assert not Predicate("a", Op.EQ, 5).matches(6)

    def test_null_never_matches(self):
        for op in Op:
            pred = (
                Predicate("a", op, 1, 2)
                if op is Op.BETWEEN
                else Predicate("a", op, 1)
            )
            assert not pred.matches(None)

    def test_between(self):
        pred = Predicate("a", Op.BETWEEN, 2, 8)
        assert pred.matches(2) and pred.matches(8) and pred.matches(5)
        assert not pred.matches(1) and not pred.matches(9)

    def test_between_requires_value2(self):
        with pytest.raises(ValueError):
            Predicate("a", Op.BETWEEN, 2)

    def test_range_bounds(self):
        assert Predicate("a", Op.LT, 5).range_bounds() == (None, 5, True, False)
        assert Predicate("a", Op.GE, 5).range_bounds() == (5, None, True, True)
        assert Predicate("a", Op.BETWEEN, 1, 2).range_bounds() == (1, 2, True, True)

    def test_mixed_type_comparison_is_false(self):
        assert not Predicate("a", Op.LT, 5).matches("text")


class TestTemplateKeys:
    def test_same_shape_same_key(self):
        q1 = SelectQuery("t", ("a",), (Predicate("b", Op.EQ, 1),))
        q2 = SelectQuery("t", ("a",), (Predicate("b", Op.EQ, 999),))
        assert q1.template_key() == q2.template_key()

    def test_different_ops_different_keys(self):
        q1 = SelectQuery("t", ("a",), (Predicate("b", Op.EQ, 1),))
        q2 = SelectQuery("t", ("a",), (Predicate("b", Op.LT, 1),))
        assert q1.template_key() != q2.template_key()

    def test_dml_keys_ignore_values(self):
        u1 = UpdateQuery("t", (("a", 1),), (Predicate("b", Op.EQ, 1),))
        u2 = UpdateQuery("t", (("a", 2),), (Predicate("b", Op.EQ, 5),))
        assert u1.template_key() == u2.template_key()

    def test_referenced_columns_ordered_unique(self):
        q = SelectQuery(
            "t",
            ("a", "b"),
            (Predicate("a", Op.EQ, 1), Predicate("c", Op.GT, 0)),
            order_by=(OrderItem("d"),),
        )
        assert q.referenced_columns() == ("a", "b", "c", "d")


#: (statement, the text Query Store records for it) for every statement
#: shape the workload generators emit.
RENDERED = [
    (SelectQuery("orders", ("o_id",)), "SELECT [o_id] FROM [orders]"),
    (
        SelectQuery("orders", ("o_id", "o_amount"), (Predicate("o_cust", Op.EQ, 17),)),
        "SELECT [o_id], [o_amount] FROM [orders] WHERE [o_cust] = 17",
    ),
    (
        SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_amount", Op.BETWEEN, 1.5, 9.5), Predicate("o_status", Op.NEQ, 0)),
        ),
        "SELECT [o_id] FROM [orders] WHERE [o_amount] BETWEEN 1.5 AND 9.5"
        " AND [o_status] <> 0",
    ),
    (
        SelectQuery("orders", ("o_id",), (Predicate("o_note", Op.EQ, "it's"),)),
        "SELECT [o_id] FROM [orders] WHERE [o_note] = N'it''s'",
    ),
    (
        SelectQuery(
            "orders",
            (),
            (Predicate("o_status", Op.EQ, 1),),
            group_by=("o_cust",),
            aggregates=(Aggregate(AggFunc.SUM, "o_amount"), Aggregate(AggFunc.COUNT)),
        ),
        "SELECT SUM([o_amount]), COUNT(*) FROM [orders] WHERE [o_status] = 1"
        " GROUP BY [o_cust]",
    ),
    (
        SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_date", Op.GE, 100),),
            order_by=(OrderItem("o_amount", ascending=False), OrderItem("o_id")),
            limit=10,
        ),
        "SELECT TOP 10 [o_id] FROM [orders] WHERE [o_date] >= 100"
        " ORDER BY [o_amount] DESC, [o_id]",
    ),
    (
        SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_status", Op.EQ, 2),),
            join=JoinSpec(
                table="customers",
                left_column="o_cust",
                right_column="c_id",
                predicates=(Predicate("c_region", Op.EQ, 3),),
                select_columns=("c_name",),
            ),
        ),
        "SELECT t.[o_id], r.[c_name] FROM [orders] AS t"
        " INNER JOIN [customers] AS r ON t.[o_cust] = r.[c_id]"
        " WHERE t.[o_status] = 2 AND r.[c_region] = 3",
    ),
    (
        SelectQuery("orders", ("o_id",), (Predicate("o_cust", Op.EQ, 1),), index_hint="ix_hint"),
        "SELECT [o_id] FROM [orders] WHERE [o_cust] = 1 OPTION (USE INDEX ([ix_hint]))",
    ),
    (
        InsertQuery("orders", ((1, 2, 3, 4.5, 6, "x"),)),
        "INSERT INTO [orders] VALUES (1, 2, 3, 4.5, 6, N'x')",
    ),
    (
        InsertQuery("orders", ((1, 2, 3, 4.5, 6, "x"), (2, 3, 4, 5.5, 7, "y")), bulk=True),
        "BULK INSERT [orders] VALUES (1, 2, 3, 4.5, 6, N'x'), (2, 3, 4, 5.5, 7, N'y')",
    ),
    (
        UpdateQuery("orders", (("o_amount", 9.5),), (Predicate("o_id", Op.EQ, 3),)),
        "UPDATE [orders] SET [o_amount] = 9.5 WHERE [o_id] = 3",
    ),
    (
        UpdateQuery("orders", (("o_status", 1), ("o_note", "done")), ()),
        "UPDATE [orders] SET [o_status] = 1, [o_note] = N'done'",
    ),
    (
        DeleteQuery("orders", (Predicate("o_date", Op.LT, 30),)),
        "DELETE FROM [orders] WHERE [o_date] < 30",
    ),
    (DeleteQuery("orders"), "DELETE FROM [orders]"),
]


@pytest.mark.parametrize(
    "query, text", RENDERED, ids=[text[:48] for _query, text in RENDERED]
)
def test_render_text(query, text):
    assert render(query) == text


def test_render_elides_rows_past_the_third():
    query = InsertQuery("orders", tuple((i,) for i in range(5)))
    assert render(query) == "INSERT INTO [orders] VALUES (0), (1), (2) /* +2 rows */"


def test_template_text_strips_literals():
    q1 = SelectQuery("t", ("a",), (Predicate("b", Op.EQ, 1),))
    q2 = SelectQuery("t", ("a",), (Predicate("b", Op.EQ, 77),))
    assert template_text(q1) == template_text(q2)
    assert "@p" in template_text(q1)


def test_template_text_string_literals():
    q1 = SelectQuery("t", ("a",), (Predicate("b", Op.EQ, "x"),))
    q2 = SelectQuery("t", ("a",), (Predicate("b", Op.EQ, "completely different"),))
    assert template_text(q1) == template_text(q2)


_LITERALS = st.one_of(st.integers(-5000, 5000), st.text(alphabet="abc'x 1-", max_size=8))


@settings(max_examples=50, deadline=None)
@given(
    column=st.sampled_from(["o_id", "o_cust", "o_amount"]),
    op=st.sampled_from([Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE, Op.NEQ]),
    first=_LITERALS,
    second=_LITERALS,
)
def test_property_template_text_ignores_literals(column, op, first, second):
    """Two executions of one template get one Query Store text,
    whatever literal each carried."""
    texts = {
        template_text(SelectQuery("orders", ("o_id",), (Predicate(column, op, value),)))
        for value in (first, second)
    }
    assert texts == {f"SELECT [o_id] FROM [orders] WHERE [{column}] {op.value} @p"}
