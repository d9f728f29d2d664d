"""Tests for the type system and schema objects."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.schema import (
    Column,
    IndexDefinition,
    TableSchema,
    auto_index_name,
)
from repro.engine.types import NULL, SqlType, key_of, rows_per_page
from repro.errors import QueryError, SchemaError, UnknownColumnError


class TestSqlType:
    def test_coerce_to_canonical_form(self):
        assert SqlType.INT.coerce("42") == 42
        assert SqlType.FLOAT.coerce(3) == 3.0
        assert SqlType.TEXT.coerce(42) == "42"

    def test_coerce_null_passthrough(self):
        assert SqlType.INT.coerce(None) is None

    def test_coerce_invalid_raises(self):
        with pytest.raises(QueryError):
            SqlType.INT.coerce("not-a-number")
        # SQL's FLOAT has no NaN; a NaN key would break bisected order.
        for value in (float("nan"), "nan"):
            with pytest.raises(QueryError):
                SqlType.FLOAT.coerce(value)
        schema = TableSchema(
            "t", [Column("a", SqlType.INT), Column("b", SqlType.FLOAT)]
        )
        with pytest.raises(QueryError):
            schema.validate_row((1, float("nan")))
        assert SqlType.FLOAT.coerce(float("inf")) == float("inf")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "sql_type", [SqlType.INT, SqlType.BIGINT, SqlType.DATE]
    )
    def test_coerce_infinity_to_integer_type_raises_query_error(
        self, sql_type, value
    ):
        # int(inf) raises OverflowError; coerce promises QueryError for
        # every value its type cannot represent.
        with pytest.raises(QueryError, match="cannot coerce"):
            sql_type.coerce(value)

    def test_render_text_escapes_quotes(self):
        assert SqlType.TEXT.render("a'b") == "N'a''b'"

    def test_render_null(self):
        assert SqlType.INT.render(None) == "NULL"

    def test_widths_positive(self):
        for sql_type in SqlType:
            assert sql_type.width > 0


class TestOrdering:
    def test_null_sorts_first(self):
        assert key_of((None,)) < key_of((-(10 ** 12),)) < key_of((0,))
        assert key_of((None, 5)) < key_of((None, 6)) < key_of((1, None))
        assert key_of((None,)) == key_of((None,)) == (NULL,)
        assert not NULL > NULL and NULL <= NULL and NULL >= NULL
        assert sorted(["b", NULL, "a"]) == [NULL, "a", "b"]

    def test_null_free_key_is_returned_itself(self):
        for key in ((1, "x"), (2.5,), (), (True, 0)):
            assert key_of(key) is key

    def test_bigint_keys_stay_exact(self):
        low, high = key_of((2**53,)), key_of((2**53 + 1,))
        assert low != high and low < high
        assert key_of((2**63 - 1,)) > key_of((2**63 - 2,))
        assert key_of((-(2**53) - 1,)) < key_of((-(2**53),))

    @given(
        st.one_of(
            st.lists(st.one_of(st.none(), st.integers()), max_size=6),
            st.lists(st.one_of(st.none(), st.text()), max_size=6),
            st.lists(st.one_of(st.none(), st.floats(allow_nan=False)), max_size=6),
        )
    )
    def test_key_of_orders_nulls_first_then_values(self, values):
        keys = sorted((value,) for value in values if value is not None)
        nulls = [(None,)] * values.count(None)
        assert sorted(((v,) for v in values), key=key_of) == nulls + keys

    def test_rows_per_page_minimum_one(self):
        assert rows_per_page(10 ** 6) == 1


class TestColumn:
    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("bad name!", SqlType.INT)

    def test_valid_underscore_name(self):
        assert Column("o_id", SqlType.INT).name == "o_id"


class TestIndexDefinition:
    def test_requires_key_columns(self):
        with pytest.raises(SchemaError):
            IndexDefinition("ix", "t", ())

    def test_rejects_duplicate_keys(self):
        with pytest.raises(SchemaError):
            IndexDefinition("ix", "t", ("a", "a"))

    def test_rejects_key_in_include(self):
        with pytest.raises(SchemaError):
            IndexDefinition("ix", "t", ("a",), ("a",))

    def test_covers(self):
        ix = IndexDefinition("ix", "t", ("a", "b"), ("c",))
        assert ix.covers(["a", "c"])
        assert not ix.covers(["a", "d"])

    def test_duplicate_detection_same_keys(self):
        a = IndexDefinition("ix1", "t", ("a", "b"), ("c",))
        b = IndexDefinition("ix2", "t", ("a", "b"), ("d",))
        assert a.is_duplicate_of(b)

    def test_duplicate_detection_order_matters(self):
        a = IndexDefinition("ix1", "t", ("a", "b"))
        b = IndexDefinition("ix2", "t", ("b", "a"))
        assert not a.is_duplicate_of(b)

    def test_prefix_detection(self):
        a = IndexDefinition("ix1", "t", ("a",))
        b = IndexDefinition("ix2", "t", ("a", "b"))
        assert a.key_is_prefix_of(b)
        assert not b.key_is_prefix_of(a)

    def test_describe_mentions_includes(self):
        ix = IndexDefinition("ix", "t", ("a",), ("b",))
        assert "INCLUDE" in ix.describe()

    def test_auto_index_name_unique(self):
        n1 = auto_index_name("orders", ["a", "b"])
        n2 = auto_index_name("orders", ["a", "b"])
        assert n1 != n2
        assert n1.startswith("nci_auto_orders_")


class TestTableSchema:
    def make(self):
        return TableSchema(
            "t",
            [Column("a", SqlType.INT, nullable=False), Column("b", SqlType.TEXT)],
            primary_key=["a"],
        )

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", SqlType.INT), Column("a", SqlType.INT)])

    def test_default_pk_is_first_column(self):
        schema = TableSchema("t", [Column("x", SqlType.INT)])
        assert schema.primary_key == ("x",)

    def test_unknown_pk_rejected(self):
        with pytest.raises(UnknownColumnError):
            TableSchema("t", [Column("a", SqlType.INT)], primary_key=["zz"])

    def test_position_and_column(self):
        schema = self.make()
        assert schema.position("b") == 1
        assert schema.column("b").sql_type is SqlType.TEXT

    def test_position_unknown_raises(self):
        with pytest.raises(UnknownColumnError):
            self.make().position("zz")

    def test_validate_row_coerces(self):
        schema = self.make()
        assert schema.validate_row(("5", 7)) == (5, "7")

    def test_validate_row_null_in_non_nullable(self):
        with pytest.raises(SchemaError):
            self.make().validate_row((None, "x"))

    def test_validate_row_wrong_width(self):
        with pytest.raises(SchemaError):
            self.make().validate_row((1,))

    def test_project_and_pk(self):
        schema = self.make()
        row = (3, "hello")
        assert schema.project(row, ["b"]) == ("hello",)
        assert schema.pk_values(row) == (3,)

    def test_row_width_subset(self):
        schema = self.make()
        assert schema.row_width(["a"]) == SqlType.INT.width
