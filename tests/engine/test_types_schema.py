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
from repro.engine.table import Table
from repro.engine.types import NULL, SqlType, key_of, rows_per_page
from repro.errors import QueryError, SchemaError, UnknownColumnError


class TestSqlType:
    def test_coerce_to_canonical_form(self):
        assert SqlType.INT.coerce("42") == 42
        assert SqlType.FLOAT.coerce(3) == 3.0
        assert SqlType.TEXT.coerce(42) == "42"
        # NULL passes through.
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
        valid, error = schema.validate_rows([(1, float("nan"))])
        assert valid == [] and isinstance(error, QueryError)
        assert SqlType.FLOAT.coerce(float("inf")) == float("inf")

    @pytest.mark.parametrize("sql_type", [SqlType.INT, SqlType.BIGINT])
    def test_integer_range_is_checked(self, sql_type):
        # The int64 column vectors hold no more than BIGINT; INT is
        # SQL Server's 32-bit type, and DATE, a 4-byte day number, takes
        # INT's range.
        bits = 32 if sql_type is SqlType.INT else 64
        same_range = (sql_type, SqlType.DATE) if bits == 32 else (sql_type,)
        for checked in same_range:
            self._check_integer_range(checked, bits)

    @staticmethod
    def _check_integer_range(sql_type, bits):
        low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        assert sql_type.coerce(low) == low and sql_type.coerce(high) == high
        assert sql_type.coerce(str(high)) == high
        for outside in (low - 1, high + 1, float(2**bits)):
            with pytest.raises(QueryError, match="cannot coerce"):
                sql_type.coerce(outside)
        # A comparison converts a wider literal unchecked.
        assert sql_type.convert(high + 1) == high + 1
        table = Table(TableSchema("t", [Column("k", sql_type, nullable=False)]))
        assert table.insert_rows([(low,), (high,)]) == [(low,), (high,)]
        for before, outside in ((high - 2, high + 1), (low + 2, low - 1)):
            with pytest.raises(QueryError, match="cannot coerce"):
                table.insert_rows([(before,), (outside,), (0,)])
        # Each failed batch inserted the row before the out-of-range one.
        assert sorted(table.rows()) == sorted(
            [(low,), (high,), (high - 2,), (low + 2,)]
        )

    def test_bit_converts_as_t_sql_does(self):
        convert = SqlType.BOOL.coerce
        for value in (True, False):
            assert convert(value) is value
        for value, bit in [(0, False), (1, True), (-3, True), (0.0, False),
                           (0.25, True), (float("inf"), True)]:
            assert convert(value) is bit
        for value, bit in [("true", True), ("FALSE", False), (" True ", True),
                           ("0", False), ("1", True), ("2.5", True),
                           ("-0", False)]:
            assert convert(value) is bit
        for value in (float("nan"), "nan", "abc", "", "yes", [], b"1",
                      object()):
            with pytest.raises(QueryError, match="cannot coerce"):
                convert(value)
        assert convert(None) is None

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
        with pytest.raises(UnknownColumnError):
            schema.position("zz")

    def test_validate_rows_coerces(self):
        schema = self.make()
        assert schema.validate_rows([("5", 7)]) == ([(5, "7")], None)
        # Typed columns pass as they are, NULL where nullable.
        assert schema.validate_rows([(1, "x"), (2, None)]) == (
            [(1, "x"), (2, None)], None
        )

    def test_validate_rows_null_in_non_nullable(self):
        valid, error = self.make().validate_rows([(1, "a"), (None, "x")])
        assert valid == [(1, "a")]
        assert isinstance(error, SchemaError) and "NULL" in str(error)

    def test_validate_rows_wrong_width(self):
        valid, error = self.make().validate_rows([(1, "a"), (1,), ("z", "b")])
        assert valid == [(1, "a")]
        assert isinstance(error, SchemaError) and "width" in str(error)

    def test_project_and_pk(self):
        schema = self.make()
        row = (3, "hello")
        assert schema.project(row, ["b"]) == ("hello",)
        assert schema.pk_values(row) == (3,)

    def test_row_width_subset(self):
        schema = self.make()
        assert schema.row_width(["a"]) == SqlType.INT.width
