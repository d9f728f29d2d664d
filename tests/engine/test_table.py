"""Table layer tests: DML with index maintenance, index DDL, statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import PageMeter
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.table import IndexStatsView, Table
from repro.engine.types import SqlType
from repro.errors import (
    DuplicateObjectError,
    ExecutionError,
    SchemaError,
    UnknownIndexError,
)


def make_table() -> Table:
    schema = TableSchema(
        "t",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("grp", SqlType.INT),
            Column("val", SqlType.FLOAT),
        ],
        primary_key=["id"],
    )
    return Table(schema)


def fill(table: Table, n: int = 100) -> None:
    for i in range(n):
        table.insert((i, i % 10, float(i)))


class TestInsert:
    def test_insert_and_count(self):
        table = make_table()
        fill(table, 50)
        assert table.row_count == 50

    def test_duplicate_pk_rejected(self):
        table = make_table()
        table.insert((1, 0, 0.0))
        with pytest.raises(ExecutionError):
            table.insert((1, 5, 5.0))

    def test_insert_maintains_secondary(self):
        table = make_table()
        table.create_index(IndexDefinition("ix_grp", "t", ("grp",)))
        fill(table, 30)
        index = table.get_index("ix_grp")
        assert len(index.tree) == 30

    def test_insert_charges_meter_per_index(self):
        table = make_table()
        fill(table, 200)
        meter_no_index = PageMeter()
        table.insert((10_000, 1, 1.0), meter=meter_no_index)
        table.create_index(IndexDefinition("ix_grp", "t", ("grp",)))
        table.create_index(IndexDefinition("ix_val", "t", ("val",)))
        meter_with = PageMeter()
        table.insert((10_001, 1, 1.0), meter=meter_with)
        assert meter_with.pages > meter_no_index.pages


class TestUpdate:
    def test_update_changes_value(self):
        table = make_table()
        table.create_index(IndexDefinition("ix_grp", "t", ("grp",)))
        fill(table, 10)
        row = next(r for r in table.rows() if r[0] == 3)
        table.update_rows((row,), [("val", 99.0)])
        updated = next(r for r in table.rows() if r[0] == 3)
        assert updated[2] == 99.0
        # A row that is not in the table raises and is not inserted; the
        # rows before it stay updated, in the table and its index.
        with pytest.raises(ExecutionError, match="vanished during update"):
            table.update_rows((updated, (999, 1, 1.0)), [("grp", 5)])
        assert (table.row_count, table.data_version) == (10, 12)
        assert table.fetch_by_pk((999,)) is None
        assert table.fetch_by_pk((3,)) == (3, 5, 99.0)
        grp_index = table.get_index("ix_grp")
        assert [k for k, _p in grp_index.tree.seek_prefix((5,))] == [(5, 3), (5, 5)]

    def test_update_maintains_affected_index_only(self):
        table = make_table()
        table.create_index(IndexDefinition("ix_grp", "t", ("grp",)))
        table.create_index(IndexDefinition("ix_val", "t", ("val",)))
        fill(table, 20)
        row = next(r for r in table.rows() if r[0] == 5)
        table.update_rows((row,), [("val", -1.0)])
        val_index = table.get_index("ix_val")
        hits = list(val_index.tree.seek_prefix((-1.0,)))
        assert len(hits) == 1
        grp_index = table.get_index("ix_grp")
        assert len(grp_index.tree) == 20

    def test_noop_update_no_change(self):
        table = make_table()
        fill(table, 5)
        row = next(table.rows())
        assert table.update_rows((row,), [("val", row[2])]) == [row]

    def test_pk_update_relocates_row(self):
        table = make_table()
        fill(table, 5)
        row = next(r for r in table.rows() if r[0] == 2)
        table.update_rows((row,), [("id", 1000)])
        assert table.fetch_by_pk((2,)) is None
        assert table.fetch_by_pk((1000,)) is not None


class TestDelete:
    def test_delete_removes_everywhere(self):
        table = make_table()
        table.create_index(IndexDefinition("ix_grp", "t", ("grp",)))
        fill(table, 20)
        row = next(r for r in table.rows() if r[0] == 7)
        table.delete_rows((row,))
        assert table.row_count == 19
        assert table.fetch_by_pk((7,)) is None
        index = table.get_index("ix_grp")
        assert len(index.tree) == 19

    def test_delete_vanished_row_raises(self):
        table = make_table()
        fill(table, 3)
        row = next(table.rows())
        table.delete_rows((row,))
        with pytest.raises(ExecutionError):
            table.delete_rows((row,))


class TestIndexDdl:
    def test_create_index_bulk_builds(self):
        table = make_table()
        fill(table, 500)
        definition = IndexDefinition("ix_grp", "t", ("grp",), ("val",))
        index = table.create_index(definition)
        assert len(index.tree) == 500
        hits = list(index.tree.seek_prefix((3,)))
        assert len(hits) == 50
        # Bulk-built and cloned trees keep a row-inserted index's geometry.
        grown = make_table().create_index(definition).tree
        geometry = (grown.leaf_capacity, grown.internal_capacity)
        for built in (index.tree, table.clone().get_index("ix_grp").tree):
            assert (built.leaf_capacity, built.internal_capacity) == geometry

    def test_create_duplicate_name_rejected(self):
        table = make_table()
        table.create_index(IndexDefinition("ix", "t", ("grp",)))
        with pytest.raises(DuplicateObjectError):
            table.create_index(IndexDefinition("ix", "t", ("val",)))

    def test_create_hypothetical_rejected(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.create_index(
                IndexDefinition("hyp", "t", ("grp",), hypothetical=True)
            )

    def test_drop_index(self):
        table = make_table()
        table.create_index(IndexDefinition("ix", "t", ("grp",)))
        definition = table.drop_index("ix")
        assert definition.key_columns == ("grp",)
        with pytest.raises(UnknownIndexError):
            table.get_index("ix")

    def test_schema_version_bumps(self):
        table = make_table()
        v0 = table.schema_version
        table.create_index(IndexDefinition("ix", "t", ("grp",)))
        assert table.schema_version == v0 + 1
        table.drop_index("ix")
        assert table.schema_version == v0 + 2

    def test_index_on_unknown_column_rejected(self):
        table = make_table()
        with pytest.raises(Exception):
            table.create_index(IndexDefinition("ix", "t", ("nope",)))


class TestStatsViews:
    def test_hypothetical_view_close_to_real(self):
        table = make_table()
        fill(table, 2000)
        definition = IndexDefinition("ix", "t", ("grp",), ("val",))
        hypo = table.hypothetical_stats_view(definition)
        table.create_index(definition)
        real = table.get_index("ix").stats_view()
        assert hypo.rows == real.rows
        assert abs(hypo.leaf_pages - real.leaf_pages) <= max(2, real.leaf_pages)
        assert abs(hypo.height - real.height) <= 1

    def test_estimate_empty_table(self):
        view = IndexStatsView.estimate(0, 20, 8)
        assert view.leaf_pages == 1
        assert view.height == 1

    def test_size_bytes(self):
        view = IndexStatsView(rows=100, leaf_pages=4, height=2)
        assert view.size_bytes == 4 * 8192


class TestStatisticsBuild:
    def test_build_all_columns(self):
        table = make_table()
        fill(table, 100)
        built = table.build_statistics(at_time=5.0)
        assert built == 3
        assert table.statistics.built_at == 5.0
        assert table.statistics.rows_at_build == 100
        assert table.statistics.get("grp").distinct_count == 10

    def test_build_subset(self):
        table = make_table()
        fill(table, 10)
        table.build_statistics(columns=["grp"])
        assert table.statistics.get("grp") is not None
        assert table.statistics.get("val") is None


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "update"]), st.integers(0, 49)),
        max_size=60,
    )
)
def test_property_indexes_stay_consistent(ops):
    """Secondary index contents always mirror the clustered index."""
    table = make_table()
    table.create_index(IndexDefinition("ix", "t", ("grp",), ("val",)))
    live = {}
    for op, key in ops:
        if op == "insert" and key not in live:
            table.insert((key, key % 7, float(key)))
            live[key] = (key, key % 7, float(key))
        elif op == "delete" and key in live:
            table.delete_rows((live.pop(key),))
        elif op == "update" and key in live:
            row = live[key]
            (new,) = table.update_rows((row,), [("grp", (key + 1) % 7)])
            live[key] = new
    index = table.get_index("ix")
    assert len(index.tree) == len(live)
    from_index = sorted(key[-1] for key, _p in index.tree.items())
    assert from_index == sorted(live)
