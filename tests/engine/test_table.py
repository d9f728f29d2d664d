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
    ReproError,
    SchemaError,
    UnknownIndexError,
)
from repro.observability.profiling import Profiler, active, use_profiler


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

    def test_create_index_rejections(self):
        table = make_table()
        table.create_index(IndexDefinition("ix", "t", ("grp",)))
        with pytest.raises(DuplicateObjectError):
            table.create_index(IndexDefinition("ix", "t", ("val",)))
        with pytest.raises(SchemaError):
            table.create_index(
                IndexDefinition("hyp", "t", ("grp",), hypothetical=True)
            )
        with pytest.raises(Exception):
            table.create_index(IndexDefinition("ix2", "t", ("nope",)))

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


# ----------------------------------------------------------------------
# Batch insert ≡ the row loop it replaced.  The oracle is the one-row
# validation and per-row duplicate probe ``insert_rows`` used to run,
# kept here as a test-local copy.


def _oracle_validate_row(schema: TableSchema, row) -> tuple:
    if len(row) != len(schema.columns):
        raise SchemaError(
            f"row width {len(row)} != {len(schema.columns)} "
            f"for table {schema.name!r}"
        )
    coerced = []
    for column, value in zip(schema.columns, row):
        value = column.sql_type.coerce(value)
        if value is None and not column.nullable:
            raise SchemaError(
                f"NULL in non-nullable column {column.name!r} "
                f"of table {schema.name!r}"
            )
        coerced.append(value)
    return tuple(coerced)


def _oracle_insert_rows(table: Table, rows, meter: PageMeter) -> list:
    schema = table.schema
    valid = {}
    try:
        for row in rows:
            row = _oracle_validate_row(schema, row)
            pk = schema.project(row, schema.primary_key)
            if pk in valid or table.fetch_by_pk(pk) is not None:
                raise ExecutionError(
                    f"duplicate primary key {pk!r} in table {table.name!r}"
                )
            valid[pk] = row
    finally:
        inserted = list(valid.values())
        pages = 0
        for pk, row in valid.items():
            table.clustered.insert(pk, row)
            pages += table.clustered.height + 2
        table._changed([(None, row) for row in inserted])
        for index in table.indexes.values():
            for row in inserted:
                index.tree.insert(*index.entry_for_row(row))
            pages += len(inserted)
        if inserted:
            active().absorb(
                "btree_insert", len(inserted) * (1 + len(table.indexes)), 0.0
            )
        meter.charge(pages)
    return inserted


def _two_index_table() -> Table:
    schema = TableSchema(
        "b",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("grp", SqlType.INT),
            Column("val", SqlType.FLOAT, nullable=False),
            Column("tag", SqlType.TEXT),
        ],
        primary_key=["id"],
    )
    table = Table(schema)
    table.create_index(IndexDefinition("ix_grp", "b", ("grp",), ("val",)))
    table.create_index(IndexDefinition("ix_tag", "b", ("tag", "grp")))
    return table


_GOOD_ROW = st.tuples(
    st.integers(0, 400),
    st.one_of(st.none(), st.integers(-5, 5)),
    st.floats(-100, 100, allow_nan=False),
    st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
)
#: (column, value) faults, plus the width and duplicate-key faults below.
_VALUE_FAULTS = st.sampled_from(
    [
        (1, "abc"),  # cannot coerce
        (0, None),  # NULL primary key
        (2, None),  # NULL in a non-nullable column
        (2, float("nan")),
        (1, True),  # bool in an INT column: coerces to 1
        (1, "3"),  # coerces
        (2, 7),  # int in a FLOAT column: coerces
        (3, 12),  # coerces to "12"
        (1, 2**31),  # past INT
    ]
)


@st.composite
def _faulty_batches(draw):
    rows = [list(row) for row in draw(st.lists(_GOOD_ROW, max_size=25))]
    for _ in range(draw(st.integers(0, 6))):
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["value", "width", "dup_batch", "dup_tree"]))
        if kind == "value":
            column, value = draw(_VALUE_FAULTS)
            if column < len(rows[at]):  # not a row already cut short
                rows[at][column] = value
        elif kind == "width":
            rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + [1]
        elif kind == "dup_batch":
            rows[at][0] = rows[draw(st.integers(0, len(rows) - 1))][0]
        else:
            rows[at][0] = draw(st.integers(1000, 1040))  # a pre-filled key
    return [tuple(row) for row in rows]


def _outcome(insert, table, rows):
    meter, profiler = PageMeter(), Profiler()
    with use_profiler(profiler):
        try:
            result = insert(table, rows, meter)
        except ReproError as exc:
            result = (type(exc), str(exc))
    trees = [table.clustered] + [ix.tree for ix in table.indexes.values()]
    counts = {name: stat.calls for name, stat in profiler.stats().items()}
    return (
        result,
        [(tree.snapshot(), tree.height, tree.leaf_page_count) for tree in trees],
        meter.pages,
        table.data_version,
        counts.get("btree_insert", 0),
        counts.get("btree_seek", 0),
    )


@settings(max_examples=200, deadline=None)
@given(rows=_faulty_batches(), prefilled=st.booleans())
def test_property_batch_insert_equals_row_loop(rows, prefilled):
    """The batch validator and set-wise key check raise what the row
    loop raised (type and message: the first failing row, its first
    failing column, width and value errors before its duplicate key),
    after inserting the same prefix: the same trees, page charge,
    ``data_version`` and ``btree_insert`` entries, and on a non-empty
    table the same ``btree_seek`` probes."""
    tables = [_two_index_table(), _two_index_table()]
    if prefilled:
        prefill = [(k, k % 4, k * 0.5, "abc"[k % 3]) for k in range(1000, 1040, 2)]
        for table in tables:
            table.insert_rows(prefill)
    batch = _outcome(
        lambda table, rows, meter: table.insert_rows(rows, meter), tables[0], rows
    )
    oracle = _outcome(_oracle_insert_rows, tables[1], rows)
    if not prefilled:
        # An empty table is never probed; the loop probed every row.
        assert batch[5] == 0
        batch, oracle = batch[:5], oracle[:5]
    assert batch == oracle
