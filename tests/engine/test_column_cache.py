"""Columnar projection cache: maintenance, isolation, and no stale reads.

The cache is a maintained structure: every DML statement logs the rows
it changed and the next read folds them into the live projections, so a
projection served after DML must equal one built from scratch.  Index
create/drop, a change log that does not account for every
``data_version`` step, and a log that outgrew its share of the table
discard the projections instead, and cloned tables (the what-if B
instances) must never share a cache with their origin.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Database,
    DeleteQuery,
    IndexDefinition,
    InsertQuery,
    JoinSpec,
    Op,
    OrderItem,
    Predicate,
    SelectQuery,
    SqlEngine,
    UpdateQuery,
)
from repro.engine.cost_model import CostModelSettings
from repro.engine.engine import EngineSettings
from repro.engine.exec import columns
from repro.engine.exec.columns import _REBUILD_SHARE, Projection
from repro.engine.query import AggFunc, Aggregate
from repro.errors import ExecutionError, QueryError
from tests.conftest import make_orders_schema, populate_orders
from tests.engine.test_exec_differential import counted
from tests.engine.test_optimizer import perfect_engine

#: The engines here execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


def orders(eng):
    return eng.database.table("orders")


class TestProjectionLifecycle:
    def test_miss_then_hit(self):
        table = orders(perfect_engine(seed=31))
        cache = table.columnar()
        first = table.projection()
        second = table.projection()
        assert first is second
        assert (cache.hits, cache.misses, cache.invalidations) == (1, 1, 0)

    def test_insert_is_visible_through_same_projection(self):
        eng = perfect_engine(seed=31)
        table = orders(eng)
        cache = table.columnar()
        before = table.projection()
        rows_before = before.row_count
        eng.execute(InsertQuery("orders", ((50_000, 1, 1, 2.5, 7, "new"),)))
        after = table.projection()
        assert after is before
        assert after.row_count == rows_before + 1
        assert after.raw_column("o_id")[-1] == 50_000
        assert (cache.misses, cache.invalidations) == (1, 0)
        assert cache.delta_rows == 1

    def test_update_is_visible_through_same_projection(self):
        eng = perfect_engine(seed=31)
        table = orders(eng)
        cache = table.columnar()
        before = table.projection()
        before.vector("o_amount")
        eng.execute(
            UpdateQuery(
                "orders", (("o_amount", -1.0),), (Predicate("o_id", Op.EQ, 3),)
            )
        )
        after = table.projection()
        assert after is before
        amounts = after.raw_column("o_amount")
        ids = after.raw_column("o_id")
        assert amounts[ids.index(3)] == -1.0
        assert after.vector("o_amount").values[ids.index(3)] == -1.0
        assert (cache.misses, cache.invalidations) == (1, 0)

    def test_delete_is_visible_through_same_projection(self):
        eng = perfect_engine(seed=31)
        table = orders(eng)
        cache = table.columnar()
        before = table.projection()
        rows_before = before.row_count
        eng.execute(
            DeleteQuery("orders", (Predicate("o_id", Op.BETWEEN, 0, 9),))
        )
        after = table.projection()
        assert after is before
        assert after.row_count == rows_before - 10
        assert 3 not in after.raw_column("o_id")
        assert (cache.misses, cache.invalidations) == (1, 0)

    def test_create_and_drop_index_invalidate(self):
        eng = perfect_engine(seed=31)
        table = orders(eng)
        cache = table.columnar()
        table.projection()
        eng.create_index(IndexDefinition("ix_cc", "orders", ("o_cust",)))
        table.projection("ix_cc")  # index projection now buildable
        assert cache.invalidations == 1
        eng.drop_index("orders", "ix_cc")
        table.projection()
        assert cache.invalidations == 2

    def test_index_projection_reads_entry_layout(self):
        eng = perfect_engine(seed=31)
        eng.create_index(
            IndexDefinition("ix_ca", "orders", ("o_cust",), ("o_amount",))
        )
        projection = orders(eng).projection("ix_ca")
        # Key columns, primary-key suffix, and included payload columns
        # are all addressable; unrelated columns are not.
        assert projection.has("o_cust")
        assert projection.has("o_id")
        assert projection.has("o_amount")
        assert not projection.has("o_note")
        cust = projection.raw_column("o_cust")
        assert cust == sorted(cust, key=lambda v: (v is None, v))

    def test_untouched_table_never_invalidates(self):
        eng = perfect_engine(seed=31)
        table = orders(eng)
        cache = table.columnar()
        for _ in range(5):
            table.projection()
        assert (cache.hits, cache.misses, cache.invalidations) == (4, 1, 0)


class TestCloneIsolation:
    def test_clone_has_fresh_cache(self):
        eng = perfect_engine(seed=31)
        table = orders(eng)
        original = table.projection()
        clone = table.clone()
        assert clone.columnar() is not table.columnar()
        assert clone.columnar_stats == (0, 0, 0)
        cloned_projection = clone.projection()
        assert cloned_projection is not original

    def test_origin_mutation_invisible_to_clone_cache(self):
        eng = perfect_engine(seed=31)
        table = orders(eng)
        clone = table.clone()
        before = clone.projection()
        eng.execute(InsertQuery("orders", ((60_000, 1, 1, 1.0, 1, "x"),)))
        after = clone.projection()
        assert after is before  # clone's version token never moved
        assert 60_000 in table.projection().raw_column("o_id")
        assert 60_000 not in after.raw_column("o_id")


class TestNoStaleReadsThroughExecution:
    def test_vector_query_sees_every_dml(self, monkeypatch):
        eng = perfect_engine(seed=31)
        eng.settings.execution.vector_min_rows = 0
        # Filter on a non-key column so the plan stays a clustered scan.
        count = SelectQuery(
            "orders", ("o_id",), (Predicate("o_note", Op.EQ, "probe"),)
        )
        assert eng.execute(count).rows == []
        eng.execute(InsertQuery("orders", ((70_001, 1, 1, 1.0, 1, "probe"),)))
        assert eng.execute(count).rows == [{"o_id": 70_001}]
        eng.execute(
            DeleteQuery("orders", (Predicate("o_id", Op.EQ, 70_001),))
        )
        assert eng.execute(count).rows == []
        assert eng.executor.vector_statements >= 3
        # A result is fixed when it executes, though its row dicts are
        # built only on first read: here after an UPDATE and a DELETE
        # fold into the very projection it was gathered from.  Neither
        # executing it nor len() / bool() builds a row.
        builds = []
        build = columns.row_builder

        def counting(names):
            builds.append(names)
            return build(names)

        monkeypatch.setattr(columns, "row_builder", counting)
        reads = (
            SelectQuery("orders", ("o_id", "o_amount", "o_note")),  # a slice
            SelectQuery(
                "orders", ("o_id", "o_amount"), (Predicate("o_status", Op.LE, 1),)
            ),
        )
        held = [eng.execute(query).rows for query in reads]
        assert all(held) and len(held[0]) == 4000 > len(held[1])
        assert builds == []
        at_execute = [list(eng.execute(query).rows) for query in reads]
        table = orders(eng)
        projection = table.projection()
        eng.execute(
            UpdateQuery(
                "orders", (("o_amount", -1.0),),
                (Predicate("o_id", Op.BETWEEN, 10, 59),),
            )
        )
        eng.execute(DeleteQuery("orders", (Predicate("o_id", Op.LT, 10),)))
        assert table.projection() is projection
        assert table.columnar().invalidations == 0
        builds.clear()
        for query, rows, expected in zip(reads, held, at_execute):
            assert rows == expected and expected == rows
            assert list(eng.execute(query).rows) != expected
        assert len(builds) == 2 * len(reads)

    def test_join_build_side_follows_right_table_dml(self):
        """A vectorized join caches its hash-build side inside the
        *right* table's columnar cache, so right-table DML must reach
        the next probe — the regression here would be a stale build
        serving matches for deleted/updated dim rows."""
        eng = perfect_engine(seed=31)
        eng.settings.execution.vector_min_rows = 0
        probe = SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_cust", Op.EQ, 7),),
            join=JoinSpec(
                "customers",
                left_column="o_cust",
                right_column="c_id",
                select_columns=("c_region",),
            ),
        )
        customers = eng.database.table("customers")
        before = eng.execute(probe).rows
        assert before  # customer 7 exists and has orders
        baseline_region = before[0]["c_region"]
        statements_before = eng.executor.vector_statements
        build_keys = customers.projection().vector("c_id")
        equi = build_keys.equi_index()
        assert 7 in equi[1]

        # UPDATE on the right table: every probe row must see the new
        # attribute value, not the cached build side's old one.
        eng.execute(
            UpdateQuery(
                "customers",
                (("c_region", baseline_region + 100),),
                (Predicate("c_id", Op.EQ, 7),),
            )
        )
        after_update = eng.execute(probe).rows
        assert len(after_update) == len(before)
        assert all(r["c_region"] == baseline_region + 100 for r in after_update)
        # The attribute was patched in place; the untouched key column
        # kept its build side.
        assert build_keys.equi_index() is equi

        # DELETE on the right table: the key must stop matching even
        # though the probe (orders) table never changed.
        eng.execute(
            DeleteQuery("customers", (Predicate("c_id", Op.EQ, 7),))
        )
        assert eng.execute(probe).rows == []
        # The deleted key's equi-index was refreshed, not served stale.
        assert build_keys.equi_index() is not equi
        assert 7 not in build_keys.equi_index()[1]
        assert customers.columnar().invalidations == 0

        # Right-table DDL moves schema_version; still no stale build.
        eng.create_index(
            IndexDefinition("ix_creg", "customers", ("c_region",))
        )
        assert eng.execute(probe).rows == []
        # The joins above all took the vectorized path (not fallbacks).
        assert eng.executor.vector_statements >= statements_before + 3

    def test_join_build_side_reused_when_right_table_unchanged(self):
        eng = perfect_engine(seed=31)
        eng.settings.execution.vector_min_rows = 0
        query = SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_status", Op.EQ, 1),),
            join=JoinSpec(
                "customers", left_column="o_cust", right_column="c_id"
            ),
        )
        first = eng.execute(query).rows
        customers = eng.database.table("customers")
        projection = customers.projection()
        equi = projection.vector("c_id").equi_index()
        second = eng.execute(query).rows
        assert second == first
        # Same projection object, same cached equi-index: nothing rebuilt.
        assert customers.projection() is projection
        assert projection.vector("c_id").equi_index() is equi
        assert customers.columnar().invalidations == 0

    def test_stats_monotone_and_summed(self):
        eng = perfect_engine(seed=31)
        eng.settings.execution.vector_min_rows = 0
        query = SelectQuery("orders", ("o_id",))
        seen = (0, 0, 0)
        for i in range(4):
            eng.execute(query)
            if i == 1:
                eng.execute(
                    InsertQuery("orders", ((80_000 + i, 1, 1, 1.0, 1, "m"),))
                )
            stats = eng.executor.column_cache_stats()
            assert all(a >= b for a, b in zip(stats, seen))
            seen = stats
        hits, misses, invalidations = seen
        assert misses == 1  # the post-insert read folds, it does not rebuild
        assert invalidations == 0
        assert hits >= 1
        assert eng.executor.column_cache_delta_rows() == 1


# ----------------------------------------------------------------------
# Oracle: a maintained projection equals one built from scratch
#
# A small table (so every example builds its own) carrying an index with
# an included column (``o_date``, drawn up to its range's extremes), a
# single-column index, a string index and one non-indexed column
# (``o_amount``).  ``ROWS * _REBUILD_SHARE`` is the fold
# budget, so keyed statements fold and wide predicates exceed it — both
# sides of the constant are exercised by the same generator.

ROWS = 300
INDEXES = (
    IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_date",)),
    IndexDefinition("ix_status", "orders", ("o_status",)),
    IndexDefinition("ix_note", "orders", ("o_note",)),
)
PROJECTIONS = (None,) + tuple(definition.name for definition in INDEXES)
#: A string longer than any present at build time, and the extremes of
#: DATE's range (INT's: a 4-byte day number).
LONG_NOTE = "n" * 40
DATE_EXTREMES = (-(2**31), 2**31 - 1)


def small_engine() -> SqlEngine:
    db = Database("cc", seed=5)
    populate_orders(db.create_table(make_orders_schema()), n_rows=ROWS)
    config = EngineSettings(
        cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0)
    )
    eng = SqlEngine(db, settings=config)
    for definition in INDEXES:
        eng.create_index(definition)
    eng.build_all_statistics()
    return eng


def touch(projection: Projection) -> None:
    """Build every vector, rank code and equi-index the projection can
    carry, so later folds have all of them to maintain."""
    for column in projection._layout:
        vector = projection.vector(column)
        vector.codes()
        vector.equi_index()


def assert_equals_fresh(table, index_name) -> None:
    served = table.projection(index_name)
    fresh = Projection(table, index_name)
    assert served.row_count == fresh.row_count
    assert served.scan_pages == fresh.scan_pages
    assert served._nkeys == fresh._nkeys
    assert served._keys == fresh._keys
    assert served._payloads == fresh._payloads
    for column in fresh._layout:
        assert served.raw_column(column) == fresh.raw_column(column)
        assert repr(served.raw_column(column)) == repr(fresh.raw_column(column))
        expected = fresh.vector(column)
        got = served.vector(column)
        assert got.values.dtype == expected.values.dtype
        assert np.array_equal(got.values, expected.values)
        assert np.array_equal(got.nulls, expected.nulls)
        assert np.array_equal(got.codes(), expected.codes())
        for mine, theirs in zip(got.equi_index(), expected.equi_index()):
            assert np.array_equal(mine, theirs)


READS = (
    SelectQuery("orders", ("o_id", "o_note", "o_date"),
                (Predicate("o_date", Op.GE, 100),)),
    SelectQuery("orders", ("o_cust", "o_date"),
                (Predicate("o_date", Op.LT, 500),)),
    SelectQuery("orders", ("o_id", "o_amount"),
                (Predicate("o_amount", Op.LT, 500.0),)),
    SelectQuery("orders", ("o_id", "o_note"), (Predicate("o_note", Op.NEQ, "x"),),
                order_by=(OrderItem("o_note"), OrderItem("o_id", False))),
    SelectQuery("orders", (), (Predicate("o_date", Op.LE, 300),),
                group_by=("o_status",),
                aggregates=(Aggregate(AggFunc.COUNT),
                            Aggregate(AggFunc.SUM, "o_amount"))),
    SelectQuery("orders", ("o_id",), (Predicate("o_status", Op.LE, 3),),
                join=JoinSpec("customers", left_column="o_cust",
                              right_column="c_id",
                              select_columns=("c_region",))),
)


def assert_reads_agree(eng: SqlEngine) -> None:
    """Served projections equal fresh ones, and a vector-mode SELECT
    returns the interpreter's rows and metrics."""
    table = eng.database.table("orders")
    for index_name in PROJECTIONS:
        assert_equals_fresh(table, index_name)
        touch(table.projection(index_name))
    for query in READS:
        if query.join is not None and "customers" not in eng.database.tables:
            continue
        eng.settings.execution.vector_min_rows = 0
        got = eng.execute(query)
        eng.settings.execution.vector_min_rows = sys.maxsize
        expected = eng.execute(query)
        assert got.rows == expected.rows
        assert repr(got.rows) == repr(expected.rows)
        assert got.metrics == expected.metrics


KEYS = st.integers(0, ROWS + 40)
NULLABLE = {
    "o_cust": st.one_of(st.none(), st.integers(0, 16)),
    "o_status": st.one_of(st.none(), st.integers(0, 5)),
    "o_amount": st.one_of(st.none(), st.floats(-10, 1100, allow_nan=False)),
    "o_date": st.one_of(
        st.none(), st.integers(0, 370), st.sampled_from(DATE_EXTREMES)
    ),
    "o_note": st.one_of(
        st.none(), st.sampled_from(["note-1", "note-9", "z", LONG_NOTE])
    ),
}
ROWS_ST = st.tuples(KEYS, *(NULLABLE[c] for c in
                            ("o_cust", "o_status", "o_amount", "o_date", "o_note")))
ASSIGNMENTS = st.one_of(
    # an included column, indexed keys, a non-indexed column, the
    # primary key, and two at once
    st.tuples(st.tuples(st.just("o_date"), NULLABLE["o_date"])),
    st.tuples(st.tuples(st.just("o_cust"), NULLABLE["o_cust"])),
    st.tuples(st.tuples(st.just("o_status"), NULLABLE["o_status"])),
    st.tuples(st.tuples(st.just("o_amount"), NULLABLE["o_amount"])),
    st.tuples(st.tuples(st.just("o_note"), NULLABLE["o_note"])),
    st.tuples(st.tuples(st.just("o_id"), KEYS)),
    st.tuples(st.tuples(st.just("o_note"), NULLABLE["o_note"]),
              st.tuples(st.just("o_amount"), NULLABLE["o_amount"])),
)
BY_KEY = st.builds(lambda k: (Predicate("o_id", Op.EQ, k),), KEYS)
BY_PREDICATE = st.one_of(
    st.builds(lambda c, s: (Predicate("o_cust", Op.EQ, c),
                            Predicate("o_status", Op.EQ, s)),
              st.integers(0, 16), st.integers(0, 5)),
    st.builds(lambda c: (Predicate("o_cust", Op.EQ, c),), st.integers(0, 16)),
    st.builds(lambda s: (Predicate("o_status", Op.EQ, s),), st.integers(0, 5)),
    st.builds(lambda lo: (Predicate("o_id", Op.BETWEEN, lo, lo + 6),), KEYS),
)
STATEMENTS = st.one_of(
    st.builds(lambda row: InsertQuery("orders", (row,)), ROWS_ST),
    st.builds(lambda rows: InsertQuery("orders", tuple(rows)),
              st.lists(ROWS_ST, min_size=2, max_size=6)),
    st.builds(lambda a, p: UpdateQuery("orders", a, p), ASSIGNMENTS, BY_KEY),
    st.builds(lambda a, p: UpdateQuery("orders", a, p), ASSIGNMENTS, BY_PREDICATE),
    st.builds(lambda p: DeleteQuery("orders", p), BY_KEY),
    st.builds(lambda p: DeleteQuery("orders", p), BY_PREDICATE),
)
#: ``None`` is a read (one step in four).
STEP = st.one_of(st.none(), STATEMENTS, STATEMENTS, STATEMENTS)
STEPS = st.lists(STEP, min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
def test_property_maintained_projection_equals_fresh(steps):
    eng = small_engine()
    assert_reads_agree(eng)
    for step in steps:
        if step is None:
            assert_reads_agree(eng)
            continue
        try:
            eng.execute(step)
        except ExecutionError:
            pass  # duplicate key: rows before it stay inserted
    assert_reads_agree(eng)


class TestFoldAndRebuildTriggers:
    def test_each_dml_entry_point_logs_one_change_per_version_step(self):
        eng = small_engine()
        table = eng.database.table("orders")
        cache = table.columnar()
        rows = [row for _key, row in table.clustered.items()]

        def steps_logged(mutate) -> int:
            table.projection()  # fold: the log is empty, the token current
            assert cache.log == []
            version = table.data_version
            mutate()
            assert len(cache.log) == table.data_version - version
            return len(cache.log)

        new = (1000, 1, 1, 1.0, 1, "a")
        assert steps_logged(lambda: table.insert(new)) == 1
        assert steps_logged(lambda: table.delete_rows((new,))) == 1
        assert steps_logged(
            lambda: table.update_rows(rows[:1], (("o_date", 999),))
        ) == 1
        # A primary-key update is a delete plus an insert; a no-op none.
        assert steps_logged(
            lambda: table.update_rows(rows[1:2], (("o_id", 2000),))
        ) == 2
        assert steps_logged(
            lambda: table.update_rows(rows[2:3], (("o_date", rows[2][4]),))
        ) == 0
        batch = [(1001 + i, 1, 1, 1.0, 1, "b") for i in range(3)]
        assert steps_logged(lambda: table.insert_rows(batch)) == 3
        assert steps_logged(
            lambda: table.update_rows(batch, (("o_status", 4),))
        ) == 3
        updated = [row[:2] + (4,) + row[3:] for row in batch]
        assert steps_logged(lambda: table.delete_rows(updated)) == 3
        assert cache.invalidations == 0
        for index_name in PROJECTIONS:
            assert_equals_fresh(table, index_name)

    def test_update_outside_an_index_leaves_its_projection_alone(self):
        eng = small_engine()
        table = eng.database.table("orders")
        cache = table.columnar()
        status = table.projection("ix_status").vector("o_status")
        codes, equi = status.codes(), status.equi_index()
        eng.execute(
            UpdateQuery("orders", (("o_date", 1),), (Predicate("o_id", Op.EQ, 5),))
        )
        assert table.projection("ix_status").vector("o_status") is status
        assert status.codes() is codes and status.equi_index() is equi
        assert cache.delta_rows == 1

    def test_changes_to_one_row_net_before_folding(self):
        eng = small_engine()
        table = eng.database.table("orders")
        cache = table.columnar()
        for index_name in PROJECTIONS:
            touch(table.projection(index_name))
        key = (Predicate("o_id", Op.EQ, 4000),)
        # Inserted, moved within every index, moved again; another row
        # updated twice in place; a third inserted and deleted again.
        eng.execute(InsertQuery("orders", ((4000, 1, 1, 1.0, 1, "a"),)))
        eng.execute(UpdateQuery("orders", (("o_cust", 9), ("o_note", "b")), key))
        eng.execute(UpdateQuery("orders", (("o_status", None),), key))
        for amount in (2.0, 3.0):
            eng.execute(
                UpdateQuery(
                    "orders", (("o_amount", amount),),
                    (Predicate("o_id", Op.EQ, 8),),
                )
            )
        eng.execute(InsertQuery("orders", ((4001, 1, 1, 1.0, 1, "c"),)))
        eng.execute(DeleteQuery("orders", (Predicate("o_id", Op.EQ, 4001),)))
        for index_name in PROJECTIONS:
            assert_equals_fresh(table, index_name)
        assert (cache.invalidations, cache.delta_rows) == (0, 7)

    def test_log_over_budget_rebuilds(self):
        eng = small_engine()
        table = eng.database.table("orders")
        cache = table.columnar()
        before = table.projection()
        budget = int(_REBUILD_SHARE * ROWS)
        eng.execute(
            DeleteQuery("orders", (Predicate("o_id", Op.BETWEEN, 0, budget + 5),))
        )
        # The write side dropped the projections and with them the log.
        assert cache.log == [] and cache.invalidations == 1
        after = table.projection()
        assert after is not before
        assert (cache.misses, cache.delta_rows) == (2, 0)
        assert_equals_fresh(table, None)

    def test_unlogged_version_step_rebuilds(self):
        eng = small_engine()
        table = eng.database.table("orders")
        cache = table.columnar()
        before = table.projection()
        row = (5000, 1, 1, 1.0, 1, "direct")
        table.clustered.insert((5000,), row)
        table.data_version += 1
        after = table.projection()
        assert after is not before and cache.invalidations == 1
        assert after.raw_column("o_id")[-1] == 5000

    def test_unversioned_tree_mutation_cannot_be_folded_over(self):
        eng = small_engine()
        table = eng.database.table("orders")
        cache = table.columnar()
        before = table.projection()
        table.clustered.delete((7,))  # no version step, no log entry
        eng.execute(
            UpdateQuery("orders", (("o_date", 1),), (Predicate("o_id", Op.EQ, 9),))
        )
        after = table.projection()
        assert after is not before and cache.invalidations == 1
        assert 7 not in after.raw_column("o_id")

    def test_index_ddl_rebuilds(self):
        eng = small_engine()
        table = eng.database.table("orders")
        cache = table.columnar()
        before = table.projection()
        eng.create_index(IndexDefinition("ix_date", "orders", ("o_date",)))
        assert table.projection() is not before
        assert_equals_fresh(table, "ix_date")
        eng.drop_index("orders", "ix_date")
        table.projection()
        assert cache.invalidations == 2

    def test_value_outgrowing_its_array_drops_only_that_vector(self):
        eng = small_engine()
        eng.settings.execution.vector_min_rows = 0
        table = eng.database.table("orders")
        projection = table.projection()
        note, date = projection.vector("o_note"), projection.vector("o_date")
        cust = projection.vector("o_cust")
        touch(table.projection("ix_cust"))
        # A DATE past its range raises before any row or projection moves.
        rows_before, version = list(table.rows()), table.data_version
        with pytest.raises(QueryError, match="cannot coerce"):
            eng.execute(
                UpdateQuery(
                    "orders",
                    (("o_note", LONG_NOTE), ("o_date", 2**70)),
                    (Predicate("o_id", Op.EQ, 4),),
                )
            )
        assert (list(table.rows()), table.data_version) == (rows_before, version)
        assert table.projection() is projection
        assert projection.vector("o_note") is note
        assert projection.vector("o_date") is date
        eng.execute(
            UpdateQuery(
                "orders",
                (("o_note", LONG_NOTE), ("o_date", DATE_EXTREMES[1])),
                (Predicate("o_id", Op.EQ, 4),),
            )
        )
        assert table.projection() is projection
        assert projection.vector("o_cust") is cust
        widened = projection.vector("o_note")
        assert widened is not note
        assert widened.values.dtype.itemsize > note.values.dtype.itemsize
        assert LONG_NOTE in widened.values
        assert DATE_EXTREMES[1] in projection.vector("o_date").values
        assert table.columnar().invalidations == 0
        # A NULL literal sends the scan to the interpreter before any
        # charge; its rows, metrics and ticks equal a plainly interpreted
        # run's.
        fallbacks = eng.executor.fallback_counts["literal"]
        scan = SelectQuery(
            "orders", ("o_id", "o_note"),
            (Predicate("o_date", Op.NEQ, 3), Predicate("o_note", Op.NEQ, None)),
        )
        result, ticks = counted(eng.execute, scan)
        assert eng.executor.fallback_counts["literal"] == fallbacks + 1
        assert {"o_id": 4, "o_note": LONG_NOTE} in result.rows
        eng.settings.execution.vector_min_rows = sys.maxsize
        interpreted, interpreted_ticks = counted(eng.execute, scan)
        assert result.rows == interpreted.rows
        assert result.metrics == interpreted.metrics
        assert ticks == interpreted_ticks
        # ``ix_cust`` includes ``o_date``: its built projection folds the
        # value as a fresh one builds it.
        assert_equals_fresh(table, "ix_cust")
