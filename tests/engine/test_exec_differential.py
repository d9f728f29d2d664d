"""Differential testing: the vector path is indistinguishable from the
interpreter.

Two engines over identical data execute every generated query, one
pinned to the interpreter and one to the vector path (through
``vector_min_rows``).  For each query the row lists must be equal as
typed cells (values, value types, key and row order, and float bits)
and the ExecutionMetrics must be equal with ``==`` — including the
noise multipliers, which only agree if both paths consume the executor
RNG identically — and the ``btree_seek``, ``btree_range_scan`` and
``btree_scan`` hot-path counts must be equal, so a batch operator ticks
the seeks and scans the interpreter's walks tick.  DML maintenance has one path and so no pair:
it is held to literals recorded from the row loop it replaced and to the
property that grouping rows into a statement is unobservable.  DML
target collection follows the SELECT gate, and that property runs each
statement with the gate open and shut.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Op, OrderItem, Predicate, SelectQuery
from repro.engine.exec import InterpExecutor, Meterings
from repro.engine.exec import dispatch
from repro.engine.exec.dispatch import CPU_MS_PER_PAGE, CPU_MS_PER_ROW
from repro.engine.plans import (
    PARAM,
    ClusteredScanNode,
    ClusteredSeekNode,
    HashJoinNode,
    IndexScanNode,
    IndexSeekNode,
    KeyLookupNode,
    NestedLoopJoinNode,
    SortNode,
    StreamAggregateNode,
)
from repro.engine.query import (
    Aggregate,
    AggFunc,
    DeleteQuery,
    InsertQuery,
    JoinSpec,
    UpdateQuery,
)
from repro.errors import ReproError
from repro.observability.profiling import Profiler, use_profiler
from tests.engine.test_optimizer import perfect_engine

#: Boundary literals, drawn half the time: BIGINT either side of
#: ±2**53 and at ±(2**63-1); FLOAT -0.0, ±inf and subnormals; TEXT with
#: quotes and non-ASCII characters.
_BIG_INTS = st.sampled_from(
    [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, -(2**53), 2**63 - 1, -(2**63 - 1)]
)
_ODD_FLOATS = st.sampled_from([-0.0, math.inf, -math.inf, 5e-324, -2.5e-310])
_ODD_TEXTS = st.text(alphabet="note-'é字😀0", max_size=6)


def ints(low, high):
    return st.one_of(st.integers(low, high), _BIG_INTS)


def floats(low, high):
    return st.one_of(st.floats(low, high, allow_nan=False), _ODD_FLOATS)


def texts(values):
    return st.one_of(st.sampled_from(values), _ODD_TEXTS)


COLUMNS = {
    "o_id": ints(0, 4100),
    "o_cust": ints(0, 210),
    "o_status": ints(0, 6),
    "o_amount": floats(0, 1100),
    "o_date": ints(0, 370),
    "o_note": texts([f"note-{i}" for i in range(18)]),
}

#: Non-key columns only: primary-key predicates optimize into clustered
#: seeks, which both modes interpret.  Predicates on the columns that
#: lead ``ORDERS_INDEXES`` give index seeks: equality prefixes, ranges,
#: residuals, sorts and aggregates over them, vectorized.
FILTER_COLUMNS = sorted(set(COLUMNS) - {"o_id"})

#: Secondary indexes of both engines' ``orders``.  Each covers some
#: queries (a bare seek) and not others (a seek under a key lookup).
ORDERS_INDEXES = (
    ("ix_cust", ("o_cust",), ("o_amount", "o_note")),
    ("ix_date_status", ("o_date", "o_status"), ("o_amount",)),
    ("ix_note", ("o_note",), ("o_cust", "o_status", "o_date")),
)

OPS = [Op.EQ, Op.NEQ, Op.LT, Op.LE, Op.GT, Op.GE, Op.BETWEEN]

AGG_FUNCS = [
    Aggregate(AggFunc.COUNT),
    Aggregate(AggFunc.COUNT, "o_cust"),
    Aggregate(AggFunc.SUM, "o_amount"),
    Aggregate(AggFunc.AVG, "o_amount"),
    Aggregate(AggFunc.MIN, "o_note"),
    Aggregate(AggFunc.MAX, "o_date"),
    Aggregate(AggFunc.SUM, "o_cust"),
    Aggregate(AggFunc.MIN, "o_amount"),
    Aggregate(AggFunc.MAX, "o_note"),
]

#: Columns the ``engine_pair`` data holds NULL in, on a seeded share of
#: rows: NULL group keys and NULL-bearing aggregate columns.
NULLED_COLUMNS = ("o_amount", "o_cust", "o_note")
NULL_SHARE = 0.05

#: ``orders`` ids the ``engine_pair`` data deletes: four whole clustered
#: leaves, left empty (deletes never rebalance), so the key lookup of
#: the next leaf's first key, a separator, walks across an empty leaf.
DELETED_IDS = range(1180, 1416)


#: Hot paths both executors tick once per walk.  The batch path charges
#: a full scan's pages from the tree's geometry without walking it, and
#: ticks ``btree_scan`` once for it all the same.
WALK_TICKS = ("btree_seek", "btree_range_scan", "btree_scan")


def btree_counts(profiler):
    """The :data:`WALK_TICKS` counts a profiler collected."""
    stats = profiler.stats()
    return {name: stats[name].calls for name in WALK_TICKS if name in stats}


def counted(run, *args):
    """``run(*args)`` and the :data:`WALK_TICKS` counts it ticked."""
    profiler = Profiler()
    with use_profiler(profiler):
        result = run(*args)
    return result, btree_counts(profiler)


def assert_paths_agree(interp, vector, query):
    """Rows, metrics and walk ticks of one query on both engines."""
    expected, expected_ticks = counted(interp.execute, query)
    got, ticks = counted(vector.execute, query)
    assert typed(got.rows) == typed(expected.rows)
    assert got.metrics == expected.metrics
    assert ticks == expected_ticks
    return got, expected


def leaf_sizes(tree):
    """Entries per leaf of ``tree``, in leaf-chain order."""
    node = tree._root
    while not node.leaf:
        node = node.children[0]
    sizes = []
    while node is not None:
        sizes.append(len(node.nkeys))
        node = node.next
    return sizes


def typed(rows):
    """Rows as typed cells, key order kept: ``==`` alone takes ``1``,
    ``1.0`` and ``True`` for one value, and ``-0.0`` for ``0.0``."""
    return [
        [
            (name, type(cell), cell.hex() if isinstance(cell, float) else cell)
            for name, cell in row.items()
        ]
        for row in rows
    ]


@st.composite
def predicates(draw):
    column = draw(st.sampled_from(FILTER_COLUMNS))
    op = draw(st.sampled_from(OPS))
    value = draw(COLUMNS[column])
    if op is Op.BETWEEN:
        value2 = draw(COLUMNS[column])
        low, high = sorted((value, value2))
        return Predicate(column, op, low, high)
    return Predicate(column, op, value)


@st.composite
def order_items(draw, columns):
    column = draw(st.sampled_from(columns))
    return OrderItem(column, ascending=draw(st.booleans()))


@st.composite
def select_queries(draw):
    # Up to three: a seek's prefix, then residuals on the index entry and
    # on the looked-up row.
    preds = tuple(draw(st.lists(predicates(), max_size=3)))
    limit = draw(st.one_of(st.none(), st.integers(0, 60)))
    shape = draw(st.sampled_from(["plain", "agg", "order"]))
    if shape == "agg":
        group = tuple(
            draw(
                st.lists(
                    st.sampled_from(["o_status", "o_cust", "o_note"]),
                    min_size=0,
                    max_size=2,
                    unique=True,
                )
            )
        )
        aggregates = tuple(
            draw(st.lists(st.sampled_from(AGG_FUNCS), min_size=1, max_size=3))
        )
        order_by = ()
        if group and draw(st.booleans()):
            order_by = (draw(order_items(list(group))),)
        return SelectQuery(
            "orders",
            predicates=preds,
            group_by=group,
            aggregates=tuple(dict.fromkeys(aggregates)),
            order_by=order_by,
            limit=limit,
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
        order_by = tuple(
            draw(st.lists(order_items(sorted(COLUMNS)), min_size=1, max_size=3))
        )
        return SelectQuery(
            "orders",
            select_columns=projection,
            predicates=preds,
            order_by=order_by,
            limit=limit,
        )
    return SelectQuery(
        "orders", select_columns=projection, predicates=preds, limit=limit
    )


def _indexed_orders_engine():
    import numpy as np

    from repro.engine import IndexDefinition

    eng = perfect_engine(seed=4242)
    orders = eng.database.tables["orders"]
    rng = np.random.default_rng(55)
    for column in NULLED_COLUMNS:
        rows = [row for row in orders.rows() if rng.random() < NULL_SHARE]
        orders.update_rows(rows, [(column, None)])
    orders.delete_rows([row for row in orders.rows() if row[0] in DELETED_IDS])
    eng.build_all_statistics()
    for name, keys, included in ORDERS_INDEXES:
        eng.create_index(IndexDefinition(name, "orders", keys, included))
    return eng


@pytest.fixture
def noisy(monkeypatch):
    """Noise on: metric equality then also proves RNG-draw parity."""
    monkeypatch.setattr(dispatch, "NOISE_SIGMA", 0.05)


@pytest.fixture(scope="module")
def engine_pair():
    """Run under ``noisy``."""
    interp = _indexed_orders_engine()
    vector = _indexed_orders_engine()
    interp.settings.execution.vector_min_rows = sys.maxsize
    vector.settings.execution.vector_min_rows = 0
    return interp, vector


@pytest.mark.usefixtures("noisy")
@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_paths_indistinguishable(engine_pair, query):
    assert_paths_agree(*engine_pair, query)


@pytest.mark.usefixtures("noisy")
def test_vector_path_was_exercised(engine_pair):
    """Guard against the property passing vacuously (e.g. a dispatch bug
    sending everything to the interpreter)."""
    interp, vector = engine_pair
    query = SelectQuery("orders", ("o_id",))
    interp.execute(query)
    vector.execute(query)
    assert vector.executor.vector_statements > 0
    assert interp.executor.vector_statements == 0
    # A seek-sourced statement vectorizes too, and matches the interpreter.
    seek = SelectQuery(
        "orders", ("o_cust", "o_amount"), (Predicate("o_cust", Op.EQ, 7),)
    )
    before = vector.executor.vector_statements
    expected, got = interp.execute(seek), vector.execute(seek)
    assert isinstance(got.plan, IndexSeekNode)
    assert vector.executor.vector_statements == before + 1
    assert got.rows == expected.rows != [] and got.metrics == expected.metrics
    # A key lookup of every row with a customer: keys that equal a
    # separator (each leaf's first) pay a hop, the first key past the
    # emptied leaves walks across one, and both paths charge and tick
    # them alike.  Then the lookup over an index scan, with residuals on
    # the entry and on the row, under a sort and under an aggregate.
    tree = vector.database.tables["orders"].clustered
    assert not all(leaf_sizes(tree)) and len(tree) == 4000 - len(DELETED_IDS)
    every = SelectQuery(
        "orders",
        ("o_id", "o_date"),
        (Predicate("o_cust", Op.GE, 0),),
        index_hint="ix_cust",
    )
    got, expected = assert_paths_agree(interp, vector, every)
    assert isinstance(got.plan, KeyLookupNode) and len(got.rows) > 3000
    assert DELETED_IDS.stop in {row["o_id"] for row in got.rows}
    unestimated = {"est_rows": 0.0, "est_cost": 0.0}
    scan = KeyLookupNode(
        **unestimated,
        child=IndexScanNode(
            **unestimated,
            table="orders",
            index_name="ix_cust",
            residual=(Predicate("o_amount", Op.GT, 400.0),),
        ),
        table="orders",
        residual=(Predicate("o_date", Op.LT, 200),),
    )
    query = SelectQuery(
        "orders",
        ("o_id", "o_date"),
        (Predicate("o_amount", Op.GT, 400.0), Predicate("o_date", Op.LT, 200)),
    )
    by_date = (OrderItem("o_date", ascending=False),)
    plans = [
        (scan, query),
        (SortNode(**unestimated, child=scan, order_by=by_date),
         dataclasses.replace(query, order_by=by_date)),
        (StreamAggregateNode(
            **unestimated,
            child=scan,
            aggregates=(Aggregate(AggFunc.SUM, "o_date"),),
        ),
         SelectQuery(
             "orders",
             predicates=query.predicates,
             aggregates=(Aggregate(AggFunc.SUM, "o_date"),),
         )),
    ]
    for plan, query in plans:
        before = vector.executor.vector_statements
        (want, want_metrics), want_ticks = counted(
            interp.executor.execute, plan, query
        )
        (rows, metrics), ticks = counted(vector.executor.execute, plan, query)
        assert vector.executor.vector_statements == before + 1
        assert typed(rows) == typed(want) != [] and metrics == want_metrics
        assert ticks == want_ticks
    for engine in engine_pair:  # each interpreted statement has one reason
        counts = engine.executor.fallback_counts
        assert tuple(counts) == ("threshold", "shape", "literal")
        assert sum(counts.values()) == engine.executor.interp_statements


# ----------------------------------------------------------------------
# Joins and DML
#
# A second fixture pair with data the single-table suite cannot produce:
# NULL join keys on both sides, duplicate keys (one-to-many fan-out),
# key ranges that miss entirely (empty build side), and a secondary
# index on the dim key so the optimizer sometimes picks a nested-loop
# join over the hash join.  Indexes on ``f_note`` and ``d_cat`` let
# either side of a hash join be an index seek.  The DML table carries
# two secondary indexes so grouped maintenance totals have something to
# get wrong.


def _joined_engine(seed: int):
    import numpy as np

    from repro.engine import (
        Column,
        Database,
        IndexDefinition,
        SqlEngine,
        SqlType,
        TableSchema,
    )
    from repro.engine.cost_model import CostModelSettings
    from repro.engine.engine import EngineSettings

    db = Database("joined", seed=seed)
    fact = db.create_table(
        TableSchema(
            "f",
            [
                Column("f_id", SqlType.BIGINT, nullable=False),
                Column("f_key", SqlType.INT),
                Column("f_val", SqlType.FLOAT),
                Column("f_note", SqlType.TEXT),
            ],
            primary_key=["f_id"],
        )
    )
    dim = db.create_table(
        TableSchema(
            "d",
            [
                Column("d_id", SqlType.INT, nullable=False),
                Column("d_key", SqlType.INT),
                Column("d_num", SqlType.INT),
                Column("d_cat", SqlType.TEXT),
            ],
            primary_key=["d_id"],
        )
    )
    work = db.create_table(
        TableSchema(
            "w",
            [
                Column("w_id", SqlType.INT, nullable=False),
                Column("w_a", SqlType.INT),
                Column("w_b", SqlType.FLOAT),
                Column("w_c", SqlType.TEXT),
            ],
            primary_key=["w_id"],
        )
    )
    rng = np.random.default_rng(77)
    for i in range(900):
        key = None if rng.random() < 0.08 else int(rng.integers(0, 40))
        fact.insert((i, key, float(rng.random() * 100), f"n-{i % 13}"))
    for i in range(120):
        # Keys 0..29 overlap the fact side (with duplicates); 50..59 miss.
        key = None if rng.random() < 0.1 else int(
            rng.integers(0, 30) if rng.random() < 0.8 else rng.integers(50, 60)
        )
        dim.insert((i, key, int(rng.integers(0, 8)), f"c-{i % 7}"))
    dim.create_index(IndexDefinition("ix_d_key", "d", ("d_key",)))
    dim.create_index(
        IndexDefinition(
            "ix_d_cat", "d", ("d_cat",), included_columns=("d_key",)
        )
    )
    fact.create_index(
        IndexDefinition(
            "ix_f_note", "f", ("f_note",), included_columns=("f_key", "f_val")
        )
    )
    # Covers no other column: a seek on it feeds a key lookup.
    fact.create_index(IndexDefinition("ix_f_val", "f", ("f_val",)))
    for i in range(300):
        work.insert(
            (
                i,
                None if rng.random() < 0.1 else int(rng.integers(0, 25)),
                None if rng.random() < 0.1 else float(rng.random() * 50),
                f"w-{i % 11}",
            )
        )
    work.create_index(IndexDefinition("ix_w_a", "w", ("w_a",)))
    work.create_index(
        IndexDefinition("ix_w_b", "w", ("w_b",), included_columns=("w_c",))
    )
    settings = EngineSettings(
        cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0)
    )
    eng = SqlEngine(db, settings=settings)
    eng.build_all_statistics()
    return eng


@pytest.fixture(scope="module")
def joined_pair():
    """Run under ``noisy``."""
    interp = _joined_engine(seed=91)
    vector = _joined_engine(seed=91)
    interp.settings.execution.vector_min_rows = sys.maxsize
    vector.settings.execution.vector_min_rows = 0
    return interp, vector


F_COLUMNS = sorted(["f_id", "f_key", "f_val", "f_note"])
D_COLUMNS = sorted(["d_id", "d_key", "d_num", "d_cat"])

D_VALUES = {
    "d_id": ints(0, 125),
    "d_key": ints(-5, 62),
    "d_num": ints(-5, 9),
    "d_cat": texts([f"c-{i}" for i in range(9)]),
}
F_VALUES = {
    "f_id": ints(0, 950),
    "f_key": ints(-5, 62),
    "f_val": floats(0, 110),
    "f_note": texts([f"n-{i}" for i in range(15)]),
}


@st.composite
def side_predicates(draw, values, columns):
    column = draw(st.sampled_from(columns))
    op = draw(st.sampled_from(OPS))
    value = draw(values[column])
    if op is Op.BETWEEN:
        value2 = draw(values[column])
        low, high = sorted((value, value2))
        return Predicate(column, op, low, high)
    return Predicate(column, op, value)


@st.composite
def join_queries(draw):
    left_preds = tuple(
        draw(
            st.lists(
                side_predicates(F_VALUES, ["f_key", "f_val", "f_note"]),
                max_size=2,
            )
        )
    )
    right_preds = tuple(
        draw(
            st.lists(
                side_predicates(D_VALUES, ["d_key", "d_num", "d_cat"]),
                max_size=2,
            )
        )
    )
    join_select = tuple(
        draw(st.lists(st.sampled_from(D_COLUMNS), max_size=2, unique=True))
    )
    join = JoinSpec(
        "d",
        left_column="f_key",
        right_column="d_key",
        predicates=right_preds,
        select_columns=join_select,
    )
    limit = draw(st.one_of(st.none(), st.integers(0, 40)))
    shape = draw(st.sampled_from(["plain", "agg", "order"]))
    if shape == "agg":
        # Group/order/aggregate columns must come from the driving
        # table — a pre-existing planner restriction, same on both
        # executor paths.
        group = tuple(
            draw(
                st.lists(
                    st.sampled_from(["f_note", "f_key"]),
                    max_size=2,
                    unique=True,
                )
            )
        )
        aggregates = tuple(
            dict.fromkeys(
                draw(
                    st.lists(
                        st.sampled_from(
                            [
                                Aggregate(AggFunc.COUNT),
                                Aggregate(AggFunc.COUNT, "f_key"),
                                Aggregate(AggFunc.SUM, "f_val"),
                                Aggregate(AggFunc.AVG, "f_val"),
                                Aggregate(AggFunc.MIN, "f_note"),
                                Aggregate(AggFunc.MAX, "f_id"),
                            ]
                        ),
                        min_size=1,
                        max_size=3,
                    )
                )
            )
        )
        order_by = ()
        if group and draw(st.booleans()):
            order_by = (draw(order_items(list(group))),)
        return SelectQuery(
            "f",
            predicates=left_preds,
            join=join,
            group_by=group,
            aggregates=aggregates,
            order_by=order_by,
            limit=limit,
        )
    projection = tuple(
        draw(st.lists(st.sampled_from(F_COLUMNS), max_size=2, unique=True))
    )
    if shape == "order":
        order_by = tuple(
            draw(st.lists(order_items(F_COLUMNS), min_size=1, max_size=2))
        )
    else:
        order_by = ()
    return SelectQuery(
        "f",
        select_columns=projection,
        predicates=left_preds,
        join=join,
        order_by=order_by,
        limit=limit,
    )


@pytest.mark.usefixtures("noisy")
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=join_queries())
def test_property_join_paths_indistinguishable(joined_pair, query):
    assert_paths_agree(*joined_pair, query)


@pytest.mark.usefixtures("noisy")
def test_hash_join_vector_path_was_exercised(joined_pair):
    """The join property must not pass because joins all fell back."""
    interp, vector = joined_pair
    before = vector.executor.vector_statements
    query = SelectQuery(
        "f",
        select_columns=("f_id", "f_val"),
        join=JoinSpec("d", left_column="f_key", right_column="d_key"),
    )
    interp.execute(query)  # keep the paired noise RNG streams lockstep
    result = vector.execute(query)
    assert result.rows  # the join actually matched something
    assert vector.executor.vector_statements == before + 1
    # Seeks on both sides: the probe and the build are index seeks.
    query = SelectQuery(
        "f",
        select_columns=("f_id", "f_val"),
        predicates=(Predicate("f_note", Op.EQ, "n-3"),),
        join=JoinSpec(
            "d",
            left_column="f_key",
            right_column="d_key",
            predicates=(Predicate("d_cat", Op.EQ, "c-2"),),
        ),
    )
    expected, result = interp.execute(query), vector.execute(query)
    assert isinstance(result.plan.outer, IndexSeekNode)
    assert isinstance(result.plan.inner, IndexSeekNode)
    assert vector.executor.vector_statements == before + 2
    assert result.rows == expected.rows != []
    assert result.metrics == expected.metrics
    # Key lookups on both sides: the probe's seek covers no f_note, the
    # build's no d_num.
    query = SelectQuery(
        "f",
        select_columns=("f_id", "f_note"),
        predicates=(Predicate("f_val", Op.BETWEEN, 10.0, 40.0),),
        index_hint="ix_f_val",
        join=JoinSpec(
            "d",
            left_column="f_key",
            right_column="d_key",
            predicates=(
                Predicate("d_cat", Op.EQ, "c-2"),
                Predicate("d_num", Op.LT, 6),
            ),
            select_columns=("d_num",),
        ),
    )
    result, expected = assert_paths_agree(interp, vector, query)
    assert isinstance(result.plan, HashJoinNode)
    assert isinstance(result.plan.outer, KeyLookupNode)
    assert vector.executor.vector_statements == before + 3
    assert result.rows != []
    # The optimizer scans ``d`` (120 rows) whole; seek it too.
    inner = KeyLookupNode(
        est_rows=0.0,
        est_cost=0.0,
        child=IndexSeekNode(
            est_rows=0.0,
            est_cost=0.0,
            table="d",
            index_name="ix_d_cat",
            eq_predicates=(Predicate("d_cat", Op.EQ, "c-2"),),
            covering=False,
        ),
        table="d",
        residual=(Predicate("d_num", Op.LT, 6),),
    )
    plan = dataclasses.replace(result.plan, inner=inner)
    (want, want_metrics), want_ticks = counted(
        interp.executor.execute, plan, query
    )
    (rows, metrics), ticks = counted(vector.executor.execute, plan, query)
    assert vector.executor.vector_statements == before + 4
    assert typed(rows) == typed(want) == typed(expected.rows)
    assert metrics == want_metrics and ticks == want_ticks
    # A NULL residual on the probe side refuses the plan before the build
    # side's lookup is charged: rows, metrics and ticks are the
    # interpreter's, and nothing was batched.
    outer = ClusteredScanNode(
        est_rows=0.0,
        est_cost=0.0,
        table="f",
        residual=(Predicate("f_val", Op.EQ, None),),
    )
    plan = dataclasses.replace(plan, outer=outer)
    literal = vector.executor.fallback_counts["literal"]
    batch_rows = vector.executor.batch_rows
    (want, want_metrics), want_ticks = counted(
        interp.executor.execute, plan, query
    )
    (rows, metrics), ticks = counted(vector.executor.execute, plan, query)
    assert vector.executor.fallback_counts["literal"] == literal + 1
    assert vector.executor.batch_rows == batch_rows
    assert rows == want == []
    assert metrics == want_metrics and ticks == want_ticks
    assert ticks["btree_seek"] > 1  # the build side's walk and lookups


@pytest.mark.usefixtures("noisy")
def test_join_empty_build_side(joined_pair):
    interp, vector = joined_pair
    query = SelectQuery(
        "f",
        select_columns=("f_id",),
        join=JoinSpec(
            "d",
            left_column="f_key",
            right_column="d_key",
            predicates=(Predicate("d_num", Op.EQ, -99),),
        ),
    )
    expected = interp.execute(query)
    got = vector.execute(query)
    assert expected.rows == [] and got.rows == []
    assert got.metrics == expected.metrics


def _exact_engine(min_rows: int):
    """``t`` keyed by BIGINT ids 2**53 + i — consecutive ids a float
    image of the key would collide — with an indexed twin ``w`` of
    ``id``, an indexed ``v`` and its unindexed twin ``u``; ``n`` holds
    numeric text ``n_s`` to join to ``v``, and ``g`` the FLOAT ``g_f``
    2.0**53 (and 0.5) to join to ``w``."""
    from repro.engine import (
        Column,
        Database,
        IndexDefinition,
        SqlEngine,
        SqlType,
        TableSchema,
    )

    db = Database("exact", seed=5)
    table = db.create_table(
        TableSchema(
            "t",
            [
                Column("id", SqlType.BIGINT, nullable=False),
                Column("v", SqlType.INT),
                Column("w", SqlType.BIGINT),
                Column("u", SqlType.INT),
            ],
            primary_key=["id"],
        )
    )
    for i in range(3000):
        table.insert((2**53 + i, i % 100, 2**53 + i, i % 100))
    text = db.create_table(
        TableSchema(
            "n",
            [
                Column("n_id", SqlType.INT, nullable=False),
                Column("n_s", SqlType.TEXT),
            ],
        )
    )
    for i in range(50):
        text.insert((i, str(i)))
    floats = db.create_table(
        TableSchema(
            "g",
            [
                Column("g_id", SqlType.INT, nullable=False),
                Column("g_f", SqlType.FLOAT),
            ],
        )
    )
    floats.insert((0, 2.0**53))
    floats.insert((1, 0.5))
    eng = SqlEngine(db)
    eng.settings.execution.vector_min_rows = min_rows
    eng.create_index(IndexDefinition("ix_v", "t", ("v",)))
    eng.create_index(IndexDefinition("ix_w", "t", ("w",)))
    eng.build_all_statistics()
    return eng


def test_exact_keys_and_bound_literals_on_every_access_path():
    """BIGINT keys past 2**53 stay distinct, and a literal is converted
    to its column's type once, so the clustered seek, index seek, range
    seek and scan return the rows a filter over the data does — on the
    interpreter and the vector executor alike."""
    big = 2**53
    data = [
        {"id": big + i, "v": i % 100, "w": big + i, "u": i % 100}
        for i in range(3000)
    ]
    cases = [
        # (predicate, index hint, node the plan must contain, filter)
        (Predicate("id", Op.EQ, big + 3), None, ClusteredSeekNode,
         lambda r: r["id"] == big + 3),
        (Predicate("id", Op.BETWEEN, big + 3, big + 5), None,
         ClusteredSeekNode, lambda r: big + 3 <= r["id"] <= big + 5),
        (Predicate("w", Op.EQ, big + 1), "ix_w", IndexSeekNode,
         lambda r: r["w"] == big + 1),
        (Predicate("w", Op.GT, big + 2996), "ix_w", IndexSeekNode,
         lambda r: r["w"] > big + 2996),
        (Predicate("id", Op.EQ, str(big + 3)), None, ClusteredSeekNode,
         lambda r: r["id"] == big + 3),
        (Predicate("v", Op.GE, "95"), "ix_v", IndexSeekNode,
         lambda r: r["v"] >= 95),
        (Predicate("u", Op.EQ, "5"), None, ClusteredScanNode,
         lambda r: r["u"] == 5),
    ]
    joined_outcomes = []
    for eng in (_exact_engine(sys.maxsize), _exact_engine(0)):
        for predicate, hint, node, keep in cases:
            query = SelectQuery(
                "t", ("id",), (predicate,), index_hint=hint
            )
            result = eng.execute(query)
            assert any(isinstance(n, node) for n in result.plan.walk())
            want = sorted(r["id"] for r in data if keep(r))
            assert sorted(r["id"] for r in result.rows) == want != []
        # A text value never equals a number: a nested-loop join probing
        # the INT index with TEXT values matches nothing (and no seek
        # orders a string against the index's ints).
        joined = SelectQuery(
            "n",
            ("n_id",),
            (Predicate("n_id", Op.EQ, 7),),
            join=JoinSpec("t", left_column="n_s", right_column="v"),
        )
        result = eng.execute(joined)
        assert isinstance(result.plan, NestedLoopJoinNode)
        assert result.rows == []
        # Int and float join keys compare exactly, as Python ``==`` does:
        # the BIGINT 2**53 + 1, whose float64 image is 2.0**53, does not
        # equal the FLOAT 2.0**53, and the batch hash join says so without
        # falling back.  (``u >= 1`` keeps the key 2**53 itself off the
        # probe.)
        joined = SelectQuery(
            "t",
            ("id",),
            (Predicate("u", Op.GE, 1),),
            join=JoinSpec("g", left_column="w", right_column="g_f"),
        )
        before = eng.executor.vector_statements
        result = eng.execute(joined)
        assert isinstance(result.plan, HashJoinNode)
        vectorized = eng.settings.execution.vector_min_rows == 0
        assert eng.executor.vector_statements == before + vectorized
        assert result.rows == []
        joined_outcomes.append(result.metrics)
    assert joined_outcomes[0] == joined_outcomes[1]


def _seek_engine(min_rows: int):
    """``p`` keyed by the composite ``(p_a, p_b)``, five rows per
    ``p_a`` in 0..39; ``k`` keyed by the TEXT ``k_s``, "0".."49"; ``o``
    with the INT ``o_a`` (duplicates, NULLs, 40..44 in no ``p`` key) and
    the numeric TEXT ``o_s`` to probe them with."""
    from repro.engine import Column, Database, SqlEngine, SqlType, TableSchema

    db = Database("seeks", seed=3)
    parent = db.create_table(
        TableSchema(
            "p",
            [
                Column("p_a", SqlType.INT, nullable=False),
                Column("p_b", SqlType.INT, nullable=False),
                Column("p_v", SqlType.FLOAT),
            ],
            primary_key=["p_a", "p_b"],
        )
    )
    for a in range(40):
        for b in range(5):
            parent.insert((a, b, None if (a + b) % 9 == 0 else a + b / 8))
    keyed = db.create_table(
        TableSchema(
            "k",
            [
                Column("k_s", SqlType.TEXT, nullable=False),
                Column("k_n", SqlType.INT),
            ],
            primary_key=["k_s"],
        )
    )
    for i in range(50):
        keyed.insert((str(i), i))
    outer = db.create_table(
        TableSchema(
            "o",
            [
                Column("o_id", SqlType.INT, nullable=False),
                Column("o_a", SqlType.INT),
                Column("o_s", SqlType.TEXT),
            ],
            primary_key=["o_id"],
        )
    )
    for i in range(300):
        outer.insert((i, None if i % 11 == 0 else i % 45, str(i % 60)))
    eng = SqlEngine(db)
    eng.settings.execution.vector_min_rows = min_rows
    eng.build_all_statistics()
    return eng


@pytest.mark.usefixtures("noisy")
def test_every_emitted_shape_vectorizes():
    """Clustered seeks and nested-loop joins over a clustered-seek inner
    run on the batch operators, as do hash joins with a clustered-seek
    side and UPDATE/DELETE targets read through a clustered seek: each
    adds one vectorized statement and returns the interpreter's rows,
    metrics and walk ticks."""
    interp, vector = _seek_engine(sys.maxsize), _seek_engine(0)
    unestimated = {"est_rows": 0.0, "est_cost": 0.0}
    first_120 = (Predicate("o_id", Op.LT, 120),)

    def nl_join(left, table, right, inner_residual=()):
        """``o`` (first 120 ids) joined to ``table`` by seeking ``right``
        with each outer ``left`` value."""
        outer = ClusteredSeekNode(
            **unestimated, table="o", range_predicate=first_120[0]
        )
        inner = ClusteredSeekNode(
            **unestimated,
            table=table,
            eq_predicates=(Predicate(right, Op.EQ, PARAM),),
            residual=inner_residual,
        )
        join = JoinSpec(
            table,
            left_column=left,
            right_column=right,
            predicates=inner_residual,
            select_columns=("p_b", "p_v") if table == "p" else ("k_n",),
        )
        plan = NestedLoopJoinNode(
            **unestimated, outer=outer, inner=inner, join=join
        )
        return plan, SelectQuery("o", ("o_id", "o_a"), first_120, join=join)

    # A prefix of the composite key, probed with duplicate and NULL outer
    # keys and with keys no row has, under a residual and under a sort;
    # a text key probed with numbers, and with text; an INT key probed
    # with text.
    by_key = (OrderItem("o_a", ascending=False), OrderItem("o_id"))
    prefix, prefix_query = nl_join(
        "o_a", "p", "p_a", (Predicate("p_b", Op.NEQ, 3),)
    )
    cases = [
        (prefix, prefix_query, 404),  # 4 rows per matched key
        (SortNode(**unestimated, child=prefix, order_by=by_key),
         dataclasses.replace(prefix_query, order_by=by_key), 404),
        (*nl_join("o_a", "k", "k_s"), 0),
        (*nl_join("o_s", "k", "k_s"), 100),
        (*nl_join("o_s", "p", "p_a"), 0),
    ]
    for plan, query, matched in cases:
        before = vector.executor.vector_statements
        (want, want_metrics), want_ticks = counted(
            interp.executor.execute, plan, query
        )
        (rows, metrics), ticks = counted(vector.executor.execute, plan, query)
        assert vector.executor.vector_statements == before + 1
        assert typed(rows) == typed(want) and metrics == want_metrics
        assert ticks == want_ticks and len(rows) == matched
    outer_keys = [row[1] for row in interp.database.tables["o"].rows()][:120]
    assert None in outer_keys and len(set(outer_keys)) < len(outer_keys)
    assert ticks == {"btree_range_scan": 1}  # no text probe walked
    # What the optimizer emits: a hash join of two clustered seeks, a
    # clustered seek on a NULL literal, and an UPDATE and a DELETE whose
    # targets a clustered seek reads (through the batch operator: it
    # ticks ``vector_batch``).
    joined = SelectQuery(
        "o",
        ("o_id",),
        (Predicate("o_id", Op.LT, 200),),
        join=JoinSpec(
            "p",
            left_column="o_a",
            right_column="p_a",
            predicates=(Predicate("p_a", Op.BETWEEN, 3, 9),),
        ),
    )
    null_seek = SelectQuery("p", ("p_b",), (Predicate("p_a", Op.EQ, None),))
    plans = []
    for query in (joined, null_seek):
        before = vector.executor.vector_statements
        got, _expected = assert_paths_agree(interp, vector, query)
        assert vector.executor.vector_statements == before + 1
        plans.append(got.plan)
    assert isinstance(plans[0], HashJoinNode)
    assert isinstance(plans[0].outer, ClusteredSeekNode)
    assert isinstance(plans[1], ClusteredSeekNode) and got.rows == []
    for statement in (
        UpdateQuery("p", (("p_v", 1.5),), (Predicate("p_a", Op.EQ, 7),)),
        DeleteQuery("o", (Predicate("o_id", Op.BETWEEN, 200, 210),)),
    ):
        before = vector.executor.vector_statements
        outcomes = []
        for engine in (interp, vector):
            profiler = Profiler()
            with use_profiler(profiler):
                result = engine.execute(statement)
            batches = [
                stats.calls
                for name, stats in profiler.stats().items()
                if name == "vector_batch"
            ]
            outcomes.append((result.metrics, btree_counts(profiler), batches))
            assert isinstance(result.plan.child, ClusteredSeekNode)
        assert vector.executor.vector_statements == before + 1
        assert outcomes[0][:2] == outcomes[1][:2]
        assert (outcomes[0][2], outcomes[1][2]) == ([], [1])
    for name in ("p", "o"):
        assert list(interp.database.tables[name].rows()) == list(
            vector.database.tables[name].rows()
        )
    assert vector.executor.interp_statements == 0


@st.composite
def dml_statements(draw):
    kind = draw(st.sampled_from(["insert", "update", "delete", "bulk"]))
    if kind in ("insert", "bulk"):
        n = draw(st.integers(1, 12)) if kind == "bulk" else 1
        rows = tuple(
            (
                draw(ints(0, 5000)),
                draw(st.one_of(st.none(), ints(0, 25))),
                draw(st.one_of(st.none(), floats(0, 50))),
                draw(texts([f"w-{i}" for i in range(13)])),
            )
            for _ in range(n)
        )
        return InsertQuery("w", rows, bulk=kind == "bulk")
    preds = tuple(
        draw(
            st.lists(
                side_predicates(
                    {
                        "w_id": ints(0, 5200),
                        "w_a": ints(-2, 27),
                        "w_b": floats(0, 55),
                    },
                    ["w_id", "w_a", "w_b"],
                ),
                min_size=1,
                max_size=2,
            )
        )
    )
    if kind == "delete":
        return DeleteQuery("w", predicates=preds)
    column = draw(st.sampled_from(["w_a", "w_b", "w_c", "w_id"]))
    if column == "w_a":
        value = draw(st.one_of(st.none(), ints(0, 25)))
    elif column == "w_b":
        value = draw(st.one_of(st.none(), floats(0, 50)))
    elif column == "w_c":
        value = draw(texts([f"w-{i}" for i in range(13)]))
    else:
        value = draw(ints(6000, 9000))
    return UpdateQuery("w", assignments=((column, value),), predicates=preds)


def w_trees(eng):
    table = eng.database.tables["w"]
    return [table.clustered] + [
        table.indexes[name].tree for name in sorted(table.indexes)
    ]


def w_state(eng):
    """Everything a write leaves behind in ``w``."""
    return eng.database.tables["w"].data_version, [
        (tree.snapshot(), tree.height, tree.leaf_page_count)
        for tree in w_trees(eng)
    ]


def read_side(eng, statement):
    """An UPDATE/DELETE's target rows in plan order, and the pages and
    rows reading them charges."""
    if isinstance(statement, InsertQuery):
        return [], 0, 0
    meters = Meterings()
    child = eng.optimizer.optimize(statement).child
    rows = list(InterpExecutor(eng.database.tables).iterate(child, meters))
    return rows, meters.page_meter.pages, meters.rows_processed


def dml_targets(eng, statement):
    """An UPDATE/DELETE's target rows as the executor collects them (the
    vector gate picks how), the pages and rows reading them charges, and
    the seeks it ticks."""
    if isinstance(statement, InsertQuery):
        return [], 0, 0, {}
    meters = Meterings()
    plan = eng.optimizer.optimize(statement)
    targets, ticks = counted(eng.executor._target_rows, plan, meters)
    return targets, meters.page_meter.pages, meters.rows_processed, ticks


def keep_counters(eng):
    """``eng``, its executor keeping the (pages, rows processed,
    maintained entries) of the last statement it finished metering as
    ``last_counters``."""
    executor = eng.executor
    finalize = executor._finalize_metrics

    def finalize_and_keep(meters, rows_returned):
        executor.last_counters = (
            meters.page_meter.pages,
            meters.rows_processed,
            meters.maintained_entries,
        )
        return finalize(meters, rows_returned)

    executor._finalize_metrics = finalize_and_keep
    return eng


def one_row_statements(eng, statement):
    """The rows ``statement`` carries, as one statement each."""
    if isinstance(statement, InsertQuery):
        return [dataclasses.replace(statement, rows=(r,)) for r in statement.rows]
    return [
        dataclasses.replace(
            statement, predicates=(Predicate("w_id", Op.EQ, row["w_id"]),)
        )
        for row in read_side(eng, statement)[0]
    ]


def write_side(eng, statements):
    """Run statements until one raises: (error, pages, cpu_ms), with
    what reading each statement's targets charged taken out."""
    pages, cpu = 0, 0.0
    for statement in statements:
        _targets, read_pages, read_rows = read_side(eng, statement)
        try:
            metrics = eng.execute(statement).metrics
        except ReproError as exc:
            return f"{type(exc).__name__}: {exc}", pages, cpu
        pages += metrics.logical_reads - read_pages
        cpu += metrics.cpu_time_ms - (
            read_rows * CPU_MS_PER_ROW + read_pages * CPU_MS_PER_PAGE
        )
    return None, pages, cpu


@pytest.fixture(scope="module")
def dml_engines():
    """(grouped with the vector gate open, one-row, grouped with it
    shut); run under ``noiseless``."""
    engines = tuple(keep_counters(_joined_engine(seed=91)) for _ in range(3))
    engines[0].settings.execution.vector_min_rows = 0
    engines[2].settings.execution.vector_min_rows = sys.maxsize
    return engines


@pytest.mark.usefixtures("noiseless")
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(statement=dml_statements())
def test_property_grouping_is_unobservable(dml_engines, statement):
    """A statement carrying N rows leaves the state, and charges the
    write-side pages and CPU, of the same rows sent one statement each;
    one that raises part-way leaves what the one-row statements up to
    the first failure leave.  With the vector gate open or shut, the
    statement reads the same targets for the same pages and rows, and
    charges and leaves the same.  (Every engine sees every example.)"""
    grouped, single, shut = dml_engines
    pieces = one_row_statements(single, statement)
    assert dml_targets(grouped, statement) == dml_targets(shut, statement)
    error, pages, cpu = write_side(grouped, [statement])
    assert write_side(shut, [statement]) == (error, pages, cpu)
    piece_error, piece_pages, piece_cpu = write_side(single, pieces)
    assert error == piece_error
    if error is None:
        assert grouped.executor.last_counters == shut.executor.last_counters
        assert pages == piece_pages
        assert cpu == pytest.approx(piece_cpu, rel=1e-9, abs=1e-9)
    assert w_state(grouped) == w_state(single) == w_state(shut)


@pytest.mark.usefixtures("noisy")
def test_batched_dml_path_was_exercised(joined_pair):
    """A DML statement adds 1 to ``vector_statements`` and its affected
    rows to ``batch_rows``, whatever ``vector_min_rows`` says, and
    meters the same either way — a scan-fed UPDATE whose NULL literal
    sends the open gate's target read back to the interpreter too."""
    rows = tuple((9000 + i, i % 5, float(i), f"w-{i % 13}") for i in range(10))
    in_batch = (Predicate("w_id", Op.GE, 9000),)
    steps = (
        (InsertQuery("w", rows, bulk=True), 10),
        (InsertQuery("w", ((9010, 1, 1.0, "w-1"),)), 1),
        (UpdateQuery("w", (("w_a", 3),), in_batch), 11),
        (UpdateQuery("w", (("w_a", 3),), (Predicate("w_c", Op.EQ, None),)), 0),
        (DeleteQuery("w", in_batch), 11),
    )
    metrics = []
    # Mutate both engines identically so later tests stay comparable.
    for engine in joined_pair:
        executor = engine.executor
        metrics.append([])
        for statement, affected in steps:
            vector, batch = executor.vector_statements, executor.batch_rows
            interpreted = executor.interp_statements
            metrics[-1].append(engine.execute(statement).metrics)
            assert executor.vector_statements == vector + 1
            assert executor.batch_rows == batch + affected
            assert executor.interp_statements == interpreted
    assert metrics[0] == metrics[1]


# ----------------------------------------------------------------------
# The row loop, pinned: ``PINNED_DML_EXPECTED`` was recorded from the
# row-at-a-time ``Table.insert`` / ``delete_row`` / ``update_row`` at the
# parent of the commit that deleted them, so the one path is held to the
# charges, errors, partial mutations and tree shapes of the code it
# replaced rather than only to itself.


def _row(key):
    return (key, None if key % 7 == 0 else key % 5, key * 0.25, f"w-{key % 13}")


def _insert(*rows, bulk=True):
    """INSERT of the given rows; an int stands for ``_row(key)``."""
    rows = tuple(_row(r) if isinstance(r, int) else r for r in rows)
    return InsertQuery("w", rows, bulk=bulk)


def _where(column, op, value, value2=None):
    return (Predicate(column, op, value, value2),)


_update = functools.partial(UpdateQuery, "w")

DROP_IX_W_B = "drop ix_w_b"

PINNED_DML_STREAM = (
    # INSERT: single rows, then batches that fail part-way.
    _insert(1000, bulk=False),
    _insert(1000, bulk=False),  # duplicate key
    _insert(("x", 1, 1.0, "w-2"), bulk=False),  # un-coercible
    _insert((None, 1, 1.0, "w-2"), bulk=False),  # NULL primary key
    _insert(1001, 1002, 1003),
    _insert(*range(1010, 1022)),
    _insert(1030, 1031, 1001, 1032),  # duplicate of a stored row, mid-batch
    _insert(1040, 1041, 1040, 1042),  # duplicate of an earlier batch row
    _insert(1050, (None, 2, 2.0, "w-1"), 1051),  # invalid between two good
    _insert(1060, (1061, "abc", 2.0, "w-1"), 1062),
    _insert(1070, (1071,), 1072),
    _insert(*range(2000, 2200)),
    # UPDATE: key column, included column, both, same value, primary key.
    _update((("w_a", 7),), _where("w_id", Op.EQ, 5)),
    _update((("w_a", 9),), _where("w_a", Op.EQ, 3)),
    _update((("w_a", None),), _where("w_a", Op.BETWEEN, 10, 12)),
    _update((("w_c", "w-12"),), _where("w_id", Op.BETWEEN, 20, 40)),
    _update((("w_b", 17.5),), _where("w_b", Op.LT, 5.0)),
    _update((("w_a", 9),), _where("w_a", Op.EQ, 9)),  # nothing changes
    _update((("w_c", "w-3"),), _where("w_id", Op.LT, 30)),  # some change
    _update((("w_a", 1), ("w_c", "w-5")), _where("w_b", Op.GT, 45.0)),
    _update((("w_id", 7000),), _where("w_id", Op.EQ, 6)),  # to a free key
    _update((("w_id", 7),), _where("w_id", Op.EQ, 8)),  # to a taken key
    _update((("w_id", 7100),), _where("w_id", Op.BETWEEN, 50, 52)),
    _update((("w_id", 60),), _where("w_id", Op.EQ, 60)),  # to its own key
    _update((("w_id", None),), _where("w_id", Op.EQ, 71)),
    _update((("w_a", "zz"),), _where("w_id", Op.EQ, 70)),  # un-coercible
    _update((("w_a", "zz"),), _where("w_id", Op.EQ, 99999)),  # ... no target
    _update((("w_b", "q"),), _where("w_a", Op.EQ, 9)),
    _update((("w_b", None),), _where("w_id", Op.BETWEEN, 2000, 2030)),
    # DELETE: by key, by predicate, then refill the gaps.
    DeleteQuery("w", _where("w_id", Op.EQ, 10)),
    DeleteQuery("w", _where("w_id", Op.EQ, 99999)),
    DeleteQuery("w", _where("w_a", Op.EQ, 9)),
    DeleteQuery("w", _where("w_id", Op.BETWEEN, 2050, 2150)),
    DeleteQuery("w", _where("w_b", Op.LT, 10.0)),
    DeleteQuery("w", _where("w_c", Op.EQ, "w-5")),
    _insert(10, bulk=False),
    _insert(*range(2050, 2059)),
    _insert(*range(3000, 3150)),
    DeleteQuery("w", _where("w_id", Op.GE, 3100)),
    _update((("w_b", 3.25),), _where("w_id", Op.BETWEEN, 3000, 3020)),
    DeleteQuery("w", _where("w_a", Op.EQ, 2) + _where("w_b", Op.GT, 20.0)),
    # One secondary index: w_b and w_c are now outside every index.
    DROP_IX_W_B,
    _update((("w_c", "w-0"),), _where("w_id", Op.LT, 100)),
    _update((("w_b", 1.0),), _where("w_a", Op.EQ, 4)),
    _update((("w_c", "w-1"),), _where("w_id", Op.EQ, 120)),
    _update((("w_a", 2),), _where("w_b", Op.GT, 40.0)),
    _update((("w_a", 2), ("w_b", 0.5)), _where("w_id", Op.BETWEEN, 130, 133)),
    _update((("w_id", 7200),), _where("w_id", Op.EQ, 140)),
    _update((("w_id", 7200),), _where("w_id", Op.EQ, 141)),
    _insert(*range(4001, 4011)),
    _insert(4020, 4005),
    DeleteQuery("w", _where("w_a", Op.LE, 1)),
    DeleteQuery("w", _where("w_b", Op.BETWEEN, 0.0, 30.0)),
    DeleteQuery("w", _where("w_id", Op.GE, 0)),
    _insert(1, bulk=False),
)

PINNED_DML_EXPECTED = [
    ((0.29600000000000004, 6, 0), 301, 301, ((301, 2, 4), (301, 1, 1), (301, 2, 3))),
    ("ExecutionError: duplicate primary key (1000,) in table 'w'", 301, 301, ((301, 2, 4), (301, 1, 1), (301, 2, 3))),
    ("QueryError: cannot coerce 'x' to int", 301, 301, ((301, 2, 4), (301, 1, 1), (301, 2, 3))),
    ("SchemaError: NULL in non-nullable column 'w_id' of table 'w'", 301, 301, ((301, 2, 4), (301, 1, 1), (301, 2, 3))),
    ((0.8879999999999999, 18, 0), 304, 304, ((304, 2, 4), (304, 1, 1), (304, 2, 3))),
    ((3.5519999999999996, 72, 0), 316, 316, ((316, 2, 4), (316, 1, 1), (316, 2, 3))),
    ("ExecutionError: duplicate primary key (1001,) in table 'w'", 318, 318, ((318, 2, 4), (318, 1, 1), (318, 2, 3))),
    ("ExecutionError: duplicate primary key (1040,) in table 'w'", 320, 320, ((320, 2, 4), (320, 1, 1), (320, 2, 3))),
    ("SchemaError: NULL in non-nullable column 'w_id' of table 'w'", 321, 321, ((321, 2, 4), (321, 1, 1), (321, 2, 3))),
    ("QueryError: cannot coerce 'abc' to int", 322, 322, ((322, 2, 4), (322, 1, 1), (322, 2, 3))),
    ("SchemaError: row width 1 != 4 for table 'w'", 323, 323, ((323, 2, 4), (323, 1, 1), (323, 2, 3))),
    ((59.199999999999996, 1200, 0), 523, 523, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((0.388, 8, 0), 523, 524, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((15.318, 290, 0), 523, 571, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((13.542, 254, 0), 523, 612, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((6.347999999999999, 128, 0), 523, 633, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((8.806, 158, 0), 523, 658, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((2.888, 8, 0), 523, 658, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((8.49, 170, 0), 523, 686, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((94.628, 1850, 0), 523, 929, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ((0.674, 14, 0), 523, 931, ((523, 2, 7), (523, 2, 2), (523, 2, 5))),
    ("ExecutionError: duplicate primary key (7,) in table 'w'", 522, 932, ((522, 2, 7), (522, 2, 2), (522, 2, 5))),
    ("ExecutionError: duplicate primary key (7100,) in table 'w'", 521, 935, ((521, 2, 7), (521, 2, 2), (521, 2, 5))),
    ((0.134, 2, 0), 521, 935, ((521, 2, 7), (521, 2, 2), (521, 2, 5))),
    ("SchemaError: NULL in non-nullable column 'w_id' of table 'w'", 520, 936, ((520, 2, 7), (520, 2, 2), (520, 2, 5))),
    ("QueryError: cannot coerce 'zz' to int", 520, 936, ((520, 2, 7), (520, 2, 2), (520, 2, 5))),
    ((0.09, 2, 0), 520, 936, ((520, 2, 7), (520, 2, 2), (520, 2, 5))),
    ("QueryError: cannot coerce 'q' to float", 520, 936, ((520, 2, 7), (520, 2, 2), (520, 2, 5))),
    ((9.328, 188, 0), 520, 967, ((520, 2, 7), (520, 2, 2), (520, 2, 6))),
    ((0.388, 8, 0), 519, 968, ((519, 2, 7), (519, 2, 2), (519, 2, 6))),
    ((0.09, 2, 0), 519, 968, ((519, 2, 7), (519, 2, 2), (519, 2, 6))),
    ((7.022000000000001, 122, 0), 500, 987, ((500, 2, 7), (500, 2, 2), (500, 2, 6))),
    ((30.232999999999997, 609, 0), 399, 1088, ((399, 2, 7), (399, 2, 2), (399, 2, 6))),
    ((9.741999999999999, 182, 0), 370, 1117, ((370, 2, 7), (370, 2, 2), (370, 2, 6))),
    ((49.052, 980, 0), 208, 1279, ((208, 2, 7), (208, 2, 2), (208, 2, 6))),
    ((0.29600000000000004, 6, 0), 209, 1280, ((209, 2, 7), (209, 2, 2), (209, 2, 6))),
    ((2.6639999999999997, 54, 0), 218, 1289, ((218, 2, 7), (218, 2, 2), (218, 2, 6))),
    ((44.4, 900, 0), 368, 1439, ((368, 2, 8), (368, 2, 2), (368, 2, 6))),
    ((15.288, 308, 0), 317, 1490, ((317, 2, 8), (317, 2, 2), (317, 2, 6))),
    ((6.347999999999999, 128, 0), 317, 1511, ((317, 2, 8), (317, 2, 2), (317, 2, 6))),
    ((6.959, 129, 0), 297, 1531, ((297, 2, 8), (297, 2, 2), (297, 2, 6))),
    ((12.099, 251, 0), 297, 1593, ((297, 2, 8), (297, 2, 2))),
    ((5.369, 101, 0), 297, 1616, ((297, 2, 8), (297, 2, 2))),
    ((0.28200000000000003, 6, 0), 297, 1617, ((297, 2, 8), (297, 2, 2))),
    ((24.383, 483, 0), 297, 1696, ((297, 2, 8), (297, 2, 2))),
    ((0.686, 14, 0), 297, 1698, ((297, 2, 8), (297, 2, 2))),
    ((0.5680000000000001, 12, 0), 297, 1700, ((297, 2, 8), (297, 2, 2))),
    ("ExecutionError: duplicate primary key (7200,) in table 'w'", 296, 1701, ((296, 2, 8), (296, 2, 2))),
    ((2.43, 50, 0), 306, 1711, ((306, 2, 8), (306, 2, 2))),
    ("ExecutionError: duplicate primary key (4005,) in table 'w'", 307, 1712, ((307, 2, 8), (307, 2, 2))),
    ((7.58, 144, 0), 280, 1739, ((280, 2, 8), (280, 2, 2))),
    ((33.769999999999996, 684, 0), 145, 1874, ((145, 2, 8), (145, 2, 2))),
    ((35.93, 734, 0), 0, 2019, ((0, 2, 8), (0, 2, 2))),
    ((0.243, 5, 0), 1, 2020, ((1, 2, 8), (1, 2, 2))),
]


@pytest.mark.usefixtures("noiseless")
def test_pinned_dml_stream():
    eng = _joined_engine(seed=91)
    table = eng.database.tables["w"]
    statements = [s for s in PINNED_DML_STREAM if s is not DROP_IX_W_B]
    assert len(statements) == len(PINNED_DML_EXPECTED)
    expected = iter(PINNED_DML_EXPECTED)
    for step, statement in enumerate(PINNED_DML_STREAM):
        if statement is DROP_IX_W_B:
            eng.drop_index("w", "ix_w_b")
            continue
        try:
            m = eng.execute(statement).metrics
            outcome = (m.cpu_time_ms, m.logical_reads, m.rows_returned)
        except ReproError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        geometry = tuple(
            (len(tree), tree.height, tree.leaf_page_count) for tree in w_trees(eng)
        )
        got = (outcome, table.row_count, table.data_version, geometry)
        assert got == next(expected), f"statement {step}"
