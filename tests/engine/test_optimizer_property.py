"""Property tests on optimizer invariants, and warm plan skeletons
against cold builds."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    Database,
    DeleteQuery,
    IndexDefinition,
    InsertQuery,
    JoinSpec,
    Op,
    Predicate,
    SelectQuery,
    SqlEngine,
    UpdateQuery,
)
from repro.engine.engine import bind_literals
from repro.engine.optimizer import Optimizer
from repro.errors import ExecutionError
from tests.conftest import (
    make_customers_schema,
    make_orders_schema,
    populate_customers,
    populate_orders,
)
from tests.engine.test_executor_property import (
    COLUMNS,
    predicates,
    select_queries,
)
from tests.engine.test_optimizer import perfect_engine


@pytest.fixture(scope="module")
def eng():
    engine = perfect_engine(seed=4001)
    engine.create_index(
        IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
    )
    engine.create_index(IndexDefinition("ix_date", "orders", ("o_date",)))
    return engine


@pytest.fixture(scope="module")
def bare():
    """``eng``'s twin (same seed, same data) that never created its indexes."""
    return perfect_engine(seed=4001)


#: Definitions the generated index sets draw from, by position.
INDEX_POOL = (
    IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",)),
    IndexDefinition("ix_date", "orders", ("o_date",)),
    IndexDefinition(
        "ix_status_date", "orders", ("o_status", "o_date"), ("o_amount",)
    ),
    IndexDefinition("ix_amount", "orders", ("o_amount",), ("o_cust", "o_note")),
    IndexDefinition("ix_note", "orders", ("o_note",)),
)


def index_sets(min_size: int = 0):
    """A set of positions in :data:`INDEX_POOL`."""
    return st.frozensets(
        st.integers(min_value=0, max_value=len(INDEX_POOL) - 1),
        min_size=min_size,
    )


def hypothetical(positions) -> tuple:
    """The pool entries at ``positions`` as hypothetical indexes."""
    return tuple(
        dataclasses.replace(
            INDEX_POOL[i], name=f"hyp_{INDEX_POOL[i].name}", hypothetical=True
        )
        for i in sorted(positions)
    )


@pytest.fixture(scope="module")
def engine_with():
    """Same-seed engines that differ only in which pool indexes are real,
    each built once per index set."""
    built = {}

    def build(positions: frozenset):
        if positions not in built:
            engine = perfect_engine(seed=4001)
            for i in sorted(positions):
                engine.create_index(INDEX_POOL[i])
            built[positions] = engine
        return built[positions]

    return build


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_excluding_indexes_never_helps(eng, bare, query):
    """The optimizer minimizes over candidates: an engine without the
    indexes can only estimate the same cost or a worse one."""
    full = eng.optimizer.optimize(query).est_cost
    without = bare.optimizer.optimize(query).est_cost
    assert without >= full - 1e-9


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_hypothetical_superset_never_hurts(eng, query):
    """Adding a hypothetical index can only keep or lower estimated cost."""
    base = eng.optimizer.optimize(query).est_cost
    hyp = IndexDefinition(
        "hyp_all",
        "orders",
        ("o_status", "o_date"),
        ("o_amount", "o_note"),
        hypothetical=True,
    )
    with_hyp = eng.whatif_optimize(query, (hyp,)).est_cost
    assert with_hyp <= base + 1e-9


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries(), indexes=index_sets(min_size=1), data=st.data())
def test_property_excluding_a_generated_index_never_lowers_cost(
    engine_with, query, indexes, data
):
    """The general case of the pinned exclusion regressions: for any
    real index set, dropping any one of its indexes can only keep or
    raise the estimated cost."""
    excluded = data.draw(st.sampled_from(sorted(indexes)))
    full = engine_with(indexes).optimizer.optimize(query).est_cost
    without = engine_with(indexes - {excluded}).optimizer.optimize(query)
    assert without.est_cost >= full - 1e-9


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    query=select_queries(),
    base=index_sets(),
    extra=index_sets(min_size=1),
)
def test_property_generated_hypothetical_superset_never_raises_cost(
    eng, query, base, extra
):
    """The general case of the pinned covering-hypothetical regression:
    pricing a hypothetical superset of any generated set can only keep
    or lower the estimated cost."""
    batch = eng.whatif_batch(query)
    with_base = batch.price(hypothetical(base)).est_cost
    with_more = batch.price(hypothetical(base | extra)).est_cost
    assert with_more <= with_base + 1e-9


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(preds=st.lists(predicates(), min_size=1, max_size=4))
def test_property_selectivity_bounds(eng, preds):
    """Combined selectivity always lies in [1/rows, 1]."""
    table = eng.database.table("orders")
    selectivity = eng.cost_model.combined_selectivity(table, tuple(preds))
    assert 1.0 / table.row_count - 1e-12 <= selectivity <= 1.0 + 1e-12


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=select_queries())
def test_property_plan_estimates_nonnegative(eng, query):
    plan = eng.optimizer.optimize(query)
    for node in plan.walk():
        assert node.est_cost >= 0
        assert node.est_rows >= 0


# ----------------------------------------------------------------------
# A warm plan skeleton equals a cold build


def _stream_engine() -> SqlEngine:
    """A small orders/customers database at default settings, so the
    estimation-error multipliers are live."""
    db = Database("stream", seed=4003)
    populate_orders(db.create_table(make_orders_schema()), n_rows=600)
    populate_customers(db.create_table(make_customers_schema()))
    engine = SqlEngine(db)
    engine.build_all_statistics()
    return engine


_CUSTOMER_PREDICATES = st.builds(
    Predicate,
    st.sampled_from(["c_region", "c_id"]),
    st.sampled_from([Op.EQ, Op.LT, Op.GE]),
    st.integers(0, 12),
)


#: Values an UPDATE may store, by column.
_ASSIGNABLE = {
    "o_date": st.integers(0, 370),
    "o_note": st.sampled_from(["note-1", "x"]),
    "o_status": st.integers(0, 6),
}


@st.composite
def _twin_predicates(draw):
    """A predicate on an indexed column and a second on the same
    (column, op): the same literal or another one drawn for the column.
    Only a twin the seek uses can be dropped from a residual, so the
    columns are the clustered key and ``ix_cust``'s key."""
    first = draw(predicates().filter(lambda p: p.column in ("o_id", "o_cust")))
    if draw(st.booleans()):
        return first, first
    value = draw(COLUMNS[first.column])
    if first.op is Op.BETWEEN:
        return first, Predicate(first.column, Op.BETWEEN, value, value)
    return first, Predicate(first.column, first.op, value)


@st.composite
def _repeat_statement(draw):
    """A SELECT or UPDATE whose predicates repeat a (column, op) pair."""
    preds = draw(_twin_predicates()) + tuple(
        draw(st.lists(predicates(), max_size=1))
    )
    if draw(st.booleans()):
        return UpdateQuery("orders", (("o_note", "x"),), preds)
    return SelectQuery("orders", ("o_amount",), preds)


@st.composite
def _statement(draw):
    kind = draw(st.sampled_from(
        ["select", "repeat", "hint", "join", "update", "insert", "delete"]
    ))
    preds = tuple(draw(st.lists(predicates(), max_size=2)))
    if kind == "repeat":
        return draw(_repeat_statement())
    if kind == "hint":
        names = [d.name for d in INDEX_POOL] + ["ix_gone"]
        return dataclasses.replace(
            draw(select_queries()), index_hint=draw(st.sampled_from(names))
        )
    if kind == "join":
        return SelectQuery(
            "orders", ("o_id", "o_amount"), preds,
            join=JoinSpec(
                "customers", "o_cust", "c_id",
                predicates=tuple(draw(st.lists(_CUSTOMER_PREDICATES, max_size=2))),
                select_columns=("c_name",),
            ),
        )
    if kind == "update":
        column, values = draw(st.sampled_from(sorted(_ASSIGNABLE.items())))
        return UpdateQuery("orders", ((column, draw(values)),), preds)
    if kind == "insert":
        return InsertQuery("orders", ())  # rows filled in by the runner
    if kind == "delete":
        return DeleteQuery("orders", preds)
    return draw(select_queries())


@st.composite
def _relit(draw, query):
    """``query`` with literals drawn afresh — the same shape, so the same
    skeleton — each kept as it was half the time (so twins that were
    equal may stay equal)."""

    def redrawn(predicates, values):
        out = []
        for p in predicates:
            if draw(st.booleans()):
                out.append(p)
            elif p.op is Op.BETWEEN:
                low, high = sorted(
                    (draw(values(p)), draw(values(p))),
                    key=lambda v: (v is None, v),
                )
                out.append(Predicate(p.column, p.op, low, high))
            else:
                out.append(Predicate(p.column, p.op, draw(values(p))))
        return tuple(out)

    def orders(p):
        return COLUMNS[p.column]

    if isinstance(query, InsertQuery):
        return query
    query = dataclasses.replace(
        query, predicates=redrawn(query.predicates, orders)
    )
    if isinstance(query, UpdateQuery):
        ((column, _value),) = query.assignments
        return dataclasses.replace(
            query, assignments=((column, draw(_ASSIGNABLE[column])),)
        )
    if isinstance(query, SelectQuery) and query.join is not None:
        join = query.join
        return dataclasses.replace(
            query,
            join=dataclasses.replace(
                join,
                predicates=redrawn(
                    join.predicates, lambda _p: st.integers(0, 12)
                ),
            ),
        )
    return query


@st.composite
def statement_streams(draw):
    """6-14 steps over one engine: executions of 2-3 generated templates
    (one repeating a (column, op) pair),
    each with fresh literals and a hypothetical index set to price,
    between index DDL, statistics refreshes and plan forcing."""
    templates = [draw(_repeat_statement())] + draw(
        st.lists(_statement(), min_size=1, max_size=2)
    )
    steps = []
    for _ in range(draw(st.integers(6, 14))):
        kind = draw(st.sampled_from(
            ["run"] * 5 + ["create", "drop", "stats", "force"]
        ))
        if kind == "run":
            template = draw(st.sampled_from(templates))
            steps.append(("run", draw(_relit(template)), draw(index_sets())))
        elif kind in ("create", "drop"):
            pool = st.integers(0, len(INDEX_POOL) - 1)
            steps.append((kind, draw(pool)))
        else:
            steps.append((kind,))
    return steps


def _hexed(value):
    return value.hex() if isinstance(value, float) else value


def _planned(optimizer, query):
    """Everything planning shows: the plan id and signature, every
    node's estimates as hex, and the MI emissions; or the error."""
    emitted = []
    try:
        plan = optimizer.optimize(
            query,
            mi_sink=lambda *e: emitted.append(tuple(map(_hexed, e))),
        )
    except ExecutionError:
        return ExecutionError
    return (
        plan.plan_id(),
        plan.signature(),
        [
            (type(node).__name__, _hexed(node.est_rows), _hexed(node.est_cost))
            for node in plan.walk()
        ],
        emitted,
    )


def _priced(engine, query, config):
    """A what-if plan's signature and estimates as hex, or the error."""
    try:
        plan = engine.whatif_batch(query).price(config)
    except ExecutionError:
        return ExecutionError
    return plan.signature(), [
        (_hexed(node.est_rows), _hexed(node.est_cost)) for node in plan.walk()
    ]


@settings(max_examples=40, deadline=None)
@given(stream=statement_streams())
def test_property_warm_skeleton_equals_cold_build(stream):
    """Plan skeletons are unobservable.  Over a generated stream that
    executes SELECT/UPDATE/INSERT/DELETE statements (index hints, plan
    forcing, and templates repeating a (column, op) pair with equal and
    unequal literals) between index DDL and statistics refreshes, each
    statement planned by the engine's long-lived optimizer equals it
    planned by a fresh ``Optimizer`` over the same tables — plan,
    estimates to the bit, MI emissions — and re-planning it yields the
    same plan identity.  A generated hypothetical index set priced
    through the engine's ``WhatIfBatch`` equals it priced by a fresh
    engine over the same database (shared ≡ fresh)."""
    eng = _stream_engine()
    eng.create_index(INDEX_POOL[0])
    tables = eng.database.tables
    next_id = 10_000
    forcible = []
    for step in stream:
        kind = step[0]
        if kind == "create":
            # As an online build does: on the table, with no engine hook
            # to drop stored skeletons, so only their versions notice.
            definition = INDEX_POOL[step[1]]
            if not eng.index_exists("orders", definition.name):
                tables["orders"].create_index(definition)
            continue
        if kind == "drop":
            name = INDEX_POOL[step[1]].name
            if eng.index_exists("orders", name):
                eng.drop_index("orders", name)
            continue
        if kind == "stats":
            eng.build_all_statistics()
            continue
        if kind == "force":
            if forcible:
                eng.query_store.force_plan(*forcible[-1])
            continue
        _kind, query, positions = step
        if isinstance(query, InsertQuery):
            query = InsertQuery(
                "orders", ((next_id, 3, 1, 5.0, 40, "note-new"),)
            )
            next_id += 1
        bound = bind_literals(query, tables)
        effective = eng._apply_plan_forcing(bound, bound.template_key())
        warm = _planned(eng.optimizer, effective)
        cold = _planned(Optimizer(tables, eng.cost_model), effective)
        assert warm == cold, effective
        again = _planned(eng.optimizer, effective)
        assert again == warm
        config = hypothetical(positions)
        fresh = SqlEngine(eng.database, settings=eng.settings)
        assert _priced(eng, effective, config) == _priced(
            fresh, effective, config
        ), (effective, config)
        try:
            result = eng.execute(query)
        except ExecutionError:
            continue  # a hint (or forced plan) naming no existing index
        if isinstance(query, SelectQuery) and result.plan.referenced_indexes():
            forcible.append((result.query_id, result.plan_id))
