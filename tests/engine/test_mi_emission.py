"""Missing-index emission reads the statement's substrate.

The optimizer reports MI candidates (Section 5.2) off the predicate
analysis, output estimate and existing access candidates its plan search
already built.  These tests pin that against the re-planning oracle it
replaced — a fresh estimate of every selectivity and a fresh enumeration
of the existing access paths for the MI column set — and count that each
predicate's selectivity is estimated once per planned statement.
"""

from __future__ import annotations

import collections

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    Database,
    IndexDefinition,
    JoinSpec,
    Op,
    Predicate,
    SelectQuery,
    SqlEngine,
    UpdateQuery,
)
from repro.engine.cost_model import CostModel
from repro.engine.optimizer import (
    MI_REPORT_THRESHOLD,
    _Access,
    _index_paths,
    _PredicateAnalysis,
    _table_paths,
)
from repro.engine.query import DeleteQuery, InsertQuery
from repro.errors import ExecutionError, UnknownColumnError
from tests.conftest import (
    make_customers_schema,
    make_orders_schema,
    populate_customers,
    populate_orders,
)
from tests.engine.test_executor_property import predicates, select_queries

ORDERS_COLUMNS = ("o_cust", "o_status", "o_amount", "o_date", "o_note")
CUSTOMER_COLUMNS = ("c_region", "c_name")


def _engine(seed: int = 4101) -> SqlEngine:
    """Default settings, so the estimation-error multipliers are live."""
    db = Database("mi", seed=seed)
    populate_orders(db.create_table(make_orders_schema()), n_rows=1500)
    populate_customers(db.create_table(make_customers_schema()))
    eng = SqlEngine(db)
    eng.build_all_statistics()
    return eng


@pytest.fixture(scope="module")
def eng():
    return _engine()


# ----------------------------------------------------------------------
# The oracle: MI emission by re-planning


def _oracle_for_table(eng, table_name, preds, referenced, out):
    """The MI rule with every estimate made afresh and the baseline from
    a full enumeration of the existing access paths for ``referenced``."""
    if not preds:
        return
    opt = eng.optimizer
    model = eng.cost_model
    table = eng.database.table(table_name)
    if table.row_count == 0:
        return
    eq_cols = tuple(dict.fromkeys(p.column for p in preds if p.is_equality))
    ineq_cols = tuple(
        dict.fromkeys(
            p.column for p in preds if p.is_range and p.column not in eq_cols
        )
    )
    if not eq_cols and not ineq_cols:
        return
    key_cols = eq_cols + ineq_cols[:1]
    include_cols = tuple(
        dict.fromkeys(
            tuple(c for c in referenced if c not in key_cols) + ineq_cols[1:]
        )
    )
    ideal = IndexDefinition(
        "_mi_ideal", table_name, key_cols,
        tuple(c for c in include_cols if c not in key_cols),
        hypothetical=True,
    )
    try:
        view = table.hypothetical_stats_view(ideal)
    except UnknownColumnError:
        return
    seeks = [
        opt._price(_Access(_PredicateAnalysis(model, table), preds), path, view)
        for path in _index_paths(
            table.schema.primary_key, ideal, preds, referenced
        )
        if path.seek_pos
    ]
    if not seeks:
        return
    candidate = seeks[0]
    existing = opt._price_all(
        _Access(_PredicateAnalysis(model, table), preds),
        _table_paths(table, preds, referenced),
    )
    best = min(existing, key=lambda c: c.cost).cost
    if candidate.cost >= best * (1.0 - MI_REPORT_THRESHOLD):
        return
    out.append(
        (table_name, eq_cols, ineq_cols, ideal.included_columns, best,
         100.0 * (1.0 - candidate.cost / best))
    )


def _oracle(eng, query):
    out = []
    if isinstance(query, InsertQuery):
        return out
    if not isinstance(query, SelectQuery):
        _oracle_for_table(
            eng, query.table, query.predicates,
            tuple(p.column for p in query.predicates), out,
        )
        return out
    leaf = tuple(
        dict.fromkeys(
            tuple(query.select_columns)
            + tuple(p.column for p in query.predicates)
        )
    )
    _oracle_for_table(eng, query.table, query.predicates, leaf, out)
    join = query.join
    if join is not None:
        join_needed = tuple(
            dict.fromkeys(
                (join.right_column,)
                + tuple(p.column for p in join.predicates)
                + tuple(join.select_columns)
            )
        )
        _oracle_for_table(
            eng, join.table, tuple(join.predicates), join_needed, out
        )
    return out


def _emitted(eng, query):
    out = []
    eng.optimizer.optimize(query, mi_sink=lambda *args: out.append(args))
    return out


# ----------------------------------------------------------------------
# Generated index sets and statements


@st.composite
def _index(draw, table, columns):
    keys = draw(
        st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True)
    )
    rest = [c for c in columns if c not in keys]
    includes = draw(
        st.lists(st.sampled_from(rest), max_size=2, unique=True)
    ) if rest else []
    return table, tuple(keys), tuple(includes)


_INDEX_SETS = st.lists(
    st.one_of(
        _index("orders", ORDERS_COLUMNS),
        _index("customers", CUSTOMER_COLUMNS),
    ),
    max_size=3,
    unique_by=lambda spec: spec[:2],
)

_CUSTOMER_PREDICATES = st.builds(
    Predicate,
    st.sampled_from(CUSTOMER_COLUMNS[:1]),
    st.sampled_from([Op.EQ, Op.LT, Op.GE, Op.NEQ]),
    st.integers(0, 12),
)


@st.composite
def _statements(draw, index_names):
    kind = draw(st.sampled_from(["select", "hint", "join", "update", "delete"]))
    preds = tuple(draw(st.lists(predicates(), max_size=3)))
    if kind == "update":
        return UpdateQuery("orders", (("o_status", 1),), preds)
    if kind == "delete":
        return DeleteQuery("orders", preds)
    query = draw(select_queries())
    if kind == "hint" and index_names:
        return SelectQuery(
            query.table, query.select_columns, query.predicates,
            group_by=query.group_by, aggregates=query.aggregates,
            order_by=query.order_by,
            index_hint=draw(st.sampled_from(index_names)),
        )
    if kind == "join":
        join = JoinSpec(
            "customers", "o_cust", "c_id",
            predicates=tuple(draw(st.lists(_CUSTOMER_PREDICATES, max_size=2))),
            select_columns=draw(
                st.sampled_from([(), ("c_name",), ("c_region", "c_name")])
            ),
        )
        return SelectQuery(
            query.table, query.select_columns or ("o_id",), query.predicates,
            join=join, group_by=query.group_by, aggregates=query.aggregates,
            order_by=query.order_by,
        )
    return query


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), specs=_INDEX_SETS)
def test_property_emissions_equal_replanning_oracle(eng, data, specs):
    created = []
    try:
        for i, (table, keys, includes) in enumerate(specs):
            definition = IndexDefinition(f"ix_gen_{i}", table, keys, includes)
            eng.create_index(definition)
            created.append(definition)
        names = [d.name for d in created if d.table == "orders"]
        for _ in range(4):
            query = data.draw(_statements(names))
            try:
                emitted = _emitted(eng, query)
            except ExecutionError:
                # A hint the index cannot serve fails the statement.
                assert getattr(query, "index_hint", None) is not None
                continue
            assert emitted == _oracle(eng, query), query
    finally:
        for definition in created:
            eng.drop_index(definition.table, definition.name)


def test_emissions_cover_every_baseline_path(eng):
    """Pinned shapes, one per way the baseline is found: the substrate's
    own column set, a narrower leaf set (GROUP BY), an index hint, the
    join's build side, and the DML read.  A predicate on a column the
    table lacks still plans (at default selectivity) and emits nothing:
    the ideal index cannot be shaped, the one error
    ``hypothetical_stats_view`` raises."""
    ghost = IndexDefinition("_mi_ideal", "orders", ("o_ghost",), hypothetical=True)
    with pytest.raises(UnknownColumnError):
        eng.database.table("orders").hypothetical_stats_view(ghost)
    eng.create_index(IndexDefinition("ix_pin", "orders", ("o_date",), ("o_cust",)))
    try:
        cust = Predicate("o_cust", Op.EQ, 7)
        date = Predicate("o_date", Op.BETWEEN, 10, 40)
        region = Predicate("c_region", Op.EQ, 3)
        queries = [
            SelectQuery("orders", ("o_amount",), (cust,)),
            SelectQuery("orders", ("o_amount",), (cust, date),
                        group_by=("o_status",)),
            SelectQuery("orders", ("o_cust",), (date,), index_hint="ix_pin"),
            SelectQuery("orders", ("o_id",), (cust,),
                        join=JoinSpec("customers", "o_cust", "c_id",
                                      predicates=(region,),
                                      select_columns=("c_name",))),
            UpdateQuery("orders", (("o_note", "x"),), (cust,)),
            DeleteQuery("orders", (date,)),
        ]
        emitted = 0
        for query in queries:
            got = _emitted(eng, query)
            assert got == _oracle(eng, query), query
            emitted += len(got)
        assert emitted >= 4
        ghost_query = SelectQuery(
            "orders", ("o_id",), (Predicate("o_ghost", Op.EQ, 1),)
        )
        assert _emitted(eng, ghost_query) == []
    finally:
        eng.drop_index("orders", "ix_pin")


# ----------------------------------------------------------------------
# One estimate per predicate per statement


def test_each_predicate_estimated_once_per_optimize(monkeypatch):
    eng = _engine(seed=4102)
    eng.create_index(IndexDefinition("ix_c", "orders", ("o_cust",), ("o_amount",)))
    eng.create_index(IndexDefinition("ix_sd", "orders", ("o_status", "o_date")))
    eng.create_index(IndexDefinition("ix_r", "customers", ("c_region",)))
    calls = collections.Counter()
    estimate = CostModel.predicate_selectivity

    def counting(self, table, predicate):
        calls[(table.name, id(predicate))] += 1
        return estimate(self, table, predicate)

    monkeypatch.setattr(CostModel, "predicate_selectivity", counting)
    cust = Predicate("o_cust", Op.EQ, 3)
    status = Predicate("o_status", Op.EQ, 2)
    date = Predicate("o_date", Op.GE, 100)
    queries = [
        SelectQuery("orders", ("o_amount",), (cust, date)),
        SelectQuery("orders", ("o_amount", "o_note"), (status, date),
                    group_by=("o_cust",)),
        SelectQuery("orders", ("o_id",), (cust,), index_hint="ix_c"),
        SelectQuery("orders", ("o_id",), (status,),
                    join=JoinSpec("customers", "o_cust", "c_id",
                                  predicates=(Predicate("c_region", Op.EQ, 1),),
                                  select_columns=("c_name",))),
        # A self-join whose sides share a predicate object.
        SelectQuery("orders", ("o_id",), (status,),
                    join=JoinSpec("orders", "o_id", "o_id",
                                  predicates=(status, date))),
        UpdateQuery("orders", (("o_status", 4),), (cust, date)),
        DeleteQuery("orders", (status,)),
    ]
    for query in queries:
        calls.clear()
        eng.optimizer.optimize(query, mi_sink=lambda *args: None)
        assert calls, query
        repeated = {key: n for key, n in calls.items() if n > 1}
        assert not repeated, (query, repeated)
