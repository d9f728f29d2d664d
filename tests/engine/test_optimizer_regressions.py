"""Pinned regressions: Hypothesis falsifying examples, made deterministic.

Two bugs were found by the property suites and fixed together:

1. **Non-monotone plan search.**  ``_best_access`` credited
   order-providing access paths with an avoided-sort bonus computed from
   ``candidates[0].out_rows`` — the *pre-aggregation* cardinality of an
   arbitrary candidate.  Under GROUP BY the real saving is only the
   stream-vs-hash aggregate delta over far fewer rows, so the heuristic
   picked wildly mispriced plans: excluding indexes could *lower*
   ``est_cost`` (9.77 -> 3.06) and a hypothetical covering index could
   *raise* it (3.28 -> 10.56).  Fixed by costing the complete plan per
   access candidate and taking the true argmin.

2. **Order-dependent aggregation.**  SUM/AVG used naive ``sum()``, so an
   index-order scan and a heap-order scan returned different float bits
   for the same data.  Fixed with exactly rounded ``math.fsum``.

These tests re-run the exact falsifying queries with no Hypothesis
involvement, so the bugs can never silently return on a lucky draw.

``TestPinnedAcrossPlannerCollapse`` holds literals recorded from the
per-configuration planner (``_plan_select`` and friends) at the last
commit that had one; see its docstring.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import (
    DeleteQuery,
    IndexDefinition,
    InsertQuery,
    JoinSpec,
    Op,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine.query import AggFunc, Aggregate
from repro.errors import ExecutionError
from tests.engine.test_executor import brute_force, norm
from tests.engine.test_optimizer import perfect_engine

#: The hypothetical covering index from the property suite.
HYP_ALL = IndexDefinition(
    "hyp_all",
    "orders",
    ("o_status", "o_date"),
    ("o_amount", "o_note"),
    hypothetical=True,
)


def agg_query(predicate: Predicate, group: str) -> SelectQuery:
    return SelectQuery(
        "orders",
        predicates=(predicate,),
        group_by=(group,),
        aggregates=(
            Aggregate(AggFunc.COUNT),
            Aggregate(AggFunc.SUM, "o_amount"),
        ),
    )


IX_CUST = IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
IX_DATE = IndexDefinition("ix_date", "orders", ("o_date",))


def _engine_with(*definitions):
    engine = perfect_engine(seed=4001)
    for definition in definitions:
        engine.create_index(definition)
    return engine


@pytest.fixture(scope="module")
def engines():
    """Twins with the same seed and data that differ only in which real
    indexes exist.  ``full`` mirrors the test_optimizer_property.py
    fixture; the others stand in for it with indexes dropped."""
    return {
        "full": _engine_with(IX_CUST, IX_DATE),
        "cust": _engine_with(IX_CUST),
        "date": _engine_with(IX_DATE),
        "bare": _engine_with(),
    }


@pytest.fixture(scope="module")
def eng(engines):
    return engines["full"]


class TestPlanSearchMonotonicity:
    @pytest.mark.parametrize("cutoff", [501, 538])
    def test_excluding_indexes_never_helps_pinned(self, engines, cutoff):
        """Falsifying example: o_id < 501 GROUP BY o_cust went 9.77 -> 3.06
        when ix_cust/ix_date were *hidden* (the sort bonus overpriced the
        full-configuration plan)."""
        query = agg_query(Predicate("o_id", Op.LT, cutoff), "o_cust")
        full = engines["full"].optimizer.optimize(query).est_cost
        without = engines["bare"].optimizer.optimize(query).est_cost
        assert without >= full - 1e-9

    def test_hypothetical_superset_never_hurts_pinned(self, eng):
        """Falsifying example: o_id < 538 GROUP BY o_status went
        3.28 -> 10.56 when the covering hypothetical was *added* (its
        group-order output attracted the bogus sort credit)."""
        query = agg_query(Predicate("o_id", Op.LT, 538), "o_status")
        base = eng.optimizer.optimize(query).est_cost
        with_hyp = eng.whatif_optimize(query, (HYP_ALL,)).est_cost
        assert with_hyp <= base + 1e-9

    def test_chosen_plan_is_true_argmin_over_single_exclusions(self, engines):
        """Full-plan costing means no engine missing one of the indexes
        can beat the one with both, for every pinned query shape."""
        queries = [
            agg_query(Predicate("o_id", Op.LT, 501), "o_cust"),
            agg_query(Predicate("o_id", Op.LT, 538), "o_status"),
        ]
        for query in queries:
            full = engines["full"].optimizer.optimize(query).est_cost
            for restricted_eng in (engines["cust"], engines["date"]):
                restricted = restricted_eng.optimizer.optimize(query).est_cost
                assert restricted >= full - 1e-9


class TestOrderIndependentAggregation:
    @pytest.fixture(scope="module")
    def engines(self):
        # Mirrors the tests/engine/test_executor_property.py fixture.
        bare = perfect_engine(seed=3001)
        indexed = perfect_engine(seed=3001)
        indexed.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        indexed.create_index(
            IndexDefinition("ix_sd", "orders", ("o_status", "o_date"))
        )
        indexed.create_index(IndexDefinition("ix_note", "orders", ("o_note",)))
        return bare, indexed

    @pytest.mark.parametrize("group", ["o_status", "o_note"])
    def test_sum_bits_match_across_plans_pinned(self, engines, group):
        """Falsifying example: SUM(o_amount) under o_cust < 2 returned
        different float bits from the index-ordered plan than from the
        heap scan before fsum."""
        bare, indexed = engines
        query = agg_query(Predicate("o_cust", Op.LT, 2), group)
        expected = norm(brute_force(bare, query))
        assert norm(bare.execute(query).rows) == expected
        assert norm(indexed.execute(query).rows) == expected


def _hyp(name, table, keys, included=()):
    return IndexDefinition(
        name, table, tuple(keys), tuple(included), hypothetical=True
    )


HYP_STATUS = _hyp("hyp_status", "orders", ("o_status", "o_date"), ("o_amount",))
HYP_CUST_TWIN = _hyp("hyp_cust_twin", "orders", ("o_cust",), ("o_amount",))
HYP_CUST_TWIN2 = _hyp("hyp_cust_twin2", "orders", ("o_cust",), ("o_amount",))
HYP_NOTE = _hyp("hyp_note", "orders", ("o_note",))
HYP_AMOUNT = _hyp("hyp_amount", "orders", ("o_amount",), ("o_cust",))
HYP_REGION = _hyp("hyp_region", "customers", ("c_region",), ("c_name",))
HYP_REGION_NARROW = _hyp("hyp_region_narrow", "customers", ("c_region",))
HYP_OCUST = _hyp("hyp_ocust", "orders", ("o_cust",), ("o_amount", "o_status"))

_STATUS_PREDS = (Predicate("o_status", Op.EQ, 2), Predicate("o_date", Op.LT, 40))
_REGION_JOIN = JoinSpec(
    "customers", "o_cust", "c_id", (Predicate("c_region", Op.EQ, 4),), ("c_name",)
)
BY_CUST = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))
BY_CUST_HINTED = dataclasses.replace(BY_CUST, index_hint="ix_cust")
BY_STATUS = SelectQuery("orders", ("o_amount",), _STATUS_PREDS)
JOIN_FEW_OUTER = SelectQuery(
    "orders", ("o_amount",), (Predicate("o_id", Op.LT, 3),),
    join=JoinSpec("customers", "o_status", "c_region", (), ("c_name",)),
)
JOIN_HASH = SelectQuery("orders", ("o_amount",), (), join=_REGION_JOIN)
JOIN_INNER_ORDERS = SelectQuery(
    "customers", ("c_name",), (Predicate("c_region", Op.EQ, 4),),
    join=JoinSpec("orders", "c_id", "o_cust", (), ("o_amount",)),
)
JOIN_BOTH = SelectQuery("orders", ("o_amount",), _STATUS_PREDS, join=_REGION_JOIN)
JOIN_HINTED = SelectQuery(
    "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),),
    join=JoinSpec("customers", "o_cust", "c_region", (), ("c_name",)),
    index_hint="ix_cust",
)
UPD_NOTE = UpdateQuery("orders", (("o_note", "x"),), _STATUS_PREDS)
UPD_NOTE_NARROW = UpdateQuery(
    "orders", (("o_note", "x"),),
    (Predicate("o_status", Op.EQ, 2), Predicate("o_date", Op.EQ, 40)),
)
UPD_STATUS = UpdateQuery(
    "orders", (("o_status", 1),), (Predicate("o_cust", Op.EQ, 3),)
)
DEL_STATUS = DeleteQuery("orders", _STATUS_PREDS)
DEL_CUST = DeleteQuery("orders", (Predicate("o_cust", Op.EQ, 3),))
DEL_REGION = DeleteQuery("customers", (Predicate("c_region", Op.EQ, 4),))
INS = InsertQuery("orders", ({"o_id": 10_000}, {"o_id": 10_001}))
AGG_STATUS = agg_query(Predicate("o_id", Op.LT, 538), "o_status")

#: name -> (query, extra_indexes, fixture, expectation): the ``engines``
#: twin to price on and ``(est_cost, signature(), referenced_indexes())``
#: or the exception.  Cases recorded with existing indexes hidden run on
#: the twin that never created them (``cust``: no ``ix_date``; ``date``:
#: no ``ix_cust``), and a hidden extra is simply not supplied.
PINNED = {
    # -- index hints: a filter over existing *and* supplied candidates
    "hint_existing_no_extras": (
        BY_CUST_HINTED, (), "full",
        (0.2611428571428571, "IndexSeek[ix_cust]", ("ix_cust",))),
    "hint_existing_with_unrelated_extra": (
        BY_CUST_HINTED, (HYP_OCUST,), "full",
        (0.2611428571428571, "IndexSeek[ix_cust]", ("ix_cust",))),
    "hint_existing_under_exclusion_of_other": (
        BY_CUST_HINTED, (HYP_STATUS,), "cust",
        (0.2611428571428571, "IndexSeek[ix_cust]", ("ix_cust",))),
    "hint_names_hypothetical": (
        dataclasses.replace(BY_STATUS, index_hint="hyp_status"),
        (HYP_STATUS, HYP_NOTE), "full",
        (0.41810499999999995, "IndexSeek[hyp_status]", ("hyp_status",))),
    "hint_names_hypothetical_scan": (
        dataclasses.replace(BY_CUST, index_hint="hyp_amount"),
        (HYP_AMOUNT,), "full",
        (8.675, "IndexScan[hyp_amount]", ("hyp_amount",))),
    "hint_names_unusable_hypothetical": (
        dataclasses.replace(BY_CUST, index_hint="hyp_note"),
        (HYP_NOTE,), "full", ExecutionError),
    "hint_names_excluded_index": (
        BY_CUST_HINTED, (HYP_OCUST,), "date", ExecutionError),
    "hint_names_nothing": (
        dataclasses.replace(BY_CUST, index_hint="gone"),
        (HYP_OCUST,), "full", ExecutionError),
    "hinted_join_inner_hyp": (
        JOIN_HINTED, (HYP_REGION,), "full",
        (1.4128571428571428,
         "HashJoin(IndexSeek[ix_cust],ClusteredScan[customers])",
         ("ix_cust",))),
    "hinted_join_base": (
        JOIN_HINTED, (), "cust",
        (1.4128571428571428,
         "HashJoin(IndexSeek[ix_cust],ClusteredScan[customers])",
         ("ix_cust",))),
    # -- joins: the hypothetical index lands on the inner table
    "join_inner_hyp_loses": (
        JOIN_FEW_OUTER, (HYP_REGION,), "full",
        (1.624609375,
         "HashJoin(ClusteredSeek[orders],ClusteredScan[customers])", ())),
    "join_inner_hyp_narrow_loses": (
        JOIN_FEW_OUTER, (HYP_REGION_NARROW,), "full",
        (1.624609375,
         "HashJoin(ClusteredSeek[orders],ClusteredScan[customers])", ())),
    "join_base_under_exclusion": (
        JOIN_FEW_OUTER, (), "cust",
        (1.624609375,
         "HashJoin(ClusteredSeek[orders],ClusteredScan[customers])", ())),
    "join_inner_hyp_hash_winner": (
        JOIN_HASH, (HYP_REGION,), "full",
        (21.11, "HashJoin(IndexScan[ix_cust],IndexSeek[hyp_region])",
         ("ix_cust", "hyp_region"))),
    "join_inner_tie_base_wins": (
        JOIN_INNER_ORDERS, (HYP_OCUST,), "full",
        (6.99, "NLJoin(ClusteredScan[customers],IndexSeek[ix_cust])",
         ("ix_cust",))),
    "join_inner_hyp_nl_winner": (
        JOIN_INNER_ORDERS, (HYP_OCUST,), "date",
        (6.99, "NLJoin(ClusteredScan[customers],IndexSeek[hyp_ocust])",
         ("hyp_ocust",))),
    "join_outer_and_inner_hyp": (
        JOIN_BOTH, (HYP_STATUS, HYP_REGION), "full",
        (11.6571575, "HashJoin(ClusteredScan[orders],IndexSeek[hyp_region])",
         ("hyp_region",))),
    # -- UPDATE: the SET list decides which hypothetical indexes are maintained
    "update_untouched_hyp": (
        UPD_NOTE, (HYP_STATUS,), "full",
        (22.10888, "Update[orders|]<-ClusteredScan[orders]", ())),
    "update_untouched_hyp_carries_access": (
        UPD_NOTE_NARROW, (HYP_STATUS,), "full",
        (0.696295,
         "Update[orders|]<-IndexSeek[hyp_status]->KeyLookup[orders]",
         ("hyp_status",))),
    "update_touched_and_untouched_hyp": (
        UPD_NOTE, (HYP_STATUS, HYP_NOTE), "full",
        (44.29664, "Update[orders|hyp_note]<-ClusteredScan[orders]",
         ("hyp_note",))),
    "update_key_column_hyp": (
        UPD_STATUS, (HYP_STATUS, HYP_AMOUNT), "full",
        (9.477142857142859,
         "Update[orders|hyp_status]<-IndexSeek[ix_cust]->KeyLookup[orders]",
         ("ix_cust", "hyp_status"))),
    # -- DELETE and non-bulk INSERT: every visible index is maintained
    "delete_hyp": (
        DEL_STATUS, (HYP_STATUS, HYP_NOTE), "full",
        (66.4844,
         "Delete[orders|hyp_note,hyp_status,ix_cust,ix_date]"
         "<-ClusteredScan[orders]",
         ("ix_cust", "ix_date", "hyp_status", "hyp_note"))),
    "delete_customers_hyp": (
        DEL_REGION, (HYP_REGION, HYP_NOTE), "full",
        (5.870000000000001,
         "Delete[customers|hyp_region]<-IndexSeek[hyp_region]",
         ("hyp_region",))),
    "insert_hyp": (
        INS, (HYP_STATUS, HYP_REGION, HYP_NOTE), "full",
        (1.12, "Insert[orders|hyp_note,hyp_status,ix_cust,ix_date]",
         ("ix_cust", "ix_date", "hyp_status", "hyp_note"))),
    "insert_excluding": (
        INS, (HYP_STATUS,), "date",
        (0.672, "Insert[orders|hyp_status,ix_date]",
         ("ix_date", "hyp_status"))),
    # -- a real index missing, hypothetical ones supplied
    "excluded_with_extras_select": (
        BY_CUST, (HYP_OCUST, HYP_NOTE), "date",
        (0.2611428571428571, "IndexSeek[hyp_ocust]", ("hyp_ocust",))),
    "excluded_names_an_extra": (
        BY_CUST, (HYP_CUST_TWIN,), "date",
        (0.2611428571428571, "IndexSeek[hyp_cust_twin]",
         ("hyp_cust_twin",))),
    "excluded_with_extras_update": (
        UPD_STATUS, (HYP_OCUST,), "date",
        (9.477142857142859,
         "Update[orders|hyp_ocust]<-IndexSeek[hyp_ocust]->KeyLookup[orders]",
         ("hyp_ocust",))),
    # -- cost ties: the earliest candidate wins, and base precedes extras
    "tie_select_base_wins": (
        BY_CUST, (HYP_CUST_TWIN,), "full",
        (0.2611428571428571, "IndexSeek[ix_cust]", ("ix_cust",))),
    "tie_update_base_wins": (
        UPD_STATUS, (HYP_CUST_TWIN,), "full",
        (4.869142857142858,
         "Update[orders|]<-IndexSeek[ix_cust]->KeyLookup[orders]",
         ("ix_cust",))),
    "tie_delete_base_wins": (
        DEL_CUST, (HYP_CUST_TWIN,), "full",
        (11.781142857142859,
         "Delete[orders|hyp_cust_twin,ix_cust,ix_date]"
         "<-IndexSeek[ix_cust]->KeyLookup[orders]",
         ("ix_cust", "ix_date", "hyp_cust_twin"))),
    "tie_between_extras_first_wins": (
        BY_CUST, (HYP_CUST_TWIN, HYP_CUST_TWIN2), "date",
        (0.2611428571428571, "IndexSeek[hyp_cust_twin]",
         ("hyp_cust_twin",))),
    "aggregate_with_order_providing_hyp": (
        AGG_STATUS, (HYP_STATUS,), "full",
        (3.27627125, "HashAgg(o_status)<-ClusteredSeek[orders]", ())),
}


class TestPinnedAcrossPlannerCollapse:
    """The absolute oracle for deleting the per-configuration planner.

    Until the commit that made the what-if substrate the only planner,
    ``Optimizer.optimize`` threaded ``extra_indexes`` through
    ``_plan_select/_plan_insert/_plan_update/_plan_delete``.  Every
    literal below was recorded from that code path at that commit's
    parent, so the substrate is held to the floats, winners and errors
    of the planner it replaced rather than only to itself.  The cases
    recorded under the since-deleted ``excluded`` what-if mode reproduce
    bit for bit on twins that never created the hidden indexes.
    """

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned(self, engines, name):
        query, extras, fixture, expected = PINNED[name]
        eng = engines[fixture]
        if expected is ExecutionError:
            with pytest.raises(ExecutionError, match="which does not exist"):
                eng.whatif_optimize(query, extras)
            with pytest.raises(ExecutionError, match="which does not exist"):
                eng.whatif_batch(query).price(extras)
            return
        plans = [eng.whatif_optimize(query, extras)]
        if not extras:
            plans.append(eng.optimizer.optimize(query))
        for plan in plans:
            assert (
                plan.est_cost, plan.signature(), plan.referenced_indexes()
            ) == expected
