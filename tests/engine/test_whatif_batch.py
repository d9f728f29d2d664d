"""What-if pricing: a shared substrate equals a fresh one.

There is one planner; what varies is how much of its work is reused.
The contract is that reuse is unobservable: pricing a whole frontier
through one ``whatif_batch`` — warm per-definition memos, substrate-store
hits, plan-cache hits — yields the same cost floats, plan choices,
errors, MI-DMV silence and governor charges as recomputing everything
for every configuration.  The Hypothesis suite drives twin engines with
identical call sequences: the *fresh* twin empties its plan cache (plans
and substrates) before every single ``whatif_optimize``, the *shared*
twin never does.  ``test_optimizer_regressions.py`` pins the absolute
values; this suite pins that sharing cannot move them.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.engine.optimizer import BatchPricingStats
from repro.errors import ExecutionError, OptimizeError
from repro.recommender.dta.whatif import WhatIfSession
from tests.engine.test_executor_property import select_queries
from tests.engine.test_optimizer import perfect_engine

#: (table, key columns, included columns) pool the configuration
#: strategy draws hypothetical indexes from.
_INDEX_POOL = (
    ("orders", ("o_cust",), ("o_amount",)),
    ("orders", ("o_date",), ()),
    ("orders", ("o_status", "o_date"), ("o_amount",)),
    ("orders", ("o_amount",), ("o_cust", "o_note")),
    ("orders", ("o_note",), ()),
    ("customers", ("c_region",), ("c_name",)),
    ("customers", ("c_name",), ()),
)


def _definition(i: int) -> IndexDefinition:
    table, keys, includes = _INDEX_POOL[i]
    return IndexDefinition(
        name=f"hyp_{i}",
        table=table,
        key_columns=keys,
        included_columns=includes,
        hypothetical=True,
    )


@st.composite
def configurations(draw):
    """A frontier of 1-8 configurations, each of 1-3 hypothetical indexes."""
    frontier = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=len(_INDEX_POOL) - 1),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            min_size=1,
            max_size=8,
        )
    )
    return [tuple(_definition(i) for i in config) for config in frontier]


#: Index hints the statement strategy draws from: the twins' one real
#: index, three pool definitions (present only in configurations that
#: happen to contain them), and a name nothing carries.
_HINTS = ("ix_cust", "hyp_0", "hyp_2", "hyp_3", "ix_gone")

_JOINS = (
    JoinSpec("customers", "o_cust", "c_id", (), ("c_name",)),
    JoinSpec(
        "customers", "o_cust", "c_id",
        (Predicate("c_region", Op.EQ, 4),), ("c_name",),
    ),
    JoinSpec("customers", "o_status", "c_region", (), ("c_name",)),
)


@st.composite
def statements(draw):
    """SELECTs over orders: plain / aggregate / ordered, optionally joined
    to customers, optionally index-hinted."""
    query = draw(select_queries())
    join = draw(st.one_of(st.none(), st.sampled_from(_JOINS)))
    hint = draw(st.one_of(st.none(), st.sampled_from(_HINTS)))
    return dataclasses.replace(query, join=join, index_hint=hint)


def _twin():
    eng = perfect_engine(seed=5001)
    eng.create_index(
        IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
    )
    return eng


@pytest.fixture(scope="module")
def twins():
    return _twin(), _twin()


def _fresh_plan(eng, query, config=()):
    """One configuration with nothing to reuse: no plans, no substrates."""
    eng.plan_cache.invalidate()
    return eng.whatif_optimize(query, extra_indexes=config)


def _outcome(price, *args):
    """(cost, signature) of a priced plan, or the hint error's type."""
    try:
        plan = price(*args)
    except ExecutionError as exc:
        assert "which does not exist" in str(exc)
        return ExecutionError
    return plan.est_cost, plan.signature()


def _observable(eng):
    usage = eng.governor.tuning.usage
    return (
        len(eng.missing_indexes.snapshot(eng.now).entries),
        usage.whatif_calls,
        usage.cpu_ms,
        eng.optimizer.whatif_calls,
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=statements(), frontier=configurations())
def test_property_shared_equals_fresh(twins, query, frontier):
    fresh_eng, shared_eng = twins
    mi_before = _observable(shared_eng)[0]
    fresh = [_outcome(_fresh_plan, fresh_eng, query, c) for c in frontier]
    batch = shared_eng.whatif_batch(query)
    shared = [_outcome(batch.price, config) for config in frontier]
    assert shared == fresh  # exact float equality, not approx
    # Identical call sequences, so lifetime totals agree bit for bit:
    # what-if pricing never feeds the MI DMV, and every configuration is
    # metered once whether or not anything was reused (or it raised).
    assert _observable(shared_eng) == _observable(fresh_eng)
    assert _observable(shared_eng)[0] == mi_before


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=statements(), frontier=configurations())
def test_property_frontier_order_is_unobservable(twins, query, frontier):
    """Warm memos carry no history: pricing the frontier backwards through
    a second batch (substrate-store hit, plan-cache hits) changes nothing."""
    _fresh_eng, shared_eng = twins
    forward = shared_eng.whatif_batch(query)
    first = [_outcome(forward.price, config) for config in frontier]
    backward = shared_eng.whatif_batch(query)
    again = [_outcome(backward.price, c) for c in reversed(frontier)]
    assert again == first[::-1]


class TestBatchPricerParity:
    """Deterministic spot checks of the shared-substrate pricer."""

    QUERY = SelectQuery(
        "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
    )

    def test_empty_configuration_is_normal_mode_planning(self):
        fresh_eng, shared_eng = perfect_engine(11), perfect_engine(11)
        expected = _fresh_plan(fresh_eng, self.QUERY).est_cost
        assert shared_eng.whatif_cost_many(self.QUERY, [()]) == [expected]
        assert shared_eng.optimizer.optimize(self.QUERY).est_cost == expected
        # Zero configurations is not what-if mode.
        assert shared_eng.optimizer.whatif_calls == 0

    def test_counters_do_not_depend_on_grouping(self):
        """One call per configuration and one batch for all of them count
        the same plan-cache lookups and charge the same pool."""
        single_eng, batch_eng = perfect_engine(12), perfect_engine(12)
        frontier = [(_definition(0),), (_definition(2),), (_definition(0), _definition(2))]
        for _round in range(2):  # second round exercises cache hits
            for config in frontier:
                single_eng.whatif_cost(self.QUERY, extra_indexes=config)
            batch_eng.whatif_cost_many(self.QUERY, frontier)
        assert (
            batch_eng.plan_cache.hits,
            batch_eng.plan_cache.misses,
        ) == (single_eng.plan_cache.hits, single_eng.plan_cache.misses)
        assert _observable(batch_eng) == _observable(single_eng)
        assert batch_eng.optimizer.batch_stats.scalar_fallbacks == 0

    def test_substrate_reused_across_batches(self):
        eng = perfect_engine(13)
        eng.whatif_cost_many(self.QUERY, [(_definition(0),)])
        stats = eng.optimizer.batch_stats
        assert (stats.substrate_misses, stats.substrate_hits) == (1, 0)
        eng.whatif_cost_many(self.QUERY, [(_definition(1),)])
        assert (stats.substrate_misses, stats.substrate_hits) == (1, 1)
        # The one-configuration API finds the same substrate.
        eng.whatif_cost(self.QUERY, extra_indexes=(_definition(2),))
        assert (stats.substrate_misses, stats.substrate_hits) == (1, 2)
        assert eng.plan_cache.substrate_count() == 1

    def test_statement_execution_leaves_no_substrate(self):
        """Normal-mode planning prices zero configurations and keeps
        nothing: a plan-cache miss at the same versions will not recur."""
        eng = perfect_engine(17)
        eng.execute(self.QUERY)
        assert eng.plan_cache.substrate_count() == 0
        assert eng.optimizer.batch_stats == BatchPricingStats()

    def test_invalidation_drops_substrates(self):
        eng = perfect_engine(14)
        eng.whatif_cost_many(self.QUERY, [(_definition(0),)])
        assert eng.plan_cache.substrate_count() == 1
        eng.plan_cache.invalidate("orders")
        assert eng.plan_cache.substrate_count() == 0

    def test_dml_frontier_matches_fresh(self):
        fresh_eng, shared_eng = perfect_engine(16), perfect_engine(16)
        frontier = [(_definition(0),), (_definition(3),), (_definition(0), _definition(3))]
        for query in (
            UpdateQuery(
                "orders",
                (("o_status", 2),),
                (Predicate("o_amount", Op.GT, 500.0),),
            ),
            DeleteQuery("customers", (Predicate("c_region", Op.EQ, 4),)),
            InsertQuery("orders", ({"o_id": 10_000},)),
        ):
            expected = [
                _outcome(_fresh_plan, fresh_eng, query, config)
                for config in frontier
            ]
            batch = shared_eng.whatif_batch(query)
            assert [_outcome(batch.price, c) for c in frontier] == expected
        assert _observable(shared_eng) == _observable(fresh_eng)


class TestChargeRule:
    QUERY = SelectQuery(
        "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
    )

    def test_every_configuration_pays_the_call_rate(self):
        eng = perfect_engine(21)
        before = eng.governor.tuning.usage.cpu_ms
        eng.whatif_cost_many(
            self.QUERY, [(_definition(0),), (_definition(1),)]
        )
        charged = eng.governor.tuning.usage.cpu_ms - before
        assert charged == 2 * eng.settings.whatif_call_cpu_ms


class TestWhatIfSessionRegressions:
    QUERY = SelectQuery(
        "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
    )

    def test_cost_cache_keys_on_definition_not_name(self):
        """Same-named but differently-defined indexes must not collide."""
        eng = perfect_engine(31)
        session = WhatIfSession(eng)
        covering = IndexDefinition(
            "ix_same", "orders", ("o_cust",), ("o_amount",), hypothetical=True
        )
        unrelated = IndexDefinition(
            "ix_same", "orders", ("o_note",), (), hypothetical=True
        )
        first = session.cost(self.QUERY, (covering,))
        second = session.cost(self.QUERY, (unrelated,))
        assert first != second  # the collision would return `first` twice
        assert session.stats.calls == 2
        assert session.stats.cache_hits == 0

    def test_cost_cache_hits_on_renamed_twin(self):
        eng = perfect_engine(32)
        session = WhatIfSession(eng)
        twin_a = IndexDefinition(
            "ix_a", "orders", ("o_cust",), ("o_amount",), hypothetical=True
        )
        twin_b = IndexDefinition(
            "ix_b", "orders", ("o_cust",), ("o_amount",), hypothetical=True
        )
        first = session.cost(self.QUERY, (twin_a,))
        second = session.cost(self.QUERY, (twin_b,))
        assert second == first
        assert session.stats.calls == 1
        assert session.stats.cache_hits == 1

    def test_failed_statements_cached_and_charged_once(self):
        eng = perfect_engine(33)
        session = WhatIfSession(eng)
        bulk = InsertQuery("orders", ({"o_id": 10_001},), bulk=True)
        config = (_definition(0),)
        before = eng.governor.tuning.usage.cpu_ms
        assert session.cost(bulk, config) is None
        charged_once = eng.governor.tuning.usage.cpu_ms - before
        assert charged_once > 0  # the failed optimization was metered
        assert session.cost(bulk, config) is None  # served from the cache
        assert eng.governor.tuning.usage.cpu_ms - before == charged_once
        assert session.stats.failed_statements == 1
        assert session.stats.cache_hits == 1

    def test_bulk_insert_raises_before_any_substrate(self):
        eng = perfect_engine(36)
        bulk = InsertQuery("orders", ({"o_id": 10_002},), bulk=True)
        with pytest.raises(OptimizeError):
            eng.whatif_cost_many(bulk, [(_definition(0),)])
        with pytest.raises(OptimizeError):
            eng.whatif_cost(bulk, extra_indexes=(_definition(0),))
        stats = eng.optimizer.batch_stats
        assert (stats.substrate_misses, stats.substrate_hits) == (0, 0)
        assert eng.plan_cache.substrate_count() == 0
