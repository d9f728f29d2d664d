"""Plan-cache semantics: hits, misses, keying, invalidation, eviction."""

from __future__ import annotations

import pytest

from repro.engine import IndexDefinition, Op, Predicate, SelectQuery
from repro.engine.plan_cache import PlanCache, PlanCacheEntry
from repro.engine.plans import IndexSeekNode
from repro.engine.query import InsertQuery
from tests.engine.test_optimizer import perfect_engine

QUERY = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))


@pytest.fixture
def eng():
    return perfect_engine(seed=7001)


class TestHitMiss:
    def test_repeat_optimize_hits_and_shares_the_plan(self, eng):
        cache = eng.plan_cache
        first = eng.optimizer.optimize(QUERY)
        assert (cache.hits, cache.misses) == (0, 1)
        second = eng.optimizer.optimize(QUERY)
        assert second is first  # memoized object, not a re-plan
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_literals_are_different_entries(self, eng):
        eng.optimizer.optimize(QUERY)
        other = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 4),)
        )
        eng.optimizer.optimize(other)
        assert eng.plan_cache.misses == 2
        assert len(eng.plan_cache) == 2

    def test_whatif_pricing_never_touches_plans(self, eng):
        """What-if pricing prices off the statement's substrate: no plan
        lookups, no stores, no evictions — and so the statement's first
        execution still plans for real."""
        hyp = IndexDefinition(
            "hyp", "orders", ("o_cust",), ("o_amount",), hypothetical=True
        )
        cache = eng.plan_cache
        frontier = [(), (hyp,), (), (hyp,)]
        batch = eng.whatif_batch(QUERY)
        batch_costs = [batch.cost(config) for config in frontier]
        assert eng.whatif_cost_many(QUERY, frontier) == batch_costs
        assert (cache.hits, cache.misses, cache.evictions, len(cache)) == (
            0, 0, 0, 0
        )
        plan = eng.execute(QUERY).plan
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        assert plan.est_cost == batch_costs[0]

    def test_mi_emissions_replay_on_hit(self, eng):
        def collect():
            hits = []

            def sink(*args):
                hits.append(args)

            eng.optimizer.optimize(QUERY, mi_sink=sink)
            return hits

        cold, warm = collect(), collect()
        assert cold  # the o_cust predicate produces an MI candidate
        assert warm == cold
        assert eng.plan_cache.hits == 1


class TestInvalidation:
    def test_create_index_invalidates_and_replans(self, eng):
        stale = eng.optimizer.optimize(QUERY)
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        assert len(eng.plan_cache) == 0
        fresh = eng.optimizer.optimize(QUERY)
        assert fresh is not stale
        assert isinstance(fresh, IndexSeekNode)  # the new index is chosen

    def test_drop_index_invalidates(self, eng):
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        eng.optimizer.optimize(QUERY)
        eng.drop_index("orders", "ix_cust")
        assert len(eng.plan_cache) == 0
        assert not isinstance(eng.optimizer.optimize(QUERY), IndexSeekNode)

    def test_invalidation_is_per_table(self, eng):
        eng.optimizer.optimize(QUERY)
        eng.optimizer.optimize(SelectQuery("customers", ("c_name",)))
        assert len(eng.plan_cache) == 2
        removed = eng.plan_cache.invalidate("customers")
        assert removed == 1
        assert len(eng.plan_cache) == 1

    def test_dml_makes_cached_key_unreachable(self, eng):
        eng.optimizer.optimize(QUERY)
        row = (999_999, 3, 0, 1.0, 10, "note-x")
        eng.execute(InsertQuery("orders", (row,)))
        before = eng.plan_cache.misses
        eng.optimizer.optimize(QUERY)  # data_version changed -> new key
        assert eng.plan_cache.misses == before + 1

    def test_statistics_refresh_invalidates(self, eng):
        eng.optimizer.optimize(QUERY)
        eng.build_all_statistics()
        assert len(eng.plan_cache) == 0
        before = eng.plan_cache.misses
        eng.optimizer.optimize(QUERY)  # stats_version changed -> new key
        assert eng.plan_cache.misses == before + 1

    def test_restart_clears(self, eng):
        eng.optimizer.optimize(QUERY)
        eng.restart()
        assert len(eng.plan_cache) == 0


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        entry = PlanCacheEntry(plan=object(), mi_emissions=(), tables=("t",))
        cache.store("a", entry)
        cache.store("b", entry)
        assert cache.lookup("a") is entry  # refresh "a": now "b" is LRU
        cache.store("c", entry)
        assert cache.evictions == 1
        assert cache.lookup("b") is None
        assert cache.lookup("a") is entry
        assert cache.lookup("c") is entry

    def test_zero_capacity_disables_storage(self):
        cache = PlanCache(capacity=0)
        cache.store("a", PlanCacheEntry(object(), (), ("t",)))
        assert len(cache) == 0
