"""Profiler stack and engine hot-path hooks."""

from __future__ import annotations

from repro.engine import IndexDefinition, Op, Predicate, SelectQuery
from repro.observability import (
    Profiler,
    active,
    count,
    profile,
    use_profiler,
)


class TestProfiler:
    def test_profile_times_and_counts(self):
        profiler = Profiler()
        with use_profiler(profiler):
            with profile("hot"):
                pass
            with profile("hot"):
                pass
        stat = profiler.stats()["hot"]
        assert stat.calls == 2
        assert stat.real_seconds >= 0.0
        assert stat.real_ms == stat.real_seconds * 1000.0

    def test_profile_sim_ms_handle(self):
        profiler = Profiler()
        with use_profiler(profiler):
            with profile("whatif") as prof:
                prof.sim_ms = 12.5
            with profile("whatif") as prof:
                prof.sim_ms = 7.5
        assert profiler.stats()["whatif"].sim_ms == 20.0

    def test_count_is_untimed(self):
        profiler = Profiler()
        with use_profiler(profiler):
            count("btree_insert")
            count("btree_insert", sim_ms=1.0)
        stat = profiler.stats()["btree_insert"]
        assert stat.calls == 2
        assert stat.real_seconds == 0.0
        assert stat.sim_ms == 1.0

    def test_records_even_if_body_raises(self):
        profiler = Profiler()
        with use_profiler(profiler):
            try:
                with profile("boom"):
                    raise RuntimeError
            except RuntimeError:
                pass
        assert profiler.stats()["boom"].calls == 1

    def test_stack_restores_on_exit(self):
        default = active()
        scoped = Profiler()
        with use_profiler(scoped):
            assert active() is scoped
        assert active() is default

    def test_rows_sorted_by_real_time(self):
        profiler = Profiler()
        profiler.record("slow", 2.0)
        profiler.record("fast", 0.5)
        profiler.count("untimed")
        assert [r.name for r in profiler.rows()] == ["slow", "fast", "untimed"]
        profiler.reset()
        assert profiler.rows() == []


class TestEngineHooks:
    def test_engine_run_populates_hot_paths(self, engine):
        query = SelectQuery(
            "orders", ("o_id",), (Predicate("o_id", Op.BETWEEN, 0, 50),)
        )
        profiler = Profiler()
        with use_profiler(profiler):
            for _ in range(3):
                engine.execute(query)
            engine.whatif_optimize(query)
        stats = profiler.stats()
        assert stats["engine_execute"].calls == 3
        assert stats["engine_execute"].sim_ms > 0.0
        # Every execution plans for real (nothing memoizes plans); the
        # what-if call prices off the statement substrate instead.
        assert stats["optimizer_plan_search"].calls == 3
        assert stats["engine_whatif_cost"].calls == 1
        # Executing a range query walks the B+ tree one way or another.
        assert any(name.startswith("btree_") for name in stats)

    def test_btree_counters_tick(self, orders_db):
        table = orders_db.tables["orders"]
        table.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",)))
        profiler = Profiler()
        with use_profiler(profiler):
            table.insert_rows(
                [(999_990 + i, 1, 0, 1.0, 10, "note-x") for i in range(3)]
            )
        # One tick for the batch, counting every entry it wrote: three
        # rows, each into the clustered tree and the one index.
        assert profiler.stats()["btree_insert"].calls == 6
