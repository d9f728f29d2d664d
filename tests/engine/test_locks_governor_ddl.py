"""Lock manager, resource governor, and online DDL tests."""

from __future__ import annotations

import pytest

from repro.engine.ddl import (
    BuildState,
    LowPriorityDropProtocol,
    OnlineIndexBuildJob,
)
from repro.engine.engine import Database, SqlEngine
from repro.engine.locks import LockManager, LockPriority
from repro.engine.resource_governor import ResourceGovernor, ResourcePool
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import SqlType
from repro.errors import LockTimeoutError, ResourceBudgetExceededError


def small_engine(rows: int = 100) -> SqlEngine:
    schema = TableSchema(
        "t",
        [Column("id", SqlType.INT, nullable=False), Column("v", SqlType.INT)],
        primary_key=["id"],
    )
    database = Database("ddl")
    table = database.create_table(schema)
    for i in range(rows):
        table.insert((i, i % 5))
    return SqlEngine(database)


class TestLockManager:
    def test_low_priority_grants_when_idle(self):
        locks = LockManager()
        grant = locks.request_exclusive("t", now=0.0, priority=LockPriority.LOW)
        assert grant.granted_at == 0.0
        assert grant.waited == 0.0

    def test_low_priority_times_out_behind_long_reader(self):
        locks = LockManager()
        locks.register_shared("t", start=0.0, duration=30.0)
        with pytest.raises(LockTimeoutError):
            locks.request_exclusive(
                "t", now=1.0, priority=LockPriority.LOW, wait_timeout=0.5
            )

    def test_low_priority_grants_behind_short_reader(self):
        locks = LockManager()
        locks.register_shared("t", start=0.0, duration=0.2)
        grant = locks.request_exclusive(
            "t", now=0.0, priority=LockPriority.LOW, wait_timeout=1.0
        )
        assert grant.granted_at == pytest.approx(0.2)

    def test_normal_priority_creates_convoy(self):
        locks = LockManager()
        locks.register_shared("t", start=0.0, duration=10.0)
        locks.request_exclusive("t", now=1.0, priority=LockPriority.NORMAL)
        # A reader arriving while the Sch-M is queued gets delayed to 10.0.
        delayed = locks.register_shared("t", start=2.0, duration=0.1)
        assert delayed == pytest.approx(10.0)
        assert locks.convoy_delay("t") == pytest.approx(8.0)

    def test_low_priority_never_delays_readers(self):
        locks = LockManager()
        locks.register_shared("t", start=0.0, duration=10.0)
        with pytest.raises(LockTimeoutError):
            locks.request_exclusive(
                "t", now=1.0, priority=LockPriority.LOW, wait_timeout=0.1
            )
        start = locks.register_shared("t", start=2.0, duration=0.1)
        assert start == 2.0
        assert locks.convoy_delay("t") == 0.0

    def test_release_clears_pending(self):
        locks = LockManager()
        locks.request_exclusive("t", now=0.0, priority=LockPriority.NORMAL)
        locks.release_exclusive("t")
        assert locks.register_shared("t", start=1.0, duration=0.1) == 1.0

    def test_expired_holds_do_not_block(self):
        locks = LockManager()
        locks.register_shared("t", start=0.0, duration=1.0)
        grant = locks.request_exclusive(
            "t", now=5.0, priority=LockPriority.LOW, wait_timeout=0.1
        )
        assert grant.granted_at == 5.0


class TestResourceGovernor:
    def test_ungoverned_pool_never_raises(self):
        pool = ResourcePool("user", budget_cpu_ms=None)
        pool.charge_cpu(10 ** 9, now=0.0)
        assert pool.usage.cpu_ms == 10 ** 9

    def test_budget_enforced_within_window(self):
        pool = ResourcePool("tuning", budget_cpu_ms=100.0, window_minutes=60.0)
        pool.charge_cpu(90.0, now=0.0)
        with pytest.raises(ResourceBudgetExceededError):
            pool.charge_cpu(20.0, now=1.0)

    def test_budget_resets_next_window(self):
        pool = ResourcePool("tuning", budget_cpu_ms=100.0, window_minutes=60.0)
        pool.charge_cpu(90.0, now=0.0)
        pool.charge_cpu(90.0, now=61.0)  # new window: no error
        assert pool.usage.cpu_ms == pytest.approx(180.0)

    def test_headroom(self):
        pool = ResourcePool("tuning", budget_cpu_ms=100.0)
        pool.charge_cpu(30.0, now=0.0)
        assert pool.window_headroom(0.0) == pytest.approx(70.0)
        assert ResourcePool("u", None).window_headroom(0.0) is None

    def test_governor_pools(self):
        governor = ResourceGovernor(tuning_budget_cpu_ms=50.0)
        assert governor.user.budget_cpu_ms is None
        assert governor.tuning.budget_cpu_ms == 50.0
        assert governor.pool("index_build") is governor.index_build


class TestOnlineIndexBuild:
    def test_build_completes_and_materializes(self):
        eng = small_engine(500)
        job = OnlineIndexBuildJob(eng, IndexDefinition("ix", "t", ("v",)))
        while job.state is not BuildState.COMPLETED:
            job.advance(100, now=1.0)
        table = eng.database.table("t")
        assert "ix" in table.indexes
        assert len(table.get_index("ix").tree) == 500

    def test_progress_fractions(self):
        eng = small_engine(100)
        job = OnlineIndexBuildJob(eng, IndexDefinition("ix", "t", ("v",)))
        job.advance(25, now=0.0)
        assert job.rows_done == 25
        assert job.rows_done / job.rows_total == pytest.approx(0.25)
        assert job.state is BuildState.RUNNING
        assert "ix" not in eng.database.table("t").indexes

    def test_empty_table_build(self):
        eng = small_engine(0)
        job = OnlineIndexBuildJob(eng, IndexDefinition("ix", "t", ("v",)))
        job.advance(10, now=0.0)
        assert job.state is BuildState.COMPLETED
        assert "ix" in eng.database.table("t").indexes


class TestLowPriorityDrop:
    def test_drop_succeeds_when_idle(self):
        eng = small_engine(10)
        eng.create_index(IndexDefinition("ix", "t", ("v",)))
        protocol = LowPriorityDropProtocol(eng, "t", "ix")
        assert protocol.attempt(now=0.0)
        assert "ix" not in eng.database.table("t").indexes

    def test_drop_backs_off_behind_readers(self):
        eng = small_engine(10)
        eng.create_index(IndexDefinition("ix", "t", ("v",)))
        eng.locks.register_shared("t", start=0.0, duration=100.0)
        protocol = LowPriorityDropProtocol(eng, "t", "ix")
        assert not protocol.attempt(now=0.0)
        assert "ix" in eng.database.table("t").indexes
        # Readers drained: the retry succeeds.
        assert protocol.attempt(now=200.0)
        assert protocol.dropped

    def test_exhaustion_reported(self):
        eng = small_engine(10)
        eng.create_index(IndexDefinition("ix", "t", ("v",)))
        eng.locks.register_shared("t", start=0.0, duration=10 ** 6)
        protocol = LowPriorityDropProtocol(eng, "t", "ix")
        for i in range(LowPriorityDropProtocol.MAX_ATTEMPTS):
            assert not protocol.attempt(now=float(i))
        assert protocol.exhausted()
