"""Engine facade integration: lock convoys, restarts, joins with lookups."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import (
    IndexDefinition,
    JoinSpec,
    Op,
    Predicate,
    SelectQuery,
)
from repro.engine import engine as engine_module
from repro.engine.engine import bind_literals
from repro.engine.locks import LockPriority
from repro.engine.plans import (
    ClusteredScanNode,
    ClusteredSeekNode,
    KeyLookupNode,
    NestedLoopJoinNode,
)
from repro.errors import QueryError
from tests.engine.test_executor import brute_force, norm
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


class TestNestedLoopWithLookup:
    def test_nl_join_inner_keylookup_binding(self):
        """NLJ whose inner side is a non-covering seek + key lookup."""
        eng = perfect_engine(seed=501)
        # Index on the join column without the projected column: the inner
        # access must be IndexSeek -> KeyLookup with a bound parameter.
        eng.create_index(IndexDefinition("ix_reg", "customers", ("c_region",)))
        query = SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_id", Op.BETWEEN, 0, 25),),
            join=JoinSpec(
                "customers", "o_cust", "c_region", select_columns=("c_name",)
            ),
        )
        plan = eng.optimizer.optimize(query)
        if isinstance(plan, NestedLoopJoinNode) and isinstance(
            plan.inner, KeyLookupNode
        ):
            result = eng.execute(query)
            assert norm(result.rows) == norm(brute_force(eng, query))
        else:
            # Plan shape depends on costing; correctness must hold anyway.
            result = eng.execute(query)
            assert norm(result.rows) == norm(brute_force(eng, query))


class TestLiteralBinding:
    def test_literals_bind_to_column_types_before_planning(self, monkeypatch):
        """``execute`` converts each literal to its column's type once;
        the bound statement is planned, run and registered."""
        eng = perfect_engine(seed=503)
        tables = eng.database.tables
        typed = SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.EQ, 5),))
        assert bind_literals(typed, tables) is typed  # the workload case
        # A numeric-text literal on an INT column is its number, on the
        # seek path and the scan path alike.
        for column, text, number, node in (
            ("o_id", "5", 5, ClusteredSeekNode),
            ("o_cust", "7", 7, ClusteredScanNode),
        ):
            as_text = SelectQuery("orders", ("o_id",), (Predicate(column, Op.EQ, text),))
            as_number = SelectQuery(
                "orders", ("o_id",), (Predicate(column, Op.EQ, number),)
            )
            got = eng.execute(as_text)
            assert isinstance(got.plan, node)
            assert got.rows == eng.execute(as_number).rows
            assert norm(got.rows) == norm(brute_force(eng, as_number)) != []
            registered = eng.observed_statement(got.query_id)
            assert registered.predicates[0].value == number
            assert type(registered.predicates[0].value) is int
        joined = SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_amount", Op.LT, 10),),
            join=JoinSpec(
                "customers", "o_cust", "c_id",
                predicates=(Predicate("c_region", Op.EQ, "3"),),
            ),
        )
        bound = bind_literals(joined, tables)
        assert bound.predicates[0].value == 10.0
        assert type(bound.predicates[0].value) is float
        assert bound.join.predicates[0].value == 3
        # A literal that cannot convert fails before planning (no plan,
        # no MI emission), on either side of a join; so does a self-join,
        # whose two sides' columns would share their names.
        def no_planning(*_args, **_kwargs):
            raise AssertionError("planned an unbindable statement")

        monkeypatch.setattr(eng.optimizer, "optimize", no_planning)
        for bad in (
            SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.EQ, "abc"),)),
            SelectQuery(
                "orders", ("o_id",), (Predicate("o_amount", Op.GT, float("nan")),)
            ),
            dataclasses.replace(
                joined,
                join=dataclasses.replace(
                    joined.join,
                    predicates=(Predicate("c_region", Op.BETWEEN, 1, "x"),),
                ),
            ),
            SelectQuery(
                "orders", ("o_id", "o_note"), (Predicate("o_id", Op.LT, 5),),
                join=JoinSpec("orders", left_column="o_cust", right_column="o_id"),
            ),
        ):
            with pytest.raises(QueryError):
                eng.execute(bad)

    def test_infinite_literal_on_int_column_fails_before_planning(
        self, monkeypatch
    ):
        """An INT predicate bound to ``inf`` raises QueryError (not a
        bare OverflowError) before planning, and Query Store records
        nothing."""
        eng = perfect_engine(seed=503)
        recorded = len(eng.query_store.queries())

        def no_planning(*_args, **_kwargs):
            raise AssertionError("planned an unbindable statement")

        monkeypatch.setattr(eng.optimizer, "optimize", no_planning)
        query = SelectQuery(
            "orders", ("o_id",), (Predicate("o_id", Op.GT, float("inf")),)
        )
        with pytest.raises(QueryError, match="cannot coerce"):
            eng.execute(query)
        assert len(eng.query_store.queries()) == recorded


class TestLockIntegration:
    def test_pending_schm_delays_statement_duration(self):
        eng = perfect_engine(seed=502)
        # A long reader then a normal-priority Sch-M queued behind it.
        eng.locks.register_shared("orders", start=eng.now, duration=30.0)
        eng.locks.request_exclusive(
            "orders", now=eng.now, priority=LockPriority.NORMAL
        )
        query = SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.EQ, 1),))
        result = eng.execute(query)
        # The statement waited behind the queued drop: ~30 min of convoy.
        assert result.metrics.duration_ms > 29 * 60_000

    def test_low_priority_drop_never_delays(self):
        eng = perfect_engine(seed=503)
        eng.create_index(IndexDefinition("ix_tmp", "orders", ("o_cust",)))
        eng.locks.register_shared("orders", start=eng.now, duration=30.0)
        from repro.engine.ddl import LowPriorityDropProtocol

        protocol = LowPriorityDropProtocol(eng, "orders", "ix_tmp")
        assert not protocol.attempt(eng.now)
        query = SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.EQ, 1),))
        result = eng.execute(query)
        assert result.metrics.duration_ms < 60_000  # no convoy


class TestRestartSemantics:
    def test_restart_clears_plan_cache_and_dmv(self):
        eng = perfect_engine(seed=504)
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )
        eng.execute(query)
        assert len(eng.missing_indexes) == 1
        assert eng._plan_cache_text
        eng.restart()
        assert len(eng.missing_indexes) == 0
        assert not eng._plan_cache_text
        assert eng.restarts == 1
        # Query Store survives restarts (it is persistent by design).
        assert eng.query_store.queries()

    def test_statement_for_tuning_after_restart(self, monkeypatch):
        eng = perfect_engine(seed=505)
        monkeypatch.setattr(engine_module, "INCOMPLETE_TEXT_RATE", 1.0)
        monkeypatch.setattr(engine_module, "PLAN_CACHE_TEXT_RETENTION", 1.0)
        query = SelectQuery("orders", ("o_id",), (Predicate("o_cust", Op.EQ, 2),))
        eng.execute(query)
        query_id = query.template_key()
        assert eng.statement_for_tuning(query_id) is not None
        eng.restart()
        # Fragment text + empty plan cache: the statement is untunable now.
        assert eng.statement_for_tuning(query_id) is None
