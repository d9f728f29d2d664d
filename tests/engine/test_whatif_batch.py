"""What-if pricing: a shared substrate equals a fresh one.

There is one planner; what varies is how much of its work is reused.
The contract is that reuse is unobservable: pricing a whole frontier
through one ``whatif_batch`` — warm per-definition memos, a held
substrate — yields the same cost floats, plan choices, errors, MI-DMV
silence and governor charges as recomputing everything for every
configuration.  The Hypothesis suite drives twin engines with identical
call sequences: the *fresh* twin prices every configuration through its
own ``whatif_optimize``, a one-off batch that builds its own substrate;
the *shared* twin prices the frontier through one batch, and a third
asks that batch's ``cost`` wherever the shared twin asks ``price``: the
same floats, errors and metering, without the plan.
``test_optimizer_regressions.py`` pins the absolute values; this suite
pins that sharing cannot move them.  Where substrates live (with the
session that holds them: reused within it, rebuilt when a table version
moves, never shared across sessions, dropped on ``clear()``) is covered
in :class:`TestBatchPricerParity`.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
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
from repro.engine.engine import WHATIF_CALL_CPU_MS
from repro.engine.optimizer import BatchPricingStats, HeldSubstrate
from repro.engine.plans import IndexSeekNode
from repro.engine.resource_governor import ResourcePool
from repro.engine.statistics import TableStatistics
from repro.errors import (
    ExecutionError,
    OptimizeError,
    ResourceBudgetExceededError,
    SessionAbortedError,
    UnknownColumnError,
)
from repro.observability.profiling import Profiler, use_profiler
from repro.recommender.dta import DtaSession, DtaSettings
from repro.recommender.dta.whatif import WhatIfSession
from tests.engine.test_executor_property import predicates, select_queries
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")

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


def _where(draw):
    return tuple(draw(st.lists(predicates(), max_size=2)))


@st.composite
def writes(draw):
    """UPDATE / DELETE / INSERT / BULK INSERT over orders.  ``o_amount``
    and ``o_note`` are *included* (never key) columns of pool definitions
    0 and 3: an UPDATE assigning them must still maintain those."""
    kind = draw(st.sampled_from(["update", "delete", "insert", "bulk"]))
    if kind == "update":
        column, value = draw(
            st.sampled_from(
                [("o_amount", 1.0), ("o_status", 2), ("o_note", "n"), ("o_date", 9)]
            )
        )
        return UpdateQuery("orders", ((column, value),), _where(draw))
    if kind == "delete":
        return DeleteQuery("orders", _where(draw))
    rows = tuple(
        (20_000 + i, 1, 1, 1.0, 1, "x")
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return InsertQuery("orders", rows, bulk=kind == "bulk")


costable = st.one_of(statements(), writes())


def _twin():
    eng = perfect_engine(seed=5001)
    eng.create_index(
        IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
    )
    return eng


@pytest.fixture(scope="module")
def twins():
    """(fresh, shared, costed): the third asks ``cost`` wherever the
    shared one asks ``price``."""
    return _twin(), _twin(), _twin()


def _costs(eng, query, frontier, held=None):
    """The frontier's costs, priced through one batch."""
    batch = eng.whatif_batch(query, held)
    return [batch.price(config).est_cost for config in frontier]


def _fresh_plan(eng, query, config=()):
    """One configuration with nothing to reuse: a one-off batch."""
    return eng.whatif_optimize(query, extra_indexes=config)


def _substrates(eng):
    """The engine's (substrate misses, substrate hits)."""
    stats = eng.optimizer.batch_stats
    return stats.substrate_misses, stats.substrate_hits


def _held(session):
    """The substrates a session holds, one per statement it costed."""
    return [record.held.substrate for record in session._statements.values()]


def _cached(session):
    """The configurations a session has cost-cached, each as the set of
    definitions it covers."""
    covers = {ident: fingerprint for fingerprint, ident in session._ids.items()}
    return {
        frozenset(covers[i] for i in covers if mask >> i & 1)
        for costs in session._cost_cache.values()
        for mask in costs
    }


def _outcome(price, *args):
    """(cost, signature) of a priced plan, or the error's type: a hint
    naming no index, or a BULK INSERT under hypothetical indexes."""
    try:
        plan = price(*args)
    except ExecutionError as exc:
        assert "which does not exist" in str(exc)
        return ExecutionError
    except OptimizeError:
        return OptimizeError
    return plan.est_cost, plan.signature()


def _cost_outcome(batch, config):
    """``batch.cost(config)``, or the error's type as :func:`_outcome`
    gives it."""
    try:
        return batch.cost(config)
    except (ExecutionError, OptimizeError) as exc:
        return type(exc)


def _whatif_row(profiler):
    row = profiler.stats()["engine_whatif_cost"]
    return row.calls, row.sim_ms


def _observable(eng):
    usage = eng.governor.tuning.usage
    return (
        len(eng.missing_indexes.snapshot(eng.now).entries),
        usage.whatif_calls,
        usage.cpu_ms,
        eng.optimizer.batch_stats.configurations,
    )


#: One of each statement kind, besides the generated ones.
_SINGLE = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))
_JOINED = SelectQuery(
    "orders", ("o_id",), (Predicate("o_cust", Op.LT, 40),), join=_JOINS[1]
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=costable, frontier=configurations())
@example(query=_SINGLE, frontier=[(_definition(0),), ()])
@example(query=_JOINED, frontier=[(_definition(5),), (_definition(6), _definition(2))])
@example(
    query=dataclasses.replace(_SINGLE, index_hint="ix_gone"),
    frontier=[(_definition(1),), ()],
)
@example(
    query=InsertQuery("orders", ((20_000, 1, 1, 1.0, 1, "x"),)),
    frontier=[(_definition(0), _definition(5)), ()],
)
@example(
    query=InsertQuery("orders", ((20_001, 1, 1, 1.0, 1, "x"),), bulk=True),
    frontier=[(_definition(0),), ()],
)
@example(
    query=UpdateQuery("orders", (("o_amount", 1.0),), (Predicate("o_cust", Op.EQ, 3),)),
    frontier=[(_definition(0),), (_definition(1), _definition(3))],
)
@example(
    query=DeleteQuery("orders", (Predicate("o_date", Op.LT, 40),)),
    frontier=[(_definition(1),), (_definition(4),)],
)
def test_property_shared_equals_fresh(twins, query, frontier):
    """Sharing a substrate is unobservable, and ``cost`` is ``price``
    without the plan: the same float bit for bit, the same error, the
    same metering."""
    fresh_eng, shared_eng, costed_eng = twins
    mi_before = _observable(shared_eng)[0]
    fresh = [_outcome(_fresh_plan, fresh_eng, query, c) for c in frontier]
    with use_profiler(Profiler()) as shared_rows:
        batch = shared_eng.whatif_batch(query)
        shared = [_outcome(batch.price, config) for config in frontier]
    assert shared == fresh  # exact float equality, not approx
    # Identical call sequences, so lifetime totals agree bit for bit:
    # what-if pricing never feeds the MI DMV, and every configuration is
    # metered once whether or not anything was reused (or it raised).
    assert _observable(shared_eng) == _observable(fresh_eng)
    assert _observable(shared_eng)[0] == mi_before
    with use_profiler(Profiler()) as costed_rows:
        costing = costed_eng.whatif_batch(query)
        costed = [_cost_outcome(costing, config) for config in frontier]
    assert costed == [
        outcome if isinstance(outcome, type) else outcome[0]
        for outcome in shared
    ]
    assert _observable(costed_eng) == _observable(shared_eng)
    assert _whatif_row(costed_rows) == _whatif_row(shared_rows)


@pytest.fixture(scope="module")
def twins_with():
    """Twin pairs that carry a generated set of real indexes (positions
    in ``_INDEX_POOL``, created as ``ix_<i>``), built once per set."""
    built = {}

    def build(positions: frozenset):
        if positions not in built:
            pair = []
            for _twin_index in range(2):
                eng = perfect_engine(seed=5001)
                for i in sorted(positions):
                    real = dataclasses.replace(
                        _definition(i), name=f"ix_{i}", hypothetical=False
                    )
                    eng.create_index(real)
                pair.append(eng)
            built[positions] = tuple(pair)
        return built[positions]

    return build


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    real=st.frozensets(
        st.integers(min_value=0, max_value=len(_INDEX_POOL) - 1), max_size=3
    ),
    query=statements(),
    frontier=configurations(),
)
def test_property_shared_equals_fresh_over_generated_real_indexes(
    twins_with, real, query, frontier
):
    """Sharing stays unobservable whatever real indexes sit under the
    hypothetical ones: the twins carry a generated real index set."""
    fresh_eng, shared_eng = twins_with(real)
    fresh = [_outcome(_fresh_plan, fresh_eng, query, c) for c in frontier]
    batch = shared_eng.whatif_batch(query)
    shared = [_outcome(batch.price, config) for config in frontier]
    assert shared == fresh  # exact float equality, not approx
    assert _observable(shared_eng) == _observable(fresh_eng)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=statements(), frontier=configurations())
def test_property_frontier_order_is_unobservable(twins, query, frontier):
    """Warm memos carry no history: pricing the frontier backwards through
    a second batch (a substrate-store hit, every per-definition memo
    warm) changes nothing."""
    _fresh_eng, shared_eng, _costed_eng = twins
    forward = shared_eng.whatif_batch(query)
    first = [_outcome(forward.price, config) for config in frontier]
    backward = shared_eng.whatif_batch(query)
    again = [_outcome(backward.price, c) for c in reversed(frontier)]
    assert again == first[::-1]


class TestBatchPricerParity:
    """Deterministic spot checks of the shared-substrate batch."""

    QUERY = SelectQuery(
        "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
    )

    def test_empty_configuration_is_normal_mode_planning(self):
        """Pricing no hypothetical index gives the statement's own plan
        cost; it is what-if traffic all the same — priced and charged
        once — and statement planning neither reads nor replaces the
        substrate the batch filled."""
        fresh_eng, shared_eng = perfect_engine(11), perfect_engine(11)
        expected = _fresh_plan(fresh_eng, self.QUERY).est_cost
        held = HeldSubstrate(self.QUERY)
        assert _costs(shared_eng, self.QUERY, [()], held) == [expected]
        substrate = held.substrate
        assert shared_eng.optimizer.optimize(self.QUERY).est_cost == expected
        assert shared_eng.optimizer.batch_stats.configurations == 1
        assert shared_eng.governor.tuning.usage.whatif_calls == 1
        assert _substrates(shared_eng) == (1, 0)
        assert substrate is not None and held.substrate is substrate

    def test_counters_do_not_depend_on_grouping(self):
        """One call per configuration and one batch for all of them charge
        the same pool, and neither counts a statement-plan lookup."""
        single_eng, batch_eng = perfect_engine(12), perfect_engine(12)
        frontier = [(_definition(0),), (_definition(2),), (_definition(0), _definition(2))]
        for _round in range(2):  # second round re-asks every configuration
            for config in frontier:
                single_eng.whatif_optimize(self.QUERY, config)
            _costs(batch_eng, self.QUERY, frontier)
        for eng in (single_eng, batch_eng):
            cache = eng.plan_cache
            assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert _observable(batch_eng) == _observable(single_eng)
        assert batch_eng.optimizer.batch_stats.scalar_fallbacks == 0

    def test_substrate_reused_within_a_session(self):
        eng = perfect_engine(13)
        session = WhatIfSession(eng)
        session.cost(self.QUERY, (_definition(0),))
        assert _substrates(eng) == (1, 0)
        session.cost(self.QUERY, (_definition(1),))
        assert _substrates(eng) == (1, 1)
        # A one-off batch builds its own; the session's is untouched.
        eng.whatif_optimize(self.QUERY, (_definition(2),))
        assert _substrates(eng) == (2, 1)
        assert len(_held(session)) == 1

    def test_statement_execution_leaves_no_substrate(self):
        """Normal-mode planning prices zero configurations and keeps
        nothing: a session costing the statement next builds its own."""
        eng = perfect_engine(17)
        eng.execute(self.QUERY)
        assert eng.optimizer.batch_stats == BatchPricingStats()
        WhatIfSession(eng).cost(self.QUERY, (_definition(0),))
        assert _substrates(eng) == (1, 0)

    def test_different_literals_are_different_substrates(self):
        eng = perfect_engine(14)
        other_literal = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 4),)
        )
        held, other_held = HeldSubstrate(self.QUERY), HeldSubstrate(other_literal)
        _costs(eng, self.QUERY, [(_definition(0),)], held)
        _costs(eng, other_literal, [(_definition(0),)], other_held)
        # The literals are the statement's own: two orders substrates.
        assert _substrates(eng) == (2, 0)
        assert held.substrate is not other_held.substrate

    def test_ensure_statistics_rebuilds_only_its_tables_substrate(self):
        """Sampled statistics built mid-session move that table's
        ``stats_version``: its statements' substrates are rebuilt, the
        other table's are reused."""
        eng = perfect_engine(14)
        eng.database.table("customers").statistics = TableStatistics("customers")
        session = WhatIfSession(eng)
        customers = SelectQuery("customers", ("c_name",))
        for query in (self.QUERY, customers):
            session.cost(query, (_definition(0),))
        assert _substrates(eng) == (2, 0)
        assert session.ensure_statistics("customers", ["c_region"]) == 1
        for query in (self.QUERY, customers):
            session.cost(query, (_definition(1),))
        assert _substrates(eng) == (3, 1)
        assert len(_held(session)) == 2

    def test_create_index_mid_session_rebuilds_and_replans(self):
        eng = perfect_engine(18)
        session = WhatIfSession(eng)
        session.cost(self.QUERY, (_definition(1),))
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        session.cost(self.QUERY, (_definition(3),))
        assert _substrates(eng) == (2, 0)  # schema_version moved
        assert isinstance(eng.optimizer.optimize(self.QUERY), IndexSeekNode)

    def test_drop_index_mid_session_rebuilds(self):
        eng = perfect_engine(18)
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        session = WhatIfSession(eng)
        session.cost(self.QUERY, (_definition(1),))
        eng.drop_index("orders", "ix_cust")
        session.cost(self.QUERY, (_definition(3),))
        assert _substrates(eng) == (2, 0)
        assert not isinstance(eng.optimizer.optimize(self.QUERY), IndexSeekNode)

    def test_dml_mid_session_rebuilds(self):
        eng = perfect_engine(19)
        session = WhatIfSession(eng)
        session.cost(self.QUERY, (_definition(0),))
        eng.execute(InsertQuery("orders", ((999_999, 3, 0, 1.0, 10, "note-x"),)))
        session.cost(self.QUERY, (_definition(1),))
        # data_version moved: the held substrate is stale.
        assert _substrates(eng) == (2, 0)
        assert len(_held(session)) == 1

    def test_statistics_refresh_mid_session_rebuilds(self):
        eng = perfect_engine(20)
        session = WhatIfSession(eng)
        session.cost(self.QUERY, (_definition(0),))
        stale = _held(session)
        eng.build_all_statistics()
        session.cost(self.QUERY, (_definition(1),))
        # stats_version moved: built afresh, in the stale one's place.
        assert _substrates(eng) == (2, 0)
        assert len(_held(session)) == 1 and _held(session)[0] is not stale[0]

    def test_restart_moves_no_version(self):
        """The engine holds no substrate for a restart to drop, and a
        restart moves no table version: the session's stays current."""
        eng = perfect_engine(20)
        session = WhatIfSession(eng)
        session.cost(self.QUERY, (_definition(0),))
        eng.restart()
        session.cost(self.QUERY, (_definition(1),))
        assert _substrates(eng) == (1, 1)

    def test_substrate_is_never_shared_across_sessions(self):
        eng = perfect_engine(22)
        first, second = WhatIfSession(eng), WhatIfSession(eng)
        first.cost(self.QUERY, (_definition(0),))
        second.cost(self.QUERY, (_definition(0),))
        assert _substrates(eng) == (2, 0)
        assert _held(first)[0] is not _held(second)[0]

    def test_clear_drops_the_substrates(self):
        """Session teardown (``clear()``, which an interference abort
        runs) drops every held substrate; the next costing rebuilds."""
        eng = perfect_engine(23)
        session = WhatIfSession(eng)
        session.cost(self.QUERY, (_definition(0),))
        assert len(_held(session)) == 1
        session.clear()
        assert _held(session) == []
        session.cost(self.QUERY, (_definition(0),))
        assert _substrates(eng) == (2, 0)
        # A DTA session aborted after candidate selection drops its own.
        for _ in range(3):
            eng.execute(self.QUERY)
        eng.clock.advance(30.0)
        held_at_check = []

        def interfering():
            held_at_check.append(len(_held(dta.whatif)))
            return len(held_at_check) == 2

        dta = DtaSession(
            eng, DtaSettings(tier="premium"), interference_check=interfering
        )
        with pytest.raises(SessionAbortedError):
            dta.run()
        assert held_at_check == [0, 1]
        assert _held(dta.whatif) == []

    def test_rebuilt_substrate_prices_the_same_costs(self):
        eng = perfect_engine(21)
        frontier = [(_definition(0),), (_definition(2),)]
        first = _costs(eng, self.QUERY, frontier, HeldSubstrate(self.QUERY))
        assert _costs(eng, self.QUERY, frontier) == first
        assert _substrates(eng) == (2, 0)

    def test_statement_plan_counters_stay_zero(self):
        """``SqlEngine.plan_cache`` is an inert remnant: neither
        execution nor what-if pricing nor ``invalidate()`` moves its
        counters, and an executed plan costs what the empty
        configuration priced."""
        eng = perfect_engine(7001)
        cache = eng.plan_cache
        (empty_cost,) = _costs(eng, self.QUERY, [()])
        plans = [eng.execute(self.QUERY).plan for _ in range(2)]
        assert cache.invalidate() is None
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert [plan.est_cost for plan in plans] == [empty_cost] * 2

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
        _costs(eng, self.QUERY, [(_definition(0),), (_definition(1),)])
        charged = eng.governor.tuning.usage.cpu_ms - before
        assert charged == 2 * WHATIF_CALL_CPU_MS


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
        # A hinted statement's plan reads the name its hint gives, so
        # there a renamed twin is another index: it costs as the what-if
        # API does, not as a hit on the hinted one.
        eng = perfect_engine(5)
        session = WhatIfSession(eng)
        hinted = dataclasses.replace(self.QUERY, index_hint="ix_hint")
        named = dataclasses.replace(twin_a, name="ix_hint")
        other = dataclasses.replace(twin_a, name="ix_other")
        cost = session.cost(hinted, (named,))
        assert cost == eng.whatif_optimize(hinted, (named,)).est_cost
        for whatif in (eng.whatif_optimize, session.cost):
            with pytest.raises(ExecutionError, match="'ix_hint' which does not"):
                whatif(hinted, (other,))
        assert session.cost(hinted, (other, named)) == cost  # other: hidden
        assert (session.stats.calls, session.stats.priced) == (2, 1)
        assert session.stats.cache_hits == 0

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
        held = HeldSubstrate(bulk)
        with pytest.raises(OptimizeError):
            _costs(eng, bulk, [(_definition(0),)], held)
        with pytest.raises(OptimizeError):
            eng.whatif_optimize(bulk, (_definition(0),))
        assert _substrates(eng) == (0, 0)
        assert held.substrate is None


# ----------------------------------------------------------------------
# Projection: DTA prices a statement only against what can touch it


@pytest.fixture(scope="module")
def session_twins():
    """Their own pair: a session reaches the optimizer less often than
    its oracle, so ``batch_stats.configurations`` diverges by design and
    must not leak into the lifetime totals the substrate properties
    compare."""
    return _twin(), _twin()


def _metered(eng):
    """MI-DMV entries and tuning-pool usage: ``_observable`` without the
    optimizer's count of priced configurations."""
    return _observable(eng)[:3]


def _oracle_cost(eng, query, config):
    """The unprojected pricing: every definition handed to a cold planner."""
    try:
        return _fresh_plan(eng, query, config).est_cost
    except OptimizeError:
        return None


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=costable, frontier=configurations(), with_base=st.booleans())
def test_property_session_costs_equal_unprojected_pricing(
    session_twins, query, frontier, with_base
):
    """``cost_many`` answers every configuration with the float the
    what-if API gives for the whole configuration, and charges the pool
    as if it had asked for each — although it asks only once per distinct
    projection."""
    oracle_eng, session_eng = session_twins
    if with_base:
        frontier = [()] + frontier  # what candidate selection prices first
    session = WhatIfSession(session_eng)
    # The session's contract is per configuration *set*: the first
    # ordering costed answers the later ones, without a charge.
    expected, first_seen, raised = [], {}, None
    for config in frontier:
        key = frozenset((d.table, d.key_columns, d.included_columns) for d in config)
        if key not in first_seen:
            try:
                first_seen[key] = _oracle_cost(oracle_eng, query, config)
            except ExecutionError:
                raised = len(expected)  # a hint naming no index
                break
        expected.append(first_seen[key])
    if raised is None:
        assert session.cost_many(query, (), frontier) == expected
    else:
        with pytest.raises(ExecutionError, match="which does not exist"):
            session.cost_many(query, (), frontier)
        # What was costed before the error stays answered, free of charge.
        assert session.cost_many(query, (), frontier[:raised]) == expected
    assert _metered(session_eng) == _metered(oracle_eng)
    stats = session.stats
    failed = sum(cost is None for cost in first_seen.values())
    assert stats.failed_statements == failed
    assert stats.calls == len(first_seen) - failed
    assert stats.priced <= stats.calls
    assert stats.cache_hits == len(expected) - len(first_seen) + (
        raised or 0
    )


@pytest.fixture(scope="module")
def lone():
    return _twin()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=costable, frontier=configurations())
def test_property_noncontributing_definitions_are_unobservable(
    lone, query, frontier
):
    """``contributes(d)`` false ⇒ ``price`` cannot tell whether ``d`` is
    in the configuration, wherever it stands."""
    batch = lone.whatif_batch(query)

    def priced(config):
        # BULK INSERT raises OptimizeError: every definition contributes.
        return _outcome(batch.price, config)

    bystanders = [
        d
        for d in map(_definition, range(len(_INDEX_POOL)))
        if not batch.contributes(d)
    ]
    for config in frontier:
        core = tuple(d for d in config if d not in bystanders)
        expected = priced(core)
        for bystander in bystanders:
            for at in range(len(core) + 1):
                assert priced(core[:at] + (bystander,) + core[at:]) == expected


class TestProjection:
    QUERY = SelectQuery(
        "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
    )

    def test_contributes_by_statement_kind(self):
        eng = _twin()
        by_cust, by_date, by_amount = _definition(0), _definition(1), _definition(3)
        by_region = _definition(5)
        select = eng.whatif_batch(self.QUERY)
        assert select.contributes(by_cust)  # seek on the predicate column
        assert not select.contributes(by_date)  # neither seeks nor covers
        assert not select.contributes(by_region)  # another table
        joined = eng.whatif_batch(
            dataclasses.replace(self.QUERY, join=_JOINS[2])
        )
        assert joined.contributes(by_region)  # per-probe seek on the inner key
        assert joined.contributes(_definition(6)) is False  # c_name: no inner use
        update = eng.whatif_batch(
            UpdateQuery("orders", (("o_amount", 1.0),), (Predicate("o_id", Op.EQ, 5),))
        )
        assert update.contributes(by_cust)  # only *includes* o_amount
        assert update.contributes(by_amount)  # keyed on it
        assert not update.contributes(by_date)  # untouched, unusable
        delete = eng.whatif_batch(DeleteQuery("orders", (Predicate("o_id", Op.EQ, 5),)))
        assert delete.contributes(by_date)  # every index loses the row
        assert not delete.contributes(by_region)
        hinted = eng.whatif_batch(dataclasses.replace(self.QUERY, index_hint="hyp_0"))
        assert hinted.contributes(by_cust)
        assert not hinted.contributes(by_amount)  # the hint hides it
        # A column the table lacks raises even where the definition
        # offers no path and no maintenance term, so its shape is never
        # estimated.
        ghosts = (
            (select, IndexDefinition("hyp_ghost", "orders", ("o_date",), ("ghost",))),
            (update, IndexDefinition("hyp_ghost", "orders", ("o_date",), ("ghost",))),
            (joined, IndexDefinition("hyp_ghost", "customers", ("c_name",), ("ghost",))),
        )
        for batch, ghost in ghosts:
            with pytest.raises(UnknownColumnError):
                batch.contributes(ghost)
        # Asking is not costing: nothing was charged.
        assert eng.governor.tuning.usage.whatif_calls == 0

    def test_derived_costing_is_charged_but_not_priced(self):
        eng = perfect_engine(41)
        session = WhatIfSession(eng)
        by_cust, by_date, by_region = _definition(0), _definition(1), _definition(5)
        with use_profiler(Profiler()) as profiler:
            costs = session.cost_many(
                self.QUERY,
                (),
                [(by_cust,), (by_cust, by_date), (by_region, by_cust), (by_date,), ()],
            )
        assert costs[0] == costs[1] == costs[2] < costs[3] == costs[4]
        stats = session.stats
        assert (stats.calls, stats.priced, stats.cache_hits) == (5, 2, 0)
        usage = eng.governor.tuning.usage
        rate = WHATIF_CALL_CPU_MS
        assert (usage.whatif_calls, usage.cpu_ms) == (5, 5 * rate)
        row = profiler.stats()["engine_whatif_cost"]
        assert (row.calls, row.sim_ms) == (5, 5 * rate)
        pricing = eng.optimizer.batch_stats
        assert (pricing.batches, pricing.configurations) == (1, 2)

    def test_bulk_insert_fails_whatever_the_configuration_holds(self):
        """The projection of a configuration that cannot touch the table
        is empty, and the empty configuration prices as statement planning
        does: the statement must still fail, charged, as the unprojected
        configuration would."""
        eng = perfect_engine(42)
        session = WhatIfSession(eng)
        bulk = InsertQuery("orders", ((10_003, 1, 1, 1.0, 1, "x"),), bulk=True)
        assert session.cost(bulk, ()) is not None  # normal-mode planning
        assert session.cost(bulk, (_definition(5),)) is None  # customers
        assert session.cost(bulk, (_definition(0),)) is None
        assert session.stats.failed_statements == 2
        assert eng.governor.tuning.usage.whatif_calls == 3

    @pytest.mark.parametrize("dry_at", [2, 3])
    def test_budget_runs_dry_at_the_same_costing(self, dry_at):
        """The raise lands on the costing the budget names whether that
        costing is derived (the fourth, inside a run of derived costings
        metered at once) or priced (the sixth), and leaves what metering
        one costing at a time leaves; the retry re-pays nothing and
        finishes with the same totals."""
        eng, oracle, per_call = (perfect_engine(43) for _ in range(3))
        rate = WHATIF_CALL_CPU_MS
        for budgeted in (eng, per_call):
            budgeted.governor.tuning.budget_cpu_ms = dry_at * rate + 1.0
        session, reference = WhatIfSession(eng), WhatIfSession(per_call)
        by_cust, by_date, by_amount = _definition(0), _definition(1), _definition(3)
        by_region = _definition(5)
        frontier = [
            (by_cust,),  # priced
            (by_cust, by_date),  # derived: by_date cannot touch the query
            (by_date, by_cust),  # the same set: a cache hit, free
            (by_region, by_cust),  # derived
            (by_cust, by_region),  # the same set, not yet metered: a hit
            (by_amount,),  # priced: a covering scan
        ]

        def observed(engine, whatif, profiler):
            pool = engine.governor.tuning
            row = profiler.stats()["engine_whatif_cost"]
            return (
                pool.usage.cpu_ms,
                pool._window_cpu_ms,
                pool.usage.whatif_calls,
                dataclasses.replace(whatif.stats),
                (row.calls, row.sim_ms),
                _cached(whatif),
            )

        def one_at_a_time():
            # Each cost() is a frontier of one: its derived costing is
            # metered on its own before the next configuration is asked.
            for config in frontier:
                reference.cost(self.QUERY, config)

        bulk_profiler, reference_profiler = Profiler(), Profiler()
        with use_profiler(bulk_profiler):
            with pytest.raises(ResourceBudgetExceededError):
                session.cost_many(self.QUERY, (), frontier)
        with use_profiler(reference_profiler):
            with pytest.raises(ResourceBudgetExceededError):
                one_at_a_time()
        dry = observed(eng, session, bulk_profiler)
        assert dry == observed(per_call, reference, reference_profiler)
        charged = 0.0
        for _call in range(dry_at):
            charged += rate
        assert dry[0] == dry[1] == charged + rate  # the refused one too
        assert dry[4] == (dry_at, charged)
        assert len(dry[5]) == dry_at
        assert session.stats.calls == dry_at
        assert session.stats.priced == 1
        eng.clock.advance(61.0)
        per_call.clock.advance(61.0)
        with use_profiler(bulk_profiler):
            costs = session.cost_many(self.QUERY, (), frontier)
        assert costs == [
            oracle.whatif_optimize(self.QUERY, c).est_cost for c in frontier
        ]
        with use_profiler(reference_profiler):
            one_at_a_time()
        assert observed(eng, session, bulk_profiler) == observed(
            per_call, reference, reference_profiler
        )
        assert (session.stats.calls, session.stats.priced) == (4, 2)
        # The reordered twins hit on both passes; the retry also hits on
        # everything the first pass had costed.
        assert session.stats.cache_hits == 2 * dry_at + 1
        usage = eng.governor.tuning.usage
        assert usage.whatif_calls == 4
        assert usage.cpu_ms == 5 * rate  # the refused charge was metered
        # A run that dries before a definition the relevance memo has
        # not seen: the substrate asking about it would build is never
        # built, as one charge at a time never gets that far.
        tail_frontier = [(by_cust, by_region, by_date), (_definition(4),)]
        lookups = [_substrates(eng), _substrates(per_call)]
        for budgeted in (eng, per_call):
            pool = budgeted.governor.tuning
            pool.budget_cpu_ms = pool._window_cpu_ms  # refuse the next
        with use_profiler(bulk_profiler):
            with pytest.raises(ResourceBudgetExceededError):
                session.cost_many(self.QUERY, (), tail_frontier)
        with use_profiler(reference_profiler):
            with pytest.raises(ResourceBudgetExceededError):
                for config in tail_frontier:
                    reference.cost(self.QUERY, config)
        assert observed(eng, session, bulk_profiler) == observed(
            per_call, reference, reference_profiler
        )
        # Neither looked a substrate up.
        assert [_substrates(eng), _substrates(per_call)] == lookups
        # A run is metered float for float: fifty charges of 0.1 sum to
        # what fifty single charges leave, not to 50 * 0.1.
        bulk_pool, single_pool = ResourcePool("bulk"), ResourcePool("single")
        bulk_row, single_row = Profiler(), Profiler()
        assert bulk_pool.charge_cpu_many(0.1, 50, 0.0) == 50
        bulk_row.count_many("run", 50, 0.1)
        for _call in range(50):
            single_pool.charge_cpu(0.1, 0.0)
            single_row.count("run", 0.1)
        assert bulk_pool.usage.cpu_ms == single_pool.usage.cpu_ms != 50 * 0.1
        assert bulk_row.stats()["run"] == single_row.stats()["run"]
