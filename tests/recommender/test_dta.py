"""DTA pipeline tests: workload acquisition, candidates, enumeration, session."""

from __future__ import annotations

import pytest

from repro.clock import HOURS
from repro.engine import (
    DeleteQuery,
    IndexDefinition,
    InsertQuery,
    JoinSpec,
    Op,
    OrderItem,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine import engine as engine_module
from repro.engine.engine import EngineSettings
from repro.engine.cost_model import CostModelSettings
from repro.engine.query import Aggregate, AggFunc
from repro.engine.statistics import TableStatistics
from repro.errors import ResourceBudgetExceededError, SessionAbortedError
from repro.recommender.dta import DtaSession, DtaSessionState, DtaSettings
from repro.recommender.dta.candidate_selection import (
    MIN_BENEFIT_FRACTION,
    candidates_for_query,
    select_candidates,
)
from repro.recommender.dta import enumeration
from repro.recommender.dta.enumeration import (
    EnumerationConstraints,
    greedy_enumerate,
)
from repro.recommender.dta.whatif import WhatIfSession
from repro.recommender.workload_selection import (
    acquire_workload,
    coverage_for_k,
    window_for_tier,
)
from tests.conftest import (
    make_customers_schema,
    make_orders_schema,
    populate_customers,
    populate_orders,
)
from tests.engine.test_optimizer import perfect_engine
from tests.observability.test_alerts import (
    run_benchmark_fleet,
    unordered_audit_digest,
)
from repro.engine.engine import Database, SqlEngine


@pytest.fixture
def eng(noiseless):
    return perfect_engine(seed=77)


HOT = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))
GROUPBY = SelectQuery(
    "orders",
    group_by=("o_status",),
    aggregates=(Aggregate(AggFunc.SUM, "o_amount"),),
)
JOINQ = SelectQuery(
    "orders",
    ("o_id",),
    (Predicate("o_id", Op.BETWEEN, 0, 60),),
    join=JoinSpec("customers", "o_cust", "c_region", select_columns=("c_name",)),
)
ORDERED = SelectQuery(
    "orders",
    ("o_id", "o_amount"),
    (Predicate("o_cust", Op.EQ, 5),),
    order_by=(OrderItem("o_amount"),),
    limit=5,
)


def warm_workload(eng, queries, repetitions=8):
    for _ in range(repetitions):
        for query in queries:
            eng.execute(query)
    eng.clock.advance(30.0)


class TestWorkloadAcquisition:
    def test_top_k_selected_by_cpu(self, eng):
        warm_workload(eng, [HOT, GROUPBY])
        workload = acquire_workload(eng, now=eng.now, hours=24, k=1)
        assert len(workload.statements) <= 1
        assert workload.statements[0].query_id == GROUPBY.template_key()

    def test_coverage_grows_with_k(self, eng):
        warm_workload(eng, [HOT, GROUPBY, JOINQ, ORDERED])
        curve = coverage_for_k(eng, now=eng.now, hours=24, ks=[1, 2, 4])
        coverages = [c for _k, c in curve]
        assert coverages == sorted(coverages)
        assert coverages[-1] > 0.9

    def test_incomplete_text_counts_unsupported(self, monkeypatch):
        monkeypatch.setattr(engine_module, "INCOMPLETE_TEXT_RATE", 1.0)
        monkeypatch.setattr(engine_module, "PLAN_CACHE_TEXT_RETENTION", 0.0)
        db = Database("frag", seed=123)
        populate_orders(db.create_table(make_orders_schema()), n_rows=500)
        settings = EngineSettings(
            cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0),
        )
        engine = SqlEngine(db, settings=settings)
        engine.build_all_statistics()
        warm_workload(engine, [HOT])
        workload = acquire_workload(engine, now=engine.now, hours=24, k=5)
        assert workload.unsupported
        assert workload.coverage < 1.0

    def test_plan_cache_recovers_fragments(self, monkeypatch):
        monkeypatch.setattr(engine_module, "INCOMPLETE_TEXT_RATE", 1.0)
        monkeypatch.setattr(engine_module, "PLAN_CACHE_TEXT_RETENTION", 1.0)
        db = Database("frag2", seed=124)
        populate_orders(db.create_table(make_orders_schema()), n_rows=500)
        settings = EngineSettings(
            cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0),
        )
        engine = SqlEngine(db, settings=settings)
        engine.build_all_statistics()
        warm_workload(engine, [HOT])
        workload = acquire_workload(engine, now=engine.now, hours=24, k=5)
        assert not workload.unsupported
        assert len(workload.statements) >= 1

    def test_bulk_insert_rewritten(self, eng):
        for batch in range(8):
            base = 800_000 + batch * 100
            bulk = InsertQuery(
                "orders",
                tuple((base + i, 1, 1, 1.0, 1, "x") for i in range(5)),
                bulk=True,
            )
            eng.execute(bulk)
        eng.clock.advance(30.0)
        workload = acquire_workload(eng, now=eng.now, hours=24, k=5)
        inserted = [s for s in workload.statements if s.kind == "INSERT"]
        assert inserted
        assert not inserted[0].query.bulk  # rewritten to optimizable INSERT

    def test_window_for_tier_scales(self):
        basic = window_for_tier("basic")
        premium = window_for_tier("premium")
        assert premium[0] > basic[0]
        assert premium[1] > basic[1]


class TestCandidateSelection:
    def test_sargable_candidates(self):
        candidates = candidates_for_query(HOT)
        assert any(c.key_columns == ("o_cust",) for c in candidates)

    def test_groupby_candidate(self):
        candidates = candidates_for_query(GROUPBY)
        assert any(
            c.key_columns == ("o_status",) and "o_amount" in c.included_columns
            for c in candidates
        )

    def test_join_candidate_targets_inner_table(self):
        candidates = candidates_for_query(JOINQ)
        join_candidates = [c for c in candidates if c.table == "customers"]
        assert any(c.key_columns[0] == "c_region" for c in join_candidates)

    def test_orderby_candidate_has_order_keys(self):
        candidates = candidates_for_query(ORDERED)
        assert any(
            c.key_columns == ("o_cust", "o_amount") for c in candidates
        )

    def test_update_candidate_from_predicates(self):
        update = UpdateQuery(
            "orders", (("o_amount", 1.0),), (Predicate("o_status", Op.EQ, 2),)
        )
        candidates = candidates_for_query(update)
        assert len(candidates) == 1
        assert candidates[0].key_columns == ("o_status",)

    def test_select_candidates_keeps_beneficial_only(self, noiseless):
        """AGG_CUST's first candidate needs ``o_date``'s statistics
        built, and its base cost reads them, so the base is costed before
        the build and the candidates after it; HOT's need none, so its
        base and candidates are one frontier.  Either way the benefits,
        the session and the pool end as costing each candidate alone
        does."""
        engines = [perfect_engine(seed=77) for _ in range(2)]
        for engine in engines:
            orders = engine.database.table("orders")
            kept = TableStatistics("orders")
            for column in orders.statistics.columns():
                if column != "o_date":
                    kept.set(orders.statistics.get(column))
            orders.statistics = kept
            warm_workload(engine, [HOT, AGG_CUST])
        eng, alone = engines
        workload = acquire_workload(eng, now=eng.now, hours=24, k=5)
        whatif = WhatIfSession(eng)
        chosen = select_candidates(whatif, workload.statements)
        assert chosen
        assert all(c.total_benefit > 0 for c in chosen)
        assert whatif.stats.calls > 0
        reference = WhatIfSession(alone)
        needs_build, benefits = [], {}
        for statement in workload.statements:
            query = statement.query
            candidates = candidates_for_query(query)
            needs_build.append(
                any(
                    reference.needs_statistics(c.table, c.key_columns)
                    for c in candidates
                )
            )
            base = reference.cost(query, ())
            for candidate in candidates:
                reference.ensure_statistics(
                    candidate.table, candidate.key_columns
                )
                cost = reference.cost(query, (candidate.definition,))
                benefit = (base - cost) * statement.executions
                floor = base * statement.executions * MIN_BENEFIT_FRACTION
                if benefit > floor:
                    benefits.setdefault(candidate.identity, []).append(
                        (statement.query_id, benefit)
                    )
        assert sorted(needs_build) == [False, True]
        assert {c.identity: c.per_query_benefit for c in chosen} == benefits
        assert whatif.stats == reference.stats
        assert whatif.stats.stats_built == 1
        assert eng.governor.tuning.usage == alone.governor.tuning.usage
        # HOT's frontier went through one batch, not one per costing.
        batches = eng.optimizer.batch_stats.batches
        assert batches < alone.optimizer.batch_stats.batches


class TestEnumeration:
    def run_enum(self, eng, max_indexes=3):
        warm_workload(eng, [HOT, GROUPBY, ORDERED])
        workload = acquire_workload(eng, now=eng.now, hours=24, k=6)
        whatif = WhatIfSession(eng)
        candidates = select_candidates(whatif, workload.statements)
        return greedy_enumerate(
            eng,
            whatif,
            workload.statements,
            candidates,
            constraints=EnumerationConstraints(max_indexes=max_indexes),
        )

    def test_enumeration_improves_workload(self, eng):
        result = self.run_enum(eng)
        assert result.final_cost < result.base_cost
        assert result.improvement_pct > 20

    def test_max_indexes_respected(self, eng):
        result = self.run_enum(eng, max_indexes=1)
        assert len(result.chosen) <= 1

    def test_storage_budget_respected(self, eng, monkeypatch):
        generous = self.run_enum(eng)
        monkeypatch.setattr(enumeration, "STORAGE_BUDGET_BYTES", 8192 * 4)
        tight = self.run_enum(perfect_engine(seed=77))
        total = sum(
            perfect_engine(seed=77)
            .database.table(c.table)
            .hypothetical_stats_view(c.definition)
            .size_bytes
            for c in tight.chosen
        )
        assert total <= 8192 * 4
        assert len(tight.chosen) <= len(generous.chosen)


class TestSession:
    # A completed premium session over a warm workload is one case of
    # tests/test_ownership.py.

    def test_session_abort_on_interference(self, eng):
        warm_workload(eng, [HOT])
        session = DtaSession(
            eng,
            DtaSettings(tier="premium"),
            interference_check=lambda: True,
        )
        with pytest.raises(SessionAbortedError):
            session.run()
        assert session.state is DtaSessionState.ABORTED

    def test_session_budget_exhaustion_is_transient(self):
        db = Database("tight", seed=55)
        populate_orders(db.create_table(make_orders_schema()), n_rows=2000)
        settings = EngineSettings(
            cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0)
        )
        engine = SqlEngine(db, settings=settings, tuning_budget_cpu_ms=30.0)
        engine.build_all_statistics()
        warm_workload(engine, [HOT, GROUPBY, ORDERED])
        session = DtaSession(engine, DtaSettings(tier="standard"))
        with pytest.raises(ResourceBudgetExceededError):
            session.run()
        assert session.state is DtaSessionState.FAILED

    def test_session_resumes_after_budget_window(self):
        db = Database("resume", seed=56)
        populate_orders(db.create_table(make_orders_schema()), n_rows=2000)
        settings = EngineSettings(
            cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0)
        )
        engine = SqlEngine(db, settings=settings, tuning_budget_cpu_ms=800.0)
        engine.build_all_statistics()
        warm_workload(engine, [HOT, GROUPBY, ORDERED])
        session = DtaSession(engine, DtaSettings(tier="standard"))
        recommendations = None
        for _attempt in range(20):
            try:
                recommendations = session.run()
                break
            except ResourceBudgetExceededError:
                # Deferred, not torn down: costs and relevance survive.
                whatif = session.whatif
                assert whatif._cost_cache and whatif._projected_costs
                assert whatif._relevance
                engine.clock.advance(61.0)  # next governance window
        assert recommendations is not None
        assert session.state is DtaSessionState.COMPLETED

    def test_dta_skips_already_indexed(self, eng):
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        warm_workload(eng, [HOT])
        session = DtaSession(eng, DtaSettings(tier="premium"))
        recommendations = session.run()
        assert all(r.key_columns != ("o_cust",) for r in recommendations)

    def test_report_lists_impacted_statements(self, eng):
        warm_workload(eng, [HOT, GROUPBY])
        session = DtaSession(eng, DtaSettings(tier="premium"))
        recommendations = session.run()
        assert recommendations
        impacted = [s for s in session.report.statements if s.impacted_by]
        assert impacted


# ----------------------------------------------------------------------
# Charged versus priced: projection must not move the simulated bill

BY_DATE = SelectQuery(
    "orders", ("o_id", "o_amount"), (Predicate("o_date", Op.BETWEEN, 10, 40),)
)
BY_STATUS = SelectQuery(
    "orders",
    ("o_note",),
    (Predicate("o_status", Op.EQ, 2), Predicate("o_date", Op.GT, 300)),
)
BY_REGION = SelectQuery(
    "customers", ("c_name",), (Predicate("c_region", Op.EQ, 4),)
)
BY_AMOUNT = SelectQuery(
    "orders",
    ("o_id",),
    (Predicate("o_amount", Op.GT, 900.0),),
    order_by=(OrderItem("o_amount"),),
)
BY_NOTE = SelectQuery(
    "orders", ("o_cust",), (Predicate("o_note", Op.EQ, "note-5"),)
)
BY_NAME = SelectQuery(
    "customers", ("c_region",), (Predicate("c_name", Op.EQ, "cust-7"),)
)
AGG_CUST = SelectQuery(
    "orders",
    predicates=(Predicate("o_date", Op.BETWEEN, 100, 130),),
    group_by=("o_cust",),
    aggregates=(Aggregate(AggFunc.SUM, "o_amount"),),
)
TOUCH = UpdateQuery(
    "orders", (("o_amount", 1.0),), (Predicate("o_cust", Op.EQ, 7),)
)
RESTATUS = UpdateQuery(
    "orders", (("o_status", 3),), (Predicate("o_date", Op.EQ, 200),)
)
PURGE = DeleteQuery(
    "orders",
    (Predicate("o_note", Op.EQ, "note-3"), Predicate("o_date", Op.LT, 5)),
)
MIXED = (
    HOT, GROUPBY, JOINQ, ORDERED, BY_DATE, BY_STATUS, BY_REGION, BY_AMOUNT,
    BY_NOTE, BY_NAME, AGG_CUST, TOUCH, RESTATUS, PURGE,
)


def mixed_engine(budget=None):
    """Two tables, reads joins and writes, eight executions of each."""
    db = Database("pinned", seed=91)
    populate_orders(db.create_table(make_orders_schema()), n_rows=2000)
    populate_customers(db.create_table(make_customers_schema()))
    settings = EngineSettings(
        cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0)
    )
    engine = SqlEngine(db, settings=settings, tuning_budget_cpu_ms=budget)
    engine.build_all_statistics()
    for repetition in range(8):
        for query in MIXED:
            engine.execute(query)
        engine.execute(
            InsertQuery("orders", ((900_000 + repetition, 1, 1, 1.0, 1, "x"),))
        )
    engine.clock.advance(30.0)
    return engine


def _bill(engine, session):
    usage, stats = engine.governor.tuning.usage, session.whatif.stats
    return usage.cpu_ms, usage.whatif_calls, stats.calls, stats.cache_hits


def _recommended(recommendations):
    return sorted((r.table, r.key_columns) for r in recommendations)


class TestPinnedAcrossProjection:
    """Literals recorded from the commit before configurations were
    projected onto the statement, when every charged costing was also
    priced: the pool's CPU, its call count, the session's calls and hits,
    the costing at which each budget window ran dry, and the indexes
    recommended.  Projection may only lower ``priced``."""

    RECOMMENDED = [
        ("customers", ("c_region",)),
        ("orders", ("o_amount",)),
        ("orders", ("o_cust", "o_amount")),
        ("orders", ("o_date",)),
        ("orders", ("o_note", "o_date")),
        ("orders", ("o_status", "o_date")),
    ]

    def test_whole_session_bill(self):
        engine = mixed_engine()
        session = DtaSession(engine, DtaSettings(tier="premium", max_indexes=8))
        recommendations = session.run()
        assert _bill(engine, session) == (2748.0, 458, 458, 20)
        assert _recommended(recommendations) == self.RECOMMENDED
        stats = session.whatif.stats
        assert session.report.whatif is stats
        assert 0 < stats.priced <= stats.calls / 3

    @pytest.mark.parametrize(
        "budget, dry_at, bill",
        [
            (700.0, [116, 232, 348], (2766.0, 458, 458, 773)),
            (1000.0, [166, 332], (2760.0, 458, 458, 558)),
        ],
    )
    def test_budget_windows_run_dry_at_the_same_costings(
        self, budget, dry_at, bill
    ):
        engine = mixed_engine(budget)
        session = DtaSession(engine, DtaSettings(tier="premium", max_indexes=8))
        raised_at, priced_at = [], []
        recommendations = None
        while recommendations is None:
            try:
                recommendations = session.run()
            except ResourceBudgetExceededError:
                raised_at.append(session.whatif.stats.calls)
                priced_at.append(session.whatif.stats.priced)
                # A deferral keeps what was learned: the resumed run
                # re-pays nothing (the bill below equals the unbudgeted
                # session's but for the refused charges).
                whatif = session.whatif
                assert whatif._cost_cache and whatif._projected_costs
                assert whatif._relevance
                engine.clock.advance(61.0)
        assert raised_at == dry_at
        assert _bill(engine, session) == bill
        assert _recommended(recommendations) == self.RECOMMENDED
        # Nothing is priced twice across windows either.
        unbudgeted = DtaSession(
            mixed_engine(), DtaSettings(tier="premium", max_indexes=8)
        )
        unbudgeted.run()
        assert session.whatif.stats.priced == unbudgeted.whatif.stats.priced
        assert priced_at == sorted(priced_at)

    def test_interference_abort_forgets_everything(self):
        engine = mixed_engine()
        checks = []

        def interfering():
            checks.append(engine.governor.tuning.usage.whatif_calls)
            return len(checks) == 2  # after candidate selection

        session = DtaSession(
            engine, DtaSettings(tier="premium"), interference_check=interfering
        )
        with pytest.raises(SessionAbortedError):
            session.run()
        assert checks[1] > 0  # costs had been learned...
        whatif = session.whatif
        assert not whatif._cost_cache  # ...and are all gone
        assert not whatif._projected_costs
        assert not whatif._relevance


def test_premium_fleet_audit_equals_parent_but_for_order():
    """The benchmark's ``fleet_premium`` recipe, with policy-forced DTA
    sessions on every database.  The digest below was recorded while the
    region service drove one multi-database plane: merging
    single-database planes may reorder events, but every state change,
    implementation, recommendation and DTA event must be what it was."""
    service = run_benchmark_fleet(3, "premium")
    assert service.telemetry.registry.total(
        "events_total", kind="dta_completed"
    ) == 12
    assert unordered_audit_digest(service.telemetry.audit) == (
        168,
        "b87a760a8a0e8b5b7adaf87e778d46b9e46b1a7b806c4e8f8e82ef502d26cf7e",
    )
