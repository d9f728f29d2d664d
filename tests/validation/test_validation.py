"""Validator tests: Welch t-test, plan-change scoping, revert decisions."""

from __future__ import annotations

import pytest

from repro.clock import HOURS
from repro.engine import (
    IndexDefinition,
    InsertQuery,
    Op,
    Predicate,
    SelectQuery,
)
from repro.engine.engine import Database, SqlEngine, EngineSettings
from repro.engine.cost_model import CostModelSettings
from repro.engine.exec import dispatch
from repro.validation import (
    ValidationMode,
    ValidationSettings,
    Validator,
    welch_t_test,
)
from repro.validation.validator import Verdict
from tests.conftest import make_orders_schema, populate_orders


@pytest.fixture
def noisy(monkeypatch):
    """Run-to-run noise of 0.08 on every execution."""
    monkeypatch.setattr(dispatch, "NOISE_SIGMA", 0.08)


def noisy_engine(seed=3) -> SqlEngine:
    """An engine to execute under the ``noisy`` fixture."""
    db = Database("val", seed=seed)
    populate_orders(db.create_table(make_orders_schema()), n_rows=3000)
    settings = EngineSettings(
        interval_minutes=5.0,
        cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0),
    )
    engine = SqlEngine(db, settings=settings)
    engine.build_all_statistics()
    return engine


class TestWelch:
    def test_clear_difference_significant(self):
        result = welch_t_test(100.0, 5.0, 30, 50.0, 5.0, 30)
        assert result.significant()
        assert result.relative_change == pytest.approx(-0.5)
        assert result.t_statistic < 0

    def test_identical_means_not_significant(self):
        result = welch_t_test(100.0, 10.0, 30, 100.0, 10.0, 30)
        assert not result.significant()

    def test_small_samples_never_significant(self):
        result = welch_t_test(100.0, 1.0, 1, 10.0, 1.0, 1)
        assert not result.significant()
        assert result.p_value == 1.0

    def test_high_variance_masks_small_change(self):
        result = welch_t_test(100.0, 80.0, 10, 110.0, 80.0, 10)
        assert not result.significant()

    def test_unequal_variances_handled(self):
        result = welch_t_test(100.0, 1.0, 50, 120.0, 60.0, 50)
        assert result.degrees_of_freedom < 98  # Welch dof < pooled dof

    def test_matches_scipy_ttest_ind_from_stats(self):
        from scipy import stats as scipy_stats

        ours = welch_t_test(10.0, 2.0, 25, 12.0, 3.0, 30)
        theirs = scipy_stats.ttest_ind_from_stats(
            10.0, 2.0, 25, 12.0, 3.0, 30, equal_var=False
        )
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)


def run_query(engine, query, n, advance=2.0):
    for _ in range(n):
        engine.execute(query)
        engine.clock.advance(advance)


HOT = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))


@pytest.mark.usefixtures("noisy")
class TestValidatorCreate:
    def test_good_index_improves(self):
        engine = noisy_engine()
        run_query(engine, HOT, 25)
        before = (0.0, engine.now)
        engine.create_index(
            IndexDefinition("ix_good", "orders", ("o_cust",), ("o_amount",))
        )
        start = engine.now
        run_query(engine, HOT, 25)
        outcome = Validator(engine).validate(
            "ix_good", "create", before, (start, engine.now)
        )
        assert outcome.verdict is Verdict.IMPROVED
        assert not outcome.should_revert
        assert outcome.aggregate_change < -0.5

    def test_write_regression_triggers_revert(self):
        engine = noisy_engine(seed=9)
        insert_template = lambda i: InsertQuery(
            "orders", ((500_000 + i, 1, 1, 1.0, 1, "x"),)
        )
        for i in range(30):
            engine.execute(insert_template(i))
            engine.clock.advance(2.0)
        before = (0.0, engine.now)
        # A wide index on write-heavy table: pure maintenance overhead.
        for c in ("o_cust", "o_status", "o_amount", "o_date"):
            engine.create_index(IndexDefinition(f"ix_{c}", "orders", (c,)))
        start = engine.now
        for i in range(30, 60):
            engine.execute(insert_template(i))
            engine.clock.advance(2.0)
        outcome = Validator(engine).validate(
            "ix_o_cust", "create", before, (start, engine.now)
        )
        assert outcome.should_revert
        assert outcome.verdict is Verdict.REGRESSED

    def test_unrelated_queries_ignored(self):
        engine = noisy_engine(seed=10)
        unrelated = SelectQuery(
            "orders", ("o_note",), (Predicate("o_id", Op.EQ, 7),)
        )
        run_query(engine, unrelated, 15)
        before = (0.0, engine.now)
        engine.create_index(IndexDefinition("ix_x", "orders", ("o_status",)))
        start = engine.now
        run_query(engine, unrelated, 15)
        outcome = Validator(engine).validate(
            "ix_x", "create", before, (start, engine.now)
        )
        # The PK-lookup plan never references ix_x: nothing to judge.
        assert outcome.observed_statements == 0
        assert not outcome.should_revert

    def test_min_executions_guard(self):
        engine = noisy_engine(seed=11)
        run_query(engine, HOT, 2)
        before = (0.0, engine.now)
        engine.create_index(
            IndexDefinition("ix_few", "orders", ("o_cust",), ("o_amount",))
        )
        start = engine.now
        run_query(engine, HOT, 2)
        outcome = Validator(engine).validate(
            "ix_few", "create", before, (start, engine.now)
        )
        assert outcome.observed_statements == 0


@pytest.mark.usefixtures("noisy")
class TestValidatorDrop:
    def test_drop_regression_detected(self):
        engine = noisy_engine(seed=12)
        engine.create_index(
            IndexDefinition("ix_keep", "orders", ("o_cust",), ("o_amount",))
        )
        run_query(engine, HOT, 25)
        before = (0.0, engine.now)
        engine.drop_index("orders", "ix_keep")
        start = engine.now
        run_query(engine, HOT, 25)
        outcome = Validator(engine).validate(
            "ix_keep", "drop", before, (start, engine.now)
        )
        assert outcome.should_revert  # recreate the index
        assert outcome.verdict is Verdict.REGRESSED

    def test_harmless_drop_passes(self):
        engine = noisy_engine(seed=13)
        engine.create_index(IndexDefinition("ix_dead", "orders", ("o_amount",)))
        run_query(engine, HOT, 20)
        before = (0.0, engine.now)
        engine.drop_index("orders", "ix_dead")
        start = engine.now
        run_query(engine, HOT, 20)
        outcome = Validator(engine).validate(
            "ix_dead", "drop", before, (start, engine.now)
        )
        assert not outcome.should_revert


@pytest.mark.usefixtures("noisy")
class TestModes:
    def build_mixed_outcome_engine(self):
        """One query improves, another (write) regresses."""
        engine = noisy_engine(seed=14)
        for i in range(25):
            engine.execute(HOT)
            engine.execute(
                InsertQuery("orders", ((600_000 + i, 1, 1, 1.0, 1, "x"),))
            )
            engine.clock.advance(2.0)
        before = (0.0, engine.now)
        engine.create_index(
            IndexDefinition(
                "ix_mix", "orders", ("o_cust",),
                ("o_amount", "o_note", "o_date", "o_status"),
            )
        )
        start = engine.now
        for i in range(25, 50):
            engine.execute(HOT)
            engine.execute(
                InsertQuery("orders", ((600_000 + i, 1, 1, 1.0, 1, "x"),))
            )
            engine.clock.advance(2.0)
        return engine, before, (start, engine.now)

    def test_conservative_reverts_on_any_significant_regression(self):
        engine, before, after = self.build_mixed_outcome_engine()
        settings = ValidationSettings(
            mode=ValidationMode.CONSERVATIVE,
            min_resource_share=0.0,
            regression_threshold=0.10,
        )
        outcome = Validator(engine, settings).validate(
            "ix_mix", "create", before, after
        )
        if outcome.regressed_count:
            assert outcome.should_revert

    def test_aggregate_tolerates_offset_regression(self):
        engine, before, after = self.build_mixed_outcome_engine()
        settings = ValidationSettings(
            mode=ValidationMode.AGGREGATE, regression_threshold=0.10
        )
        outcome = Validator(engine, settings).validate(
            "ix_mix", "create", before, after
        )
        # The SELECT improvement dwarfs the write overhead in aggregate.
        assert not outcome.should_revert
        assert outcome.aggregate_change < 0

    def test_resource_share_gate(self):
        engine, before, after = self.build_mixed_outcome_engine()
        settings = ValidationSettings(
            mode=ValidationMode.CONSERVATIVE, min_resource_share=0.99
        )
        outcome = Validator(engine, settings).validate(
            "ix_mix", "create", before, after
        )
        assert not outcome.should_revert  # no single statement is 99%
