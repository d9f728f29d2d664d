"""Query Store plan forcing tests (§5.4 drop-protection case)."""

from __future__ import annotations

import pytest

from repro.clock import DAYS
from repro.engine import IndexDefinition, Op, Predicate, SelectQuery
from repro.errors import ExecutionError
from repro.recommender import DropRecommender
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")

QUERY = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))


@pytest.fixture
def forced_engine():
    eng = perfect_engine(seed=701)
    eng.create_index(IndexDefinition("ix_forced", "orders", ("o_cust",), ("o_amount",)))
    result = eng.execute(QUERY)
    assert "ix_forced" in result.plan.referenced_indexes()
    eng.query_store.force_plan(result.query_id, result.plan_id)
    return eng


class TestForcing:
    def test_forced_plan_survives_better_alternative(self, forced_engine):
        eng = forced_engine
        # A strictly better covering index appears; the forced query must
        # keep using its forced plan's index.
        eng.create_index(
            IndexDefinition(
                "ix_better", "orders", ("o_cust", "o_status"), ("o_amount",)
            )
        )
        result = eng.execute(QUERY)
        assert "ix_forced" in result.plan.referenced_indexes()

    def test_forcing_preserves_query_identity(self, forced_engine):
        eng = forced_engine
        result = eng.execute(QUERY)
        assert result.query_id == QUERY.template_key()

    def test_unforce_restores_choice(self, forced_engine):
        eng = forced_engine
        eng.create_index(
            IndexDefinition(
                "ix_better", "orders", ("o_cust", "o_status"), ("o_amount",)
            )
        )
        eng.query_store.unforce_plan(QUERY.template_key())
        result = eng.execute(QUERY)
        assert result.metrics.cpu_time_ms >= 0  # free plan choice again

    def test_force_unknown_plan_rejected(self, forced_engine):
        with pytest.raises(KeyError):
            forced_engine.query_store.force_plan(1, 999_999_999)

    def test_dropping_forced_index_breaks_query(self, forced_engine):
        eng = forced_engine
        eng.drop_index("orders", "ix_forced")
        with pytest.raises(ExecutionError):
            eng.execute(QUERY)

    def test_drop_recommender_protects_forced_index(self, forced_engine):
        eng = forced_engine
        eng.clock.advance(61 * DAYS)
        # Heavy maintenance with zero further reads would normally make
        # the index a drop candidate.
        from repro.engine import UpdateQuery

        for i in range(20):
            eng.execute(
                UpdateQuery(
                    "orders", (("o_amount", 1.0),), (Predicate("o_id", Op.EQ, i),)
                )
            )
        recommender = DropRecommender(eng)
        assert "ix_forced" in recommender.hinted_index_names()
        recs = recommender.recommend()
        assert not [
            r for r in recs if r.existing_index_name == "ix_forced"
        ]
