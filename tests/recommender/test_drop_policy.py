"""Drop recommender and MI/DTA policy tests."""

from __future__ import annotations

import pytest

from repro.clock import DAYS
from repro.engine import IndexDefinition, Op, Predicate, SelectQuery
from repro.recommender import DropRecommender
from repro.recommender.drop_recommender import MIN_WRITES
from repro.recommender.policy import RecommenderPolicy
from repro.recommender.recommendation import Action
from tests.engine.test_optimizer import perfect_engine
from repro.engine.query import Aggregate, AggFunc, JoinSpec, UpdateQuery

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


@pytest.fixture
def eng():
    return perfect_engine(seed=44)


def age_engine(eng, days=61.0):
    eng.clock.advance(days * DAYS)


def churn_writes(eng, count=30):
    for i in range(count):
        eng.execute(
            UpdateQuery(
                "orders",
                (("o_amount", float(i)),),
                (Predicate("o_id", Op.EQ, i),),
            )
        )


class TestDuplicateDrops:
    def test_detects_duplicates(self, eng):
        eng.create_index(IndexDefinition("ix_a", "orders", ("o_cust",), ("o_amount",)))
        eng.create_index(IndexDefinition("ix_b", "orders", ("o_cust",), ("o_note",)))
        recs = DropRecommender(eng).recommend()
        duplicates = [r for r in recs if "duplicate" in r.details]
        assert len(duplicates) == 1
        assert duplicates[0].action is Action.DROP

    def test_key_order_distinguishes(self, eng):
        eng.create_index(IndexDefinition("ix_a", "orders", ("o_cust", "o_date")))
        eng.create_index(IndexDefinition("ix_b", "orders", ("o_date", "o_cust")))
        recs = DropRecommender(eng).recommend()
        assert not [r for r in recs if "duplicate" in r.details]

    def test_prefers_dropping_auto_created(self, eng):
        eng.create_index(IndexDefinition("ix_user", "orders", ("o_cust",)))
        eng.create_index(
            IndexDefinition("nci_auto_x", "orders", ("o_cust",), auto_created=True)
        )
        recs = DropRecommender(eng).recommend()
        duplicates = [r for r in recs if "duplicate" in r.details]
        assert duplicates[0].existing_index_name == "nci_auto_x"

    def test_hinted_duplicate_kept(self, eng):
        eng.create_index(IndexDefinition("ix_hinted", "orders", ("o_cust",)))
        eng.create_index(IndexDefinition("ix_other", "orders", ("o_cust",)))
        eng.execute(
            SelectQuery(
                "orders",
                ("o_id",),
                (Predicate("o_cust", Op.EQ, 1),),
                index_hint="ix_hinted",
            )
        )
        recs = DropRecommender(eng).recommend()
        duplicates = [r for r in recs if "duplicate" in r.details]
        assert duplicates[0].existing_index_name == "ix_other"


class TestUnusedDrops:
    def test_unused_maintained_index_dropped(self, eng):
        eng.create_index(IndexDefinition("ix_dead", "orders", ("o_amount",)))
        age_engine(eng)
        churn_writes(eng)
        recs = DropRecommender(eng).recommend()
        unused = [r for r in recs if "unused" in r.details]
        assert [r.existing_index_name for r in unused] == ["ix_dead"]

    def test_young_index_not_dropped(self, eng):
        eng.create_index(IndexDefinition("ix_new", "orders", ("o_amount",)))
        churn_writes(eng)
        recs = DropRecommender(eng).recommend()
        assert not [r for r in recs if r.existing_index_name == "ix_new"]

    def test_read_index_not_dropped(self, eng):
        eng.create_index(IndexDefinition("ix_used", "orders", ("o_cust",), ("o_amount",)))
        age_engine(eng)
        eng.execute(SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 1),)))
        churn_writes(eng)
        recs = DropRecommender(eng).recommend()
        assert not [r for r in recs if r.existing_index_name == "ix_used"]

    def test_unique_index_protected(self, eng):
        eng.create_index(
            IndexDefinition("ix_unique", "orders", ("o_amount",), unique=True)
        )
        age_engine(eng)
        churn_writes(eng)
        recs = DropRecommender(eng).recommend()
        assert not [r for r in recs if r.existing_index_name == "ix_unique"]

    def test_hinted_index_protected(self, eng):
        eng.create_index(IndexDefinition("ix_hint2", "orders", ("o_amount",)))
        eng.execute(
            SelectQuery(
                "orders",
                ("o_id",),
                (Predicate("o_amount", Op.GT, 1.0),),
                index_hint="ix_hint2",
            )
        )
        age_engine(eng)
        churn_writes(eng)
        recs = DropRecommender(eng).recommend()
        assert not [r for r in recs if r.existing_index_name == "ix_hint2"]

    def test_low_write_index_not_worth_dropping(self, eng):
        eng.create_index(IndexDefinition("ix_idle", "orders", ("o_amount",)))
        age_engine(eng)
        # No writes at all: maintenance overhead is nil, keep it.
        assert MIN_WRITES == 10
        recs = DropRecommender(eng).recommend()
        assert not [r for r in recs if r.existing_index_name == "ix_idle"]


class TestPolicy:
    def test_basic_tier_uses_mi(self, eng):
        assert RecommenderPolicy().choose(eng, "basic") == "MI"

    def test_premium_tier_uses_dta(self, eng):
        assert RecommenderPolicy().choose(eng, "premium") == "DTA"

    def test_idle_standard_uses_mi(self, eng):
        assert RecommenderPolicy().choose(eng, "standard") == "MI"

    def test_complex_active_standard_uses_dta(self, eng):
        policy = RecommenderPolicy(min_hourly_statements=0.1)
        join_query = SelectQuery(
            "orders",
            ("o_id",),
            (),
            join=JoinSpec("customers", "o_cust", "c_id", select_columns=("c_name",)),
        )
        agg = SelectQuery(
            "orders",
            group_by=("o_status",),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        for _ in range(10):
            eng.execute(join_query)
            eng.execute(agg)
        eng.clock.advance(60.0)
        assert policy.choose(eng, "standard") == "DTA"

    def test_simple_active_standard_uses_mi(self, eng):
        policy = RecommenderPolicy(min_hourly_statements=0.1)
        simple = SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.EQ, 5),))
        for _ in range(20):
            eng.execute(simple)
        eng.clock.advance(60.0)
        assert policy.choose(eng, "standard") == "MI"
