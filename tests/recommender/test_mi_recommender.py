"""MI recommender pipeline tests."""

from __future__ import annotations

import pytest

from repro.engine import IndexDefinition, Op, Predicate, SelectQuery
from repro.recommender import MiRecommender, MiRecommenderSettings
from repro.recommender.classifier import LowImpactClassifier, ValidationExample
from repro.recommender.recommendation import Action
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


def run_and_snapshot(engine, mi, query, executions=10, rounds=4):
    for _ in range(rounds):
        for _ in range(executions):
            engine.execute(query)
        engine.clock.advance(60.0)
        mi.take_snapshot()


@pytest.fixture
def eng():
    return perfect_engine(seed=31)


SELECTIVE = SelectQuery(
    "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
)


class TestPipeline:
    def test_recommends_for_hot_selective_query(self, eng):
        mi = MiRecommender(eng)
        run_and_snapshot(eng, mi, SELECTIVE)
        recs = mi.recommend()
        assert len(recs) == 1
        rec = recs[0]
        assert rec.action is Action.CREATE
        assert rec.table == "orders"
        assert rec.key_columns == ("o_cust",)
        assert "o_amount" in rec.included_columns
        assert rec.source == "MI"
        assert rec.estimated_size_bytes > 0

    def test_adhoc_filter_suppresses_rare_queries(self, eng):
        mi = MiRecommender(eng, MiRecommenderSettings(min_seeks=50))
        run_and_snapshot(eng, mi, SELECTIVE, executions=3)
        assert mi.recommend() == []

    def test_slope_test_requires_multiple_snapshots(self, eng):
        mi = MiRecommender(eng)
        for _ in range(10):
            eng.execute(SELECTIVE)
        mi.take_snapshot()  # single snapshot: no slope evidence
        assert mi.recommend() == []

    def test_survives_dmv_reset_via_snapshots(self, eng):
        mi = MiRecommender(eng)
        for round_number in range(5):
            for _ in range(10):
                eng.execute(SELECTIVE)
            eng.clock.advance(60.0)
            mi.take_snapshot()
            if round_number == 2:
                eng.restart()  # wipes the DMV mid-campaign
        recs = mi.recommend()
        assert len(recs) == 1

    def test_existing_index_suppresses_recommendation(self, eng):
        eng.create_index(
            IndexDefinition("ix_have", "orders", ("o_cust",), ("o_amount",))
        )
        mi = MiRecommender(eng)
        run_and_snapshot(eng, mi, SELECTIVE)
        assert mi.recommend() == []

    def test_top_n_limits_output(self, eng):
        mi = MiRecommender(eng, MiRecommenderSettings(top_n=2))
        queries = [
            SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)),
            SelectQuery("orders", ("o_cust",), (Predicate("o_status", Op.EQ, 1),)),
            SelectQuery("orders", ("o_amount",), (Predicate("o_note", Op.EQ, "note-5"),)),
        ]
        for _ in range(4):
            for query in queries:
                for _ in range(10):
                    eng.execute(query)
            eng.clock.advance(60.0)
            mi.take_snapshot()
        assert len(mi.recommend()) <= 2

    def test_merging_combines_prefix_candidates(self, eng):
        mi = MiRecommender(eng)
        q1 = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))
        q2 = SelectQuery(
            "orders",
            ("o_note",),
            (Predicate("o_cust", Op.EQ, 3), Predicate("o_date", Op.BETWEEN, 5, 40)),
        )
        for _ in range(4):
            for _ in range(10):
                eng.execute(q1)
                eng.execute(q2)
            eng.clock.advance(60.0)
            mi.take_snapshot()
        recs = mi.recommend()
        merged = [r for r in recs if r.key_columns == ("o_cust", "o_date")]
        assert merged, [r.key_columns for r in recs]

    def test_merging_can_be_disabled(self, eng):
        settings = MiRecommenderSettings(use_merging=False)
        mi = MiRecommender(eng, settings)
        q1 = SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),))
        q2 = SelectQuery(
            "orders",
            ("o_note",),
            (Predicate("o_cust", Op.EQ, 3), Predicate("o_date", Op.BETWEEN, 5, 40)),
        )
        for _ in range(4):
            for _ in range(10):
                eng.execute(q1)
                eng.execute(q2)
            eng.clock.advance(60.0)
            mi.take_snapshot()
        recs = mi.recommend()
        keys = {r.key_columns for r in recs}
        assert ("o_cust",) in keys

    def test_classifier_can_veto(self, eng):
        classifier = LowImpactClassifier(min_training_examples=4)
        # History: everything was useless -> classifier rejects all...
        # (degenerate single-class history is ignored by design), so train
        # with a contrast: tiny-impact indexes failed, big-impact succeeded.
        examples = [
            ValidationExample(5.0, 4000, 10_000, 5, False) for _ in range(20)
        ] + [
            ValidationExample(95.0, 4000, 10_000, 500, True) for _ in range(20)
        ]
        assert classifier.fit(examples)
        mi = MiRecommender(eng, classifier=classifier)
        run_and_snapshot(eng, mi, SELECTIVE)
        # The hot selective query has high impact and many seeks: accepted.
        assert len(mi.recommend()) == 1

    def test_mi_coverage_excludes_inserts(self, eng):
        from repro.engine import InsertQuery

        mi = MiRecommender(eng)
        for i in range(20):
            eng.execute(
                InsertQuery("orders", ((400_000 + i, 1, 1, 1.0, 1, "x"),))
            )
            eng.execute(SELECTIVE)
        coverage = mi.workload_coverage(0.0, eng.now + 1)
        assert 0.5 < coverage < 1.0


class TestClassifier:
    def test_untrained_accepts_everything(self):
        classifier = LowImpactClassifier()
        assert classifier.accepts(1.0, 10, 10, 1)
        assert not classifier.is_trained

    def test_too_few_examples_refuses_training(self):
        classifier = LowImpactClassifier(min_training_examples=100)
        examples = [ValidationExample(50.0, 100, 100, 10, True)] * 10
        assert not classifier.fit(examples)

    def test_single_class_history_refuses_training(self):
        classifier = LowImpactClassifier(min_training_examples=5)
        examples = [ValidationExample(50.0, 100, 100, 10, True)] * 50
        assert not classifier.fit(examples)

    def test_learns_impact_separation(self):
        classifier = LowImpactClassifier(min_training_examples=10)
        low = [ValidationExample(3.0, 5000, 50_000, 20, False) for _ in range(40)]
        high = [ValidationExample(90.0, 5000, 50_000, 20, True) for _ in range(40)]
        assert classifier.fit(low + high)
        p_low = classifier.probability_beneficial(3.0, 5000, 50_000, 20)
        p_high = classifier.probability_beneficial(90.0, 5000, 50_000, 20)
        assert p_high > p_low
        assert classifier.accepts(90.0, 5000, 50_000, 20)
