"""B-instance, comparison phase, user emulation, and comparison tests."""

from __future__ import annotations

import pytest

from repro.engine import IndexDefinition
from repro.experiment import compare
from repro.experiment.binstance import DIVERGENCE_TOLERANCE, BInstance
from repro.experiment.compare import (
    MIN_EFFECT,
    ComparisonSettings,
    _phase_summaries,
    _pick_winner,
    _run_phase,
    PhaseSummary,
    compare_database,
)
from repro.experiment.emulate_user import (
    N_TOP,
    pick_indexes_to_drop,
    seed_user_indexes,
)
from repro.rng import derive
from repro.workload import make_profile, replay


@pytest.fixture(scope="module")
def profile():
    p = make_profile("exp-test", seed=8, tier="standard", archetype="saas_invoicing")
    p.workload.run(p.engine, hours=2, max_statements=150)
    return p


class TestBInstance:
    # Replay statistics on a clone are a case of tests/test_ownership.py.

    def test_snapshot_independent_of_primary(self, profile):
        b = BInstance(profile.engine, "b1")
        fact = profile.schema_spec.fact_tables()[0].name
        assert (
            b.engine.database.table(fact).row_count
            == profile.database.table(fact).row_count
        )
        b.engine.create_index(
            IndexDefinition("ix_b_only", fact, (profile.schema_spec.fact_tables()[0].columns[1].name,))
        )
        assert not profile.engine.index_exists(fact, "ix_b_only")

    def test_apply_and_drop_indexes(self, profile):
        b = BInstance(profile.engine, "b3")
        fact_spec = profile.schema_spec.fact_tables()[0]
        definition = IndexDefinition(
            "ix_test", fact_spec.name, (fact_spec.columns[1].name,)
        )
        assert b.apply_indexes([definition]) == 1
        assert b.apply_indexes([definition]) == 0  # idempotent
        assert b.drop_indexes([(fact_spec.name, "ix_test")]) == 1

    def test_divergence_detection(self, profile, monkeypatch):
        assert DIVERGENCE_TOLERANCE == 0.1
        monkeypatch.setattr(replay, "DROP_RATE", 0.5)
        b = BInstance(profile.engine, "b4")
        recording = profile.workload.generate_recording(
            start=b.engine.now, hours=1, max_statements=80
        )
        b.replay(recording)
        assert b.diverged()


class TestPhaseSteps:
    # The standard phase pipeline is a case of tests/test_ownership.py.

    def test_diverged_clone_fails_the_phase_and_spares_the_primary(
        self, monkeypatch
    ):
        """A clone that loses half its fork diverges: the phase returns
        None, and neither its drop nor its create reaches the primary."""
        p = make_profile("exp-phase", seed=8, tier="standard", archetype="saas_invoicing")
        fact = p.schema_spec.fact_tables()[0]
        p.engine.create_index(
            IndexDefinition("ix_primary", fact.name, (fact.columns[1].name,))
        )
        recording = p.workload.generate_recording(
            start=p.engine.now, hours=1, max_statements=80
        )
        monkeypatch.setattr(replay, "DROP_RATE", 0.5)
        monkeypatch.setattr(compare, "PHASE_HOURS", 1)
        stats = _run_phase(
            p,
            "t",
            [(fact.name, "ix_primary")],
            [IndexDefinition("ix_clone", fact.name, (fact.columns[2].name,))],
            recording,
        )
        assert stats is None
        assert set(p.database.table(fact.name).indexes) == {"ix_primary"}

    def test_a_raising_step_fails_the_phase(self, profile, monkeypatch):
        """An error in any step (here: creating an index on a table the
        clone does not have) makes the phase unusable, not the comparison
        crash."""
        monkeypatch.setattr(compare, "PHASE_HOURS", 1)
        recording = profile.workload.generate_recording(
            start=profile.engine.now, hours=1, max_statements=20
        )
        stats = _run_phase(
            profile,
            "t",
            [],
            [IndexDefinition("ix_nowhere", "no_such_table", ("c",))],
            recording,
        )
        assert stats is None


class TestUserEmulation:
    def test_seed_user_indexes_creates_indexes(self):
        p = make_profile("user-test", seed=55, tier="premium", archetype="analytics")
        p.workload.run(p.engine, hours=1, max_statements=120)
        created = seed_user_indexes(
            p, derive(55, "u"), learn_hours=6, max_statements=250
        )
        assert created
        for definition in created:
            assert not definition.auto_created
            assert p.engine.index_exists(definition.table, definition.name)

    def test_pick_indexes_to_drop_subset(self, profile):
        fact_spec = profile.schema_spec.fact_tables()[0]
        for i, spec in enumerate(fact_spec.columns[1:5]):
            name = f"ix_pick_{i}"
            if not profile.engine.index_exists(fact_spec.name, name):
                profile.engine.create_index(
                    IndexDefinition(name, fact_spec.name, (spec.name,))
                )
        assert N_TOP == 20
        picks = pick_indexes_to_drop(profile, derive(1, "p"), k=2)
        assert len(picks) == 2
        for table, name in picks:
            assert profile.engine.index_exists(table, name)

    def test_pick_with_no_indexes(self):
        p = make_profile("bare", seed=66, tier="standard", archetype="webshop")
        assert pick_indexes_to_drop(p, derive(2, "p")) == []


class TestWinnerSelection:
    def summary(self, score, variance=1.0):
        return PhaseSummary(name="x", score=score, variance=variance, templates=5)

    def test_clear_winner(self):
        summaries = {
            "DTA": self.summary(100.0),
            "MI": self.summary(200.0),
            "User": self.summary(300.0),
        }
        assert _pick_winner(summaries) == "DTA"

    def test_insignificant_difference_is_comparable(self):
        summaries = {
            "DTA": self.summary(100.0, variance=900.0),
            "MI": self.summary(101.0, variance=900.0),
            "User": self.summary(102.0, variance=900.0),
        }
        assert _pick_winner(summaries) == "Comparable"

    def test_small_effect_is_comparable(self):
        summaries = {
            "DTA": self.summary(100.0, variance=0.0001),
            "MI": self.summary(100.5, variance=0.0001),
            "User": self.summary(101.0, variance=0.0001),
        }
        assert MIN_EFFECT == 0.03
        assert _pick_winner(summaries) == "Comparable"

    def test_phase_summaries_fixed_counts(self):
        stats = {
            "a": {1: {"executions": 10, "total": 100.0, "m2_weighted": 9.0}},
            "b": {1: {"executions": 5, "total": 40.0, "m2_weighted": 4.0}},
        }
        summaries = _phase_summaries(stats)
        # Fixed count = 5 for both arms; scores use per-execution means.
        assert summaries["a"].score == pytest.approx(5 * 10.0)
        assert summaries["b"].score == pytest.approx(5 * 8.0)


@pytest.mark.slow
def test_compare_database_end_to_end(monkeypatch):
    monkeypatch.setattr(compare, "PHASE_HOURS", 8)
    monkeypatch.setattr(compare, "WARMUP_HOURS", 4)
    monkeypatch.setattr(compare, "USER_LEARN_HOURS", 8)
    monkeypatch.setattr(compare, "LEARN_HOURS", 8)
    p = make_profile("fig6-one", seed=99, tier="standard", archetype="webshop")
    settings = ComparisonSettings(
        user_learn_statements=200,
        warmup_statements=150,
        learn_statements=250,
        phase_statements=250,
    )
    result = compare_database(p, settings)
    assert result.usable
    assert result.winner in ("DTA", "MI", "User", "Comparable")
    assert set(result.improvements) == {"DTA", "MI", "User"}
    assert result.phases["baseline"].score > 0
