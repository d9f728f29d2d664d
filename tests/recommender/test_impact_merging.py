"""Impact accumulation, slope test, and merging tests."""

from __future__ import annotations

import pytest

from repro.engine.missing_index import MissingIndexDmv, MissingIndexGroup
from repro.recommender.impact import (
    SnapshotAccumulator,
    candidate_key_columns,
    impact_slope_test,
)
from repro.recommender import merging
from repro.recommender.merging import (
    MergeCandidate,
    merge_candidates,
    merge_pair,
    mergeable,
)


def snapshot_sequence(dmv_actions):
    """Build snapshots from a list of (records, reset?) steps."""
    dmv = MissingIndexDmv()
    accumulator = SnapshotAccumulator()
    t = 0.0
    for records, reset in dmv_actions:
        for _ in range(records):
            dmv.record("t", ("a",), (), ("b",), 10.0, 50.0, now=t)
        accumulator.add_snapshot(dmv.snapshot(t))
        if reset:
            dmv.reset()
        t += 60.0
    return accumulator


class TestSnapshotAccumulator:
    def test_accumulates_monotonic_series(self):
        accumulator = snapshot_sequence([(5, False), (5, False), (5, False)])
        series = accumulator.series()[0]
        assert series.seeks == 15
        scores = [p.cumulative_score for p in series.points]
        assert scores == sorted(scores)

    def test_survives_dmv_reset(self):
        accumulator = snapshot_sequence(
            [(5, False), (5, True), (3, False), (3, False)]
        )
        series = accumulator.series()[0]
        # 5, then +5 (reset observed after), then 3, then +3 more.
        assert series.seeks == 16
        scores = [p.cumulative_score for p in series.points]
        assert scores == sorted(scores)

    def test_groups_tracked_separately(self):
        dmv = MissingIndexDmv()
        accumulator = SnapshotAccumulator()
        dmv.record("t", ("a",), (), (), 1.0, 10.0, 0.0)
        dmv.record("t", ("b",), (), (), 1.0, 10.0, 0.0)
        accumulator.add_snapshot(dmv.snapshot(0.0))
        assert len(accumulator.series()) == 2


class TestSlopeTest:
    def make_points(self, scores):
        from repro.recommender.impact import ImpactPoint

        return [
            ImpactPoint(at=60.0 * i, cumulative_score=s, cumulative_seeks=i)
            for i, s in enumerate(scores)
        ]

    def test_growing_impact_passes(self):
        test = impact_slope_test(self.make_points([10, 20, 30, 40, 50]))
        assert test.passed
        assert test.slope > 0

    def test_flat_impact_fails(self):
        test = impact_slope_test(self.make_points([10, 10, 10, 10]))
        assert not test.passed

    def test_noisy_flat_fails(self):
        test = impact_slope_test(self.make_points([10, 12, 9, 11, 10]))
        assert not test.passed

    def test_too_few_points_fails(self):
        test = impact_slope_test(self.make_points([10, 20]))
        assert not test.passed
        assert test.n_points == 2

    def test_few_points_with_strong_growth_pass(self):
        # The paper: for high-impact indexes, a few points suffice.
        test = impact_slope_test(self.make_points([100, 200, 300]))
        assert test.passed

    def test_noisy_growth_needs_more_points(self):
        noisy = [10, 30, 20, 45, 38, 60, 55, 80]
        test = impact_slope_test(self.make_points(noisy))
        assert test.passed  # growth dominates noise at n=8


class TestCandidateColumns:
    def test_equality_then_one_inequality(self):
        group = MissingIndexGroup("t", ("a", "b"), ("c", "d"), ("e",))
        keys, includes = candidate_key_columns(group)
        assert keys == ("a", "b", "c")
        assert set(includes) == {"d", "e"}

    def test_no_inequality(self):
        group = MissingIndexGroup("t", ("a",), (), ("b",))
        keys, includes = candidate_key_columns(group)
        assert keys == ("a",)
        assert includes == ("b",)


class TestMerging:
    def cand(self, keys, includes=(), benefit=1.0, table="t"):
        return MergeCandidate(
            table=table,
            key_columns=tuple(keys),
            included_columns=tuple(includes),
            benefit=benefit,
        )

    def test_prefix_mergeable(self):
        assert mergeable(self.cand(["a"]), self.cand(["a", "b"]))
        assert mergeable(self.cand(["a", "b"]), self.cand(["a"]))

    def test_non_prefix_not_mergeable(self):
        assert not mergeable(self.cand(["a"]), self.cand(["b", "a"]))

    def test_different_tables_not_mergeable(self):
        assert not mergeable(
            self.cand(["a"], table="t1"), self.cand(["a"], table="t2")
        )

    def test_merge_pair_unions_includes(self):
        merged = merge_pair(
            self.cand(["a"], ["x"], benefit=2.0),
            self.cand(["a", "b"], ["y"], benefit=3.0),
        )
        assert merged.key_columns == ("a", "b")
        assert set(merged.included_columns) == {"x", "y"}
        assert merged.benefit == pytest.approx(5.0)

    def test_merge_pair_narrow_keys_become_includes(self):
        merged = merge_pair(
            self.cand(["a", "c"], [], benefit=1.0),
            self.cand(["a"], ["z"], benefit=1.0),
        )
        assert merged.key_columns == ("a", "c")
        assert "z" in merged.included_columns

    def test_merge_candidates_reduces_count(self):
        candidates = [
            self.cand(["a"], ["x"], 5.0),
            self.cand(["a", "b"], ["y"], 3.0),
            self.cand(["c"], [], 1.0),
        ]
        merged = merge_candidates(candidates)
        assert len(merged) == 2
        wide = next(c for c in merged if c.key_columns == ("a", "b"))
        assert wide.benefit == pytest.approx(8.0)

    def test_merge_respects_include_budget(self, monkeypatch):
        monkeypatch.setattr(merging, "MAX_INCLUDE_COLUMNS", 4)
        a = self.cand(["a"], [f"x{i}" for i in range(6)], 5.0)
        b = self.cand(["a", "b"], [f"y{i}" for i in range(6)], 5.0)
        merged = merge_candidates([a, b])
        assert len(merged) == 2  # merge would exceed the include budget

    def test_subsumes(self):
        wide = self.cand(["a", "b"], ["x", "y"])
        narrow = self.cand(["a"], ["x"])
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)
