"""Histogram / column statistics tests."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.statistics import (
    TableStatistics,
    _interpolate,
    build_column_statistics,
)


class TestBuild:
    def test_empty_values(self):
        stats = build_column_statistics("c", [])
        assert stats.row_count == 0
        assert stats.selectivity_eq(5) == 0.0
        assert stats.selectivity_range(0, 10) == 0.0

    def test_counts(self):
        stats = build_column_statistics("c", [1, 2, 2, 3, None])
        assert stats.row_count == 5
        assert stats.null_count == 1
        assert stats.distinct_count == 3
        stats = build_column_statistics("c", list(range(100)))
        assert stats.density == pytest.approx(0.01)

    def test_buckets_cover_all_rows(self):
        values = list(np.random.default_rng(0).integers(0, 50, size=1000))
        stats = build_column_statistics("c", values, bucket_count=8)
        assert sum(b.rows for b in stats.buckets) == pytest.approx(1000)


class TestSelectivityEq:
    def test_uniform_values(self):
        values = [i % 10 for i in range(1000)]
        stats = build_column_statistics("c", values)
        assert stats.selectivity_eq(3) == pytest.approx(0.1, rel=0.3)

    def test_null_selectivity(self):
        stats = build_column_statistics("c", [None] * 30 + list(range(70)))
        assert stats.selectivity_eq(None) == pytest.approx(0.3)

    def test_out_of_range_value(self):
        stats = build_column_statistics("c", list(range(100)))
        assert 0 < stats.selectivity_eq(10_000) <= 0.05

    def test_skewed_values(self):
        values = [0] * 900 + list(range(1, 101))
        stats = build_column_statistics("c", values, bucket_count=16)
        assert stats.selectivity_eq(0) > 0.5


class TestSelectivityRange:
    def test_full_range(self):
        stats = build_column_statistics("c", list(range(100)))
        assert stats.selectivity_range(0, 99) == pytest.approx(1.0, rel=0.05)
        stats = build_column_statistics("c", list(range(1000)))
        sel = stats.selectivity_range(0, 499)
        assert sel == pytest.approx(0.5, rel=0.15)
        # Within a bucket, INT/BIGINT/FLOAT/DATE bounds interpolate as
        # floats (converted before subtracting, so a BIGINT past 2**53
        # rounds first); BIT and TEXT bounds and the first bucket take half.
        assert _interpolate(0, 10, 4) == 0.4
        assert _interpolate(2**53, 2**53 + 4, 2**53 + 1) == 0.0
        assert _interpolate(False, True, True) == 0.5
        assert _interpolate("a", "c", "b") == 0.5
        assert _interpolate(None, 10, 4) == 0.5

    def test_empty_range(self):
        stats = build_column_statistics("c", list(range(100)))
        assert stats.selectivity_range(2000, 3000) <= 0.05

    def test_unbounded_low(self):
        stats = build_column_statistics("c", list(range(1000)))
        assert stats.selectivity_range(None, 99) == pytest.approx(0.1, rel=0.3)
        assert stats.selectivity_range(900, None) == pytest.approx(0.1, rel=0.3)

    @given(
        st.lists(st.integers(0, 100), min_size=20, max_size=300),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_range_close_to_truth(self, values, lo, hi):
        """Histogram range estimates stay within a loose factor of truth."""
        lo, hi = min(lo, hi), max(lo, hi)
        stats = build_column_statistics("c", values, bucket_count=16)
        true_sel = sum(1 for v in values if lo <= v <= hi) / len(values)
        est = stats.selectivity_range(lo, hi)
        assert 0.0 <= est <= 1.0
        # Equi-depth histograms bound the error by roughly one bucket.
        assert abs(est - true_sel) <= 2.5 / 16 + 0.15


class TestSampledStats:
    def test_sampled_counts_scale(self):
        rng = np.random.default_rng(7)
        values = list(range(10_000))
        stats = build_column_statistics(
            "c", values, sample_fraction=0.1, rng=rng
        )
        assert stats.row_count == 10_000
        assert stats.sampled_fraction == 0.1
        assert stats.selectivity_range(0, 4999) == pytest.approx(0.5, rel=0.2)


class TestTableStatistics:
    def test_set_get(self):
        table_stats = TableStatistics("t")
        table_stats.set(build_column_statistics("a", [1, 2, 3]))
        assert table_stats.get("a") is not None
        assert table_stats.get("zz") is None
        assert table_stats.columns() == ["a"]

    def test_staleness(self):
        table_stats = TableStatistics("t")
        table_stats.rows_at_build = 100
        assert table_stats.staleness(150) == pytest.approx(0.5)
        assert table_stats.staleness(100) == 0.0
        never_built = TableStatistics("t")
        assert never_built.staleness(0) == 0.0
        assert never_built.staleness(10) == 1.0


# ----------------------------------------------------------------------
# Bisected lookups against the bucket-by-bucket scan they replaced


def _scan_bucket_for(stats, value):
    for bucket in stats.buckets:
        if value <= bucket.upper:
            return bucket
    return None


def _scan_rows_below(stats, value, inclusive):
    total = 0.0
    lower = None
    for bucket in stats.buckets:
        if value >= bucket.upper:
            total += bucket.rows
            if value == bucket.upper and not inclusive:
                total -= bucket.rows / max(1.0, bucket.distinct)
            lower = bucket.upper
            continue
        frac = _interpolate(lower, bucket.upper, value)
        total += bucket.rows * frac
        break
    return total


def _scan_eq(stats, value):
    if not stats.row_count:
        return 0.0
    if value is None:
        return stats.null_count / stats.row_count
    bucket = _scan_bucket_for(stats, value)
    if bucket is None:
        return min(1.0, stats.density)
    per_value = bucket.rows / max(1.0, bucket.distinct)
    return min(1.0, per_value / stats.row_count)


def _scan_range(stats, low, high, low_inclusive, high_inclusive):
    if not stats.row_count:
        return 0.0
    non_null = stats.row_count - stats.null_count
    if non_null <= 0:
        return 0.0
    below_high = (
        float(non_null) if high is None
        else _scan_rows_below(stats, high, high_inclusive)
    )
    below_low = 0.0 if low is None else _scan_rows_below(stats, low, not low_inclusive)
    rows = below_high - below_low
    return min(1.0, max(0.0, rows / stats.row_count))


def _probes(values):
    """Bucket bounds, points between and beside them, and far outside:
    NULL and values comparable with the column's (a bound literal has
    the column's type)."""
    present = sorted({v for v in values if v is not None})
    text = any(isinstance(v, str) for v in present)
    probes = [None] + (["", "~" * 8] if text else [-1e18, 1e18])
    for value in present:
        probes.append(value)
        if isinstance(value, str):
            probes.extend((value + "0", value[:-1]))
        else:
            probes.extend((value - 1, value + 0.5, value - 1e-9))
    for left, right in zip(present, present[1:]):
        if not isinstance(left, str) and not isinstance(right, str):
            probes.append((left + right) / 2)
    return probes


_COLUMN_VALUES = st.one_of(
    st.lists(st.one_of(st.none(), st.integers(-50, 50)), max_size=120),
    st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=120),
    st.lists(
        st.one_of(
            st.none(),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ),
        max_size=120,
    ),
    st.lists(
        st.one_of(st.none(), st.text("abc", max_size=3)), max_size=120
    ),
    st.lists(st.one_of(st.none(), st.booleans()), max_size=120),
)


def _same(left, right):
    return type(left) is type(right) and float(left).hex() == float(right).hex()


class TestBisectedLookups:
    # Heavy duplicates at bucket bounds: an exclusive bound drops exactly
    # that value's share of its bucket, as the scan does.
    @example(
        values=[1] * 40 + [2] * 3 + [3] * 40 + list(range(4, 30)),
        bucket_count=6,
        sample_fraction=1.0,
    )
    # Sampled (fractional) counts, where summation order shows in the
    # last bit: bucket rows and the bound value's share added as one
    # step, or a prefix summed exactly, round differently from the scan.
    @example(values=[20, 2, 20, 15, 13], bucket_count=5, sample_fraction=0.7)
    @example(values=[0, 2, 6, 4, 12, 2, 17], bucket_count=3, sample_fraction=0.9)
    @given(
        values=_COLUMN_VALUES,
        bucket_count=st.integers(1, 12),
        sample_fraction=st.sampled_from([1.0, 1.0, 0.5, 0.3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_estimates_bit_identical_to_scan(
        self, values, bucket_count, sample_fraction
    ):
        stats = build_column_statistics(
            "c",
            values,
            bucket_count=bucket_count,
            sample_fraction=sample_fraction,
            rng=np.random.default_rng(5),
        )
        assert isinstance(stats.buckets, tuple)
        if stats.buckets:
            with pytest.raises(dataclasses.FrozenInstanceError):
                stats.buckets[0].rows = 99.0
        probes = _probes(values)
        for value in probes:
            assert _same(stats.selectivity_eq(value), _scan_eq(stats, value))
        # Every probe bounds one side; pairs of bounds are a spread sample.
        picks = probes[:: max(1, len(probes) // 14)] + probes[1:5]
        for low, high in itertools.product(picks, picks):
            for low_inc, high_inc in itertools.product((True, False), repeat=2):
                got = stats.selectivity_range(low, high, low_inc, high_inc)
                want = _scan_range(stats, low, high, low_inc, high_inc)
                assert _same(got, want), (low, high, low_inc, high_inc)
        for value in probes[1:]:
            for inclusive in (True, False):
                assert _same(
                    stats._rows_below(value, inclusive),
                    _scan_rows_below(stats, value, inclusive),
                )


# ----------------------------------------------------------------------
# The histogram build against the per-value build it replaced


def _reference_build(values, bucket_count, sample_fraction, rng):
    """The generator-fed build with ``len(set(chunk))`` per bucket,
    kept as an oracle: ``(row_count, null_count, distinct_count,
    sampled_fraction, buckets)``."""
    row_count = len(values)
    if row_count == 0:
        return (0, 0, 0, 1.0, [])
    if sample_fraction < 1.0:
        take = max(1, int(row_count * sample_fraction))
        positions = rng.choice(row_count, size=take, replace=False)
        sampled = [values[int(i)] for i in positions]
        scale = row_count / take
    else:
        sampled = list(values)
        scale = 1.0
    null_count = sum(1 for value in sampled if value is None)
    non_null = sorted(value for value in sampled if value is not None)
    distinct_total = len(set(non_null))
    buckets = []
    if non_null:
        per_bucket = max(1, len(non_null) // bucket_count)
        start = 0
        while start < len(non_null):
            end = min(len(non_null), start + per_bucket)
            boundary = non_null[end - 1]
            while end < len(non_null) and non_null[end] == boundary:
                end += 1
            chunk = non_null[start:end]
            buckets.append(
                (chunk[-1], len(chunk) * scale, max(1.0, len(set(chunk))))
            )
            start = end
    distinct = int(distinct_total * scale) or (1 if non_null else 0)
    return (row_count, int(null_count * scale), distinct, sample_fraction, buckets)


#: Ints and floats that compare equal across types (0 / -0.0 / 0.0,
#: 2**53 and its float) and ones that only nearly do (2**53 + 1).
_MIXED_NUMBERS = st.lists(
    st.one_of(
        st.none(),
        st.integers(-6, 6),
        st.sampled_from([0.0, -0.0, 2.0, 2**53, 2**53 + 1, float(2**53)]),
        st.floats(-3, 3, allow_nan=False).map(lambda f: round(f, 1)),
    ),
    max_size=150,
)


@given(
    values=st.one_of(_COLUMN_VALUES, _MIXED_NUMBERS),
    bucket_count=st.integers(1, 12),
    sample_fraction=st.sampled_from([1.0, 1.0, 0.5, 0.3]),
    as_tuple=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_property_build_equals_per_value_build(
    values, bucket_count, sample_fraction, as_tuple
):
    """Sorting the list directly and counting distinct values from run
    boundaries builds, field by field and type by type, the statistics
    the per-value build did."""
    stats = build_column_statistics(
        "c",
        tuple(values) if as_tuple else values,
        bucket_count=bucket_count,
        sample_fraction=sample_fraction,
        rng=np.random.default_rng(3),
    )
    rows, nulls, distinct, fraction, buckets = _reference_build(
        values, bucket_count, sample_fraction, np.random.default_rng(3)
    )
    assert (stats.row_count, stats.null_count) == (rows, nulls)
    assert stats.distinct_count == (max(1, distinct) if rows else 0)
    assert stats.sampled_fraction == fraction
    got = [(b.upper, b.rows, b.distinct) for b in stats.buckets]
    assert got == buckets
    assert [tuple(map(type, b)) for b in got] == [
        tuple(map(type, b)) for b in buckets
    ]
