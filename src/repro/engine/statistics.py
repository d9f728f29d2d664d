"""Column statistics: equi-depth histograms and density information.

The optimizer estimates predicate selectivity from these statistics, the
same way SQL Server consults column statistics during costing.  DTA
additionally creates *sampled* statistics on candidate columns during a
tuning session (Section 5.3.1); :func:`build_column_statistics` accepts a
sample fraction to model that.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import operator
from typing import List, Optional, Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class HistogramBucket:
    """One equi-depth bucket: values in (previous upper bound, upper]."""

    upper: object
    rows: float
    distinct: float


class ColumnStatistics:
    """Equi-depth histogram plus density for a single column.

    Selectivity queries return fractions of the table's rows.  All
    estimates degrade gracefully on empty tables (selectivity 0).

    Immutable once built: ``buckets`` (ordered by upper bound, as
    :func:`build_column_statistics` makes them) is a tuple of frozen
    buckets, so the lookup tables derived from it at construction — each
    bucket's upper bound and the left-to-right running sum of bucket
    rows — cannot go stale.  A lookup bisects them (values, never NULL,
    compare as themselves) and adds in the order a bucket-by-bucket scan
    would, so every estimate is bit-identical to that scan.
    """

    def __init__(
        self,
        column: str,
        row_count: int,
        null_count: int,
        distinct_count: int,
        buckets: Sequence[HistogramBucket],
        sampled_fraction: float = 1.0,
    ) -> None:
        self.column = column
        self.row_count = row_count
        self.null_count = null_count
        self.distinct_count = max(1, distinct_count) if row_count else 0
        self.buckets = tuple(buckets)
        self.sampled_fraction = sampled_fraction
        self._upper_keys = [bucket.upper for bucket in self.buckets]
        #: ``_rows_before[i]``: rows of buckets ``0..i-1``, summed left to right.
        self._rows_before = [0.0]
        for bucket in self.buckets:
            self._rows_before.append(self._rows_before[-1] + bucket.rows)

    @property
    def density(self) -> float:
        """Average fraction of rows per distinct value (SQL Server density)."""
        if not self.row_count or not self.distinct_count:
            return 0.0
        return 1.0 / self.distinct_count

    def selectivity_eq(self, value: object) -> float:
        """Estimated fraction of rows equal to ``value``."""
        if not self.row_count:
            return 0.0
        if value is None:
            return self.null_count / self.row_count
        bucket = self._bucket_for(value)
        if bucket is None:
            # Out of histogram range: assume one distinct value's worth.
            return min(1.0, self.density)
        per_value = bucket.rows / max(1.0, bucket.distinct)
        return min(1.0, per_value / self.row_count)

    def selectivity_range(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of non-null rows in [low, high]."""
        if not self.row_count:
            return 0.0
        non_null = self.row_count - self.null_count
        if non_null <= 0:
            return 0.0
        below_high = (
            float(non_null) if high is None else self._rows_below(high, high_inclusive)
        )
        below_low = 0.0 if low is None else self._rows_below(low, not low_inclusive)
        rows = below_high - below_low
        return min(1.0, max(0.0, rows / self.row_count))

    def _bucket_for(self, value: object) -> Optional[HistogramBucket]:
        """The first bucket whose upper bound is at or above ``value``."""
        i = bisect.bisect_left(self._upper_keys, value)
        return self.buckets[i] if i < len(self.buckets) else None

    def _rows_below(self, value: object, inclusive: bool) -> float:
        """Estimated count of non-null rows with column value below ``value``."""
        keys = self._upper_keys
        # Buckets [0, end) lie wholly at or below the value.
        end = bisect.bisect_right(keys, value)
        if inclusive:
            total = self._rows_before[end]
        else:
            # Buckets whose upper bound *is* the value lose that value's
            # share, each right after its rows are added.
            start = bisect.bisect_left(keys, value, 0, end)
            total = self._rows_before[start]
            for bucket in self.buckets[start:end]:
                total += bucket.rows
                total -= bucket.rows / max(1.0, bucket.distinct)
        if end < len(keys):
            # value falls inside this bucket: linear interpolation.
            lower = keys[end - 1] if end else None
            frac = _interpolate(lower, keys[end], value)
            total += self.buckets[end].rows * frac
        return total

    def __repr__(self) -> str:
        return (
            f"ColumnStatistics({self.column!r}, rows={self.row_count}, "
            f"distinct={self.distinct_count}, buckets={len(self.buckets)})"
        )


def _interpolate(lower, upper, value) -> float:
    """Fraction of a bucket below ``value`` (crude linear model).

    Only INT, BIGINT, FLOAT and DATE bounds interpolate, converted to
    float before subtracting; BIT and TEXT buckets, and the first bucket
    (no lower bound), take half.
    """
    bounds = (lower, upper, value)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in bounds):
        low, high, val = map(float, bounds)
        if high > low:
            return min(1.0, max(0.0, (val - low) / (high - low)))
    return 0.5


def build_column_statistics(
    column: str,
    values: Sequence[object],
    bucket_count: int = 32,
    sample_fraction: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> ColumnStatistics:
    """Build an equi-depth histogram over ``values``.

    With ``sample_fraction < 1`` a uniform sample is histogrammed and
    counts are scaled back up, modeling DTA's sampled statistics.
    """
    row_count = len(values)
    if row_count == 0:
        return ColumnStatistics(column, 0, 0, 0, [])
    if sample_fraction < 1.0:
        rng = rng if rng is not None else np.random.default_rng(0)
        take = max(1, int(row_count * sample_fraction))
        positions = rng.choice(row_count, size=take, replace=False)
        sampled = [values[int(i)] for i in positions]
        scale = row_count / take
    else:
        sampled = list(values)
        scale = 1.0
    null_count = sampled.count(None)
    if null_count:
        non_null = sorted(value for value in sampled if value is not None)
    else:
        non_null = sorted(sampled)
    # Positions where a new value starts: equal values sit together in
    # sorted order, so a value's run ends at the next boundary.
    boundaries = list(
        itertools.compress(
            range(1, len(non_null)),
            map(operator.ne, itertools.islice(non_null, 1, None), non_null),
        )
    )
    distinct_total = len(boundaries) + 1 if non_null else 0
    buckets: List[HistogramBucket] = []
    if non_null:
        per_bucket = max(1, len(non_null) // bucket_count)
        start = 0
        while start < len(non_null):
            end = min(len(non_null), start + per_bucket)
            # Extend to the end of the boundary value's run so a value
            # never straddles two buckets.
            first = bisect.bisect_left(boundaries, end)
            end = boundaries[first] if first < len(boundaries) else len(non_null)
            distinct = first - bisect.bisect_right(boundaries, start) + 1
            buckets.append(
                HistogramBucket(
                    upper=non_null[end - 1],
                    rows=(end - start) * scale,
                    distinct=max(1.0, distinct),
                )
            )
            start = end
    return ColumnStatistics(
        column=column,
        row_count=row_count,
        null_count=int(null_count * scale),
        distinct_count=int(distinct_total * scale) or (1 if non_null else 0),
        buckets=buckets,
        sampled_fraction=sample_fraction,
    )


class TableStatistics:
    """All column statistics for one table, with staleness tracking."""

    def __init__(self, table: str) -> None:
        self.table = table
        self._columns: dict = {}
        self.built_at: float = 0.0
        self.rows_at_build: int = 0

    def set(self, stats: ColumnStatistics) -> None:
        self._columns[stats.column] = stats

    def get(self, column: str) -> Optional[ColumnStatistics]:
        return self._columns.get(column)

    def columns(self) -> List[str]:
        return sorted(self._columns)

    def staleness(self, current_rows: int) -> float:
        """Relative row-count drift since the statistics were built."""
        if not self.rows_at_build:
            return 0.0 if not current_rows else 1.0
        return abs(current_rows - self.rows_at_build) / self.rows_at_build
