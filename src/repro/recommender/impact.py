"""Impact accumulation across MI DMV snapshots and the slope test.

The MI DMV resets on restart/failover/schema change, so the recommender
accumulates periodic snapshots and stitches per-group time series back
together (Section 5.2).  Really beneficial indexes show impact scores that
keep growing over time; the paper formulates this as a hypothesis test —
the t-statistic of the regression slope of the impact series must clear a
configurable threshold.  For high-impact indexes a few points suffice.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.missing_index import (
    MissingIndexGroup,
    MissingIndexSnapshot,
)


@dataclasses.dataclass
class ImpactPoint:
    """One stitched observation of a group's cumulative impact."""

    at: float
    cumulative_score: float
    cumulative_seeks: int


@dataclasses.dataclass
class GroupSeries:
    """Reset-stitched accumulation for one MI group."""

    group: MissingIndexGroup
    points: List[ImpactPoint] = dataclasses.field(default_factory=list)
    #: Totals across resets.
    total_seeks: int = 0
    total_score: float = 0.0
    #: Per-snapshot raw values from the segment currently accumulating.
    _segment_seeks: int = 0
    _segment_score: float = 0.0
    last_avg_cost: float = 0.0
    last_avg_impact: float = 0.0

    def observe(self, at: float, seeks: int, score: float, avg_cost: float, avg_impact: float) -> None:
        # Seek counts are monotone within one DMV lifetime; a decrease is
        # the reliable reset signal.  (Scores can legitimately dip when the
        # running averages move, so they must NOT be used for detection.)
        if seeks < self._segment_seeks:
            # The DMV reset since the previous snapshot: close the segment.
            self.total_seeks += self._segment_seeks
            self.total_score += self._segment_score
            self._segment_seeks = 0
            self._segment_score = 0.0
        self._segment_seeks = seeks
        self._segment_score = score
        self.last_avg_cost = avg_cost
        self.last_avg_impact = avg_impact
        self.points.append(
            ImpactPoint(
                at=at,
                cumulative_score=self.total_score + score,
                cumulative_seeks=self.total_seeks + seeks,
            )
        )

    @property
    def seeks(self) -> int:
        return self.total_seeks + self._segment_seeks

    @property
    def score(self) -> float:
        return self.total_score + self._segment_score


class SnapshotAccumulator:
    """Accumulates MI snapshots into per-group stitched series."""

    def __init__(self) -> None:
        self._series: Dict[MissingIndexGroup, GroupSeries] = {}

    def add_snapshot(self, snapshot: MissingIndexSnapshot) -> None:
        for entry in snapshot.entries:
            series = self._series.get(entry.group)
            if series is None:
                series = GroupSeries(group=entry.group)
                self._series[entry.group] = series
            score = entry.user_seeks * entry.avg_total_cost * (
                entry.avg_user_impact / 100.0
            )
            series.observe(
                at=snapshot.taken_at,
                seeks=entry.user_seeks,
                score=score,
                avg_cost=entry.avg_total_cost,
                avg_impact=entry.avg_user_impact,
            )

    def series(self) -> List[GroupSeries]:
        return list(self._series.values())

    def get(self, group: MissingIndexGroup) -> Optional[GroupSeries]:
        return self._series.get(group)

    def clear(self) -> None:
        self._series.clear()


@dataclasses.dataclass
class SlopeTest:
    """Result of the impact-slope hypothesis test."""

    slope: float
    t_statistic: float
    n_points: int
    passed: bool


def _slope_and_stderr(xs: List[float], ys: List[float]) -> Tuple[float, float]:
    """Least-squares slope and its standard error, for n >= 3 points.

    The arithmetic of ``scipy.stats.linregress`` (scipy 1.17), step for
    step, so both values are bit-identical to it, NaN included: a
    constant ``ys`` has an undefined correlation and a NaN stderr.
    """
    ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(xs) - 2))
    return float(slope), float(stderr)


def impact_slope_test(
    points: List[ImpactPoint],
    min_slope: float = 0.0,
    t_threshold: float = 2.0,
) -> SlopeTest:
    """t-test that the cumulative impact score grows over time.

    Assuming normally distributed errors, the t-statistic of the regression
    slope against zero must exceed ``t_threshold`` (Section 5.2 step 4).
    A strictly increasing series with enough points passes quickly.
    """
    if len(points) < 3:
        return SlopeTest(slope=0.0, t_statistic=0.0, n_points=len(points), passed=False)
    xs = [p.at for p in points]
    ys = [p.cumulative_score for p in points]
    if len(set(xs)) < 2:
        return SlopeTest(slope=0.0, t_statistic=0.0, n_points=len(points), passed=False)
    slope, stderr = _slope_and_stderr(xs, ys)
    if stderr <= 1e-12:
        # A perfectly linear accumulation: infinitely confident slope.
        t_stat = math.inf if slope > 0 else 0.0
    else:
        t_stat = slope / stderr
    passed = slope > min_slope and t_stat > t_threshold
    return SlopeTest(slope=slope, t_statistic=t_stat, n_points=len(points), passed=passed)


def aggregate_benefit(series: GroupSeries) -> float:
    """Aggregated benefit of an MI group (optimizer cost units saved)."""
    return series.score


def candidate_key_columns(
    group: MissingIndexGroup,
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """MI column mapping (Section 5.2): EQUALITY columns become keys,
    one INEQUALITY column is appended to the key, the remaining
    inequality and include columns are included columns."""
    keys = group.equality_columns + group.inequality_columns[:1]
    includes = tuple(
        column
        for column in group.inequality_columns[1:] + group.include_columns
        if column not in keys
    )
    return keys, tuple(dict.fromkeys(includes))
