"""Query Store: persistent per-interval runtime statistics.

Mirrors the SQL Server feature the paper's service leans on for nearly
everything (Section 3): query text, the history of plans per query, and
execution statistics (count, mean, standard deviation of CPU time, logical
reads, duration) aggregated over fixed time intervals.

The auto-indexing service uses it to (a) pick the workload to tune
(top-K statements over the past N hours, Section 5.3.2), (b) compute
workload coverage (Section 5.1.2), and (c) validate index changes by
comparing per-plan statistics before and after (Section 6).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.observability.profiling import profile


@dataclasses.dataclass
class MetricAggregate:
    """Welford-style streaming mean/variance for one metric."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count

    def merge(self, other: "MetricAggregate") -> "MetricAggregate":
        """Combine two aggregates (Chan et al. parallel variance)."""
        if other.count == 0:
            return dataclasses.replace(self)
        if self.count == 0:
            return dataclasses.replace(other)
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / count
        return MetricAggregate(count=count, mean=mean, m2=m2)


METRICS = ("cpu_time_ms", "logical_reads", "duration_ms")


@dataclasses.dataclass
class RuntimeStats:
    """Statistics for one (query, plan) pair within one interval."""

    query_id: int
    plan_id: int
    interval_start: float
    executions: int = 0
    metrics: Dict[str, MetricAggregate] = dataclasses.field(
        default_factory=lambda: {name: MetricAggregate() for name in METRICS}
    )

    def observe(self, cpu_time_ms: float, logical_reads: float, duration_ms: float) -> None:
        self.executions += 1
        self.metrics["cpu_time_ms"].observe(cpu_time_ms)
        self.metrics["logical_reads"].observe(logical_reads)
        self.metrics["duration_ms"].observe(duration_ms)


@dataclasses.dataclass
class PlanInfo:
    """Registered plan metadata."""

    plan_id: int
    signature: str
    referenced_indexes: Tuple[str, ...]


@dataclasses.dataclass
class QueryInfo:
    """Registered query metadata."""

    query_id: int
    kind: str
    text: str
    template_text: str
    #: Whether Query Store captured complete, optimizable text (the paper's
    #: DTA workload-acquisition problem: fragments can't be what-if costed).
    text_complete: bool = True
    table: str = ""


class QueryStore:
    """Interval-bucketed runtime statistics keyed by (query, plan)."""

    def __init__(self, interval_minutes: float = 60.0, retention_intervals: int = 24 * 90):
        self.interval_minutes = interval_minutes
        self.retention_intervals = retention_intervals
        self._queries: Dict[int, QueryInfo] = {}
        self._plans: Dict[int, PlanInfo] = {}
        # interval index -> (query_id, plan_id) -> RuntimeStats
        self._intervals: Dict[int, Dict[Tuple[int, int], RuntimeStats]] = {}
        #: Query Store plan forcing (the paper's §5.4 drop-protection case):
        #: query_id -> forced plan_id.
        self._forced: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Plan forcing

    def force_plan(self, query_id: int, plan_id: int) -> None:
        """Force a previously seen plan for a query (sp_query_store_force_plan)."""
        if plan_id not in self._plans:
            raise KeyError(f"unknown plan {plan_id}")
        self._forced[query_id] = plan_id

    def unforce_plan(self, query_id: int) -> None:
        self._forced.pop(query_id, None)

    def forced_plan(self, query_id: int) -> Optional[PlanInfo]:
        plan_id = self._forced.get(query_id)
        return self._plans.get(plan_id) if plan_id is not None else None

    def forced_plan_indexes(self) -> set:
        """All index names referenced by any forced plan."""
        names = set()
        for plan_id in self._forced.values():
            info = self._plans.get(plan_id)
            if info is not None:
                names.update(info.referenced_indexes)
        return names

    # ------------------------------------------------------------------
    # Recording

    def _interval_index(self, now: float) -> int:
        return int(now // self.interval_minutes)

    def register_query(self, info: QueryInfo) -> None:
        self._queries.setdefault(info.query_id, info)

    def register_plan(self, info: PlanInfo) -> None:
        self._plans.setdefault(info.plan_id, info)

    def record(
        self,
        query_id: int,
        plan_id: int,
        cpu_time_ms: float,
        logical_reads: float,
        duration_ms: float,
        now: float,
    ) -> None:
        index = self._interval_index(now)
        bucket = self._intervals.setdefault(index, {})
        key = (query_id, plan_id)
        stats = bucket.get(key)
        if stats is None:
            stats = RuntimeStats(
                query_id=query_id,
                plan_id=plan_id,
                interval_start=index * self.interval_minutes,
            )
            bucket[key] = stats
        stats.observe(cpu_time_ms, logical_reads, duration_ms)
        self._evict(index)

    def _evict(self, current_index: int) -> None:
        cutoff = current_index - self.retention_intervals
        stale = [index for index in self._intervals if index < cutoff]
        for index in stale:
            del self._intervals[index]

    # ------------------------------------------------------------------
    # Lookup

    def query_info(self, query_id: int) -> Optional[QueryInfo]:
        return self._queries.get(query_id)

    def plan_info(self, plan_id: int) -> Optional[PlanInfo]:
        return self._plans.get(plan_id)

    def queries(self) -> List[QueryInfo]:
        return list(self._queries.values())

    def _stats_in_window(
        self, since: float, until: float
    ) -> Iterable[RuntimeStats]:
        """Stats in [since, until).

        Granularity is the interval: a window covers every interval whose
        start lies in [since, until), and ``until`` exactly on an interval
        boundary excludes that interval — so back-to-back windows
        partition the data, as the validator's before/after comparison
        requires.
        """
        lo = self._interval_index(since)
        hi = self._interval_index(max(since, until - 1e-9))
        for index in range(lo, hi + 1):
            bucket = self._intervals.get(index)
            if not bucket:
                continue
            yield from bucket.values()

    def aggregate(
        self,
        since: float,
        until: float,
        query_id: Optional[int] = None,
    ) -> Dict[Tuple[int, int], RuntimeStats]:
        """Merge stats per (query, plan) over a time window."""
        with profile("query_store_aggregate"):
            return self._aggregate(since, until, query_id)

    def _aggregate(
        self,
        since: float,
        until: float,
        query_id: Optional[int] = None,
    ) -> Dict[Tuple[int, int], RuntimeStats]:
        merged: Dict[Tuple[int, int], RuntimeStats] = {}
        for stats in self._stats_in_window(since, until):
            if query_id is not None and stats.query_id != query_id:
                continue
            key = (stats.query_id, stats.plan_id)
            existing = merged.get(key)
            if existing is None:
                existing = RuntimeStats(
                    query_id=stats.query_id,
                    plan_id=stats.plan_id,
                    interval_start=stats.interval_start,
                )
                merged[key] = existing
            existing.executions += stats.executions
            for name in METRICS:
                existing.metrics[name] = existing.metrics[name].merge(
                    stats.metrics[name]
                )
        return merged

    def per_query_totals(
        self, since: float, until: float, metric: str = "cpu_time_ms"
    ) -> Dict[int, float]:
        """Total resource per query over a window (across all plans)."""
        totals: Dict[int, float] = {}
        for stats in self._stats_in_window(since, until):
            totals[stats.query_id] = (
                totals.get(stats.query_id, 0.0) + stats.metrics[metric].total
            )
        return totals

    def top_queries(
        self,
        since: float,
        until: float,
        k: int,
        metric: str = "cpu_time_ms",
    ) -> List[Tuple[int, float]]:
        """The K most expensive queries by total metric over the window."""
        totals = self.per_query_totals(since, until, metric)
        ranked = sorted(totals.items(), key=lambda item: -item[1])
        return ranked[:k]

    def plans_for_query(
        self, query_id: int, since: float, until: float
    ) -> List[PlanInfo]:
        plans = []
        seen = set()
        for stats in self._stats_in_window(since, until):
            if stats.query_id != query_id or stats.plan_id in seen:
                continue
            seen.add(stats.plan_id)
            info = self._plans.get(stats.plan_id)
            if info is not None:
                plans.append(info)
        return plans
