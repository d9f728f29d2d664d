"""Fleet metrics: counters, gauges, and streaming histograms.

A :class:`MetricsRegistry` is the numeric side of the observability
layer (the decision side is the :mod:`repro.observability.audit`
stream).  Every metric is identified by a ``snake_case`` name plus a
label set (e.g.
``database``, ``state``), mirroring the anonymized dimensions the
paper's engineers aggregate over (Sections 1.2, 8).

Histograms use **fixed bucket bounds** and observe *simulated* durations
from the :class:`repro.clock.SimClock`, so quantiles (p50/p95/p99) are
deterministic and independent of wall-clock time.

``CATALOG`` is the metrics taxonomy: every metric the repo emits is
declared there with its kind, unit, and description.  The
``scripts/check_observability_names.py`` lint fails the build when
source code uses a name that is missing from the catalog or not
``snake_case`` (the same lint covers audit event types and SLO names).
"""

from __future__ import annotations

import bisect
import dataclasses
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TelemetryError
from repro.observability.compliance import ensure_compliant, ensure_clean_labels

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

LabelsKey = Tuple[Tuple[str, str], ...]


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """One catalog entry: the contract for a metric name."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    description: str


def _spec(name: str, kind: str, unit: str, description: str) -> Tuple[str, MetricSpec]:
    return name, MetricSpec(name, kind, unit, description)


#: The metrics taxonomy.  Names are stable public API: dashboards, the
#: Prometheus exposition, and the end-to-end benchmark's per-layer
#: table (``benchmarks/e2e``) all key on them.
CATALOG: Dict[str, MetricSpec] = dict(
    [
        _spec("events_total", "counter", "events",
              "Control-plane lifecycle events, by kind."),
        _spec("state_transitions_total", "counter", "transitions",
              "Recommendation state-machine transitions (from_state -> to_state)."),
        _spec("records_in_state", "gauge", "records",
              "Recommendation records currently in each state."),
        _spec("recommendations_created_total", "counter", "recommendations",
              "Recommendations registered, by action (create/drop) and source."),
        _spec("implementations_completed_total", "counter", "implementations",
              "Index changes fully implemented (build or drop finished)."),
        _spec("validation_reverts_total", "counter", "reverts",
              "Validation-triggered reverts, by regressed statement class."),
        _spec("incidents_total", "counter", "incidents",
              "Service-health incidents raised for on-call engineers."),
        _spec("state_duration_minutes", "histogram", "minutes",
              "Simulated time a record spent in one state before leaving it."),
        _spec("tuning_session_duration_minutes", "histogram", "minutes",
              "Simulated end-to-end duration of a tuning session (DTA/MI)."),
        _spec("analysis_runs_total", "counter", "runs",
              "Analysis passes invoked, by recommender source and outcome."),
        _spec("dta_whatif_calls_total", "counter", "calls",
              "What-if optimizer calls consumed by completed DTA sessions."),
        _spec("alerts_raised_total", "counter", "alerts",
              "Watchdog alerts raised, by SLO name (label rule)."),
        _spec("alerts_firing", "gauge", "alerts",
              "Whether each non-advisory SLO's burn-rate alert is "
              "currently firing (0/1), by SLO name (label rule)."),
        _spec("telemetry_history_samples", "gauge", "samples",
              "Samples currently retained across every series of the "
              "telemetry-history store (memory-bound evidence)."),
        _spec("telemetry_anomalies_total", "counter", "anomalies",
              "EWMA/z-score excursions detected on sampled telemetry "
              "series, by series name."),
        _spec("fleet_databases", "gauge", "databases",
              "Managed databases in the sharded fleet-parallel run."),
        _spec("fleet_workers", "gauge", "workers",
              "Shard workers executing the fleet-parallel control plane."),
        _spec("fleet_shard_busy", "gauge", "seconds",
              "Cumulative wall-clock seconds each shard spent executing "
              "ticks (labeled by shard; wall time, not simulated time)."),
        _spec("fleet_tick_skew_seconds", "gauge", "seconds",
              "Busiest-minus-idlest shard wall-clock gap for the most "
              "recent tick (stragglers bound parallel speedup)."),
        _spec("fleet_merge_queue_depth", "gauge", "deltas",
              "Per-database tick deltas awaiting the deterministic merge "
              "at the start of the most recent merge pass."),
        _spec("fleet_tick_wall_seconds", "histogram", "seconds",
              "Wall-clock seconds per fleet tick (dispatch through "
              "finalize); the streaming whole-run complement of the "
              "ring-bounded tick_wall_seconds history series."),
        _spec("fleet_ticks_total", "counter", "ticks",
              "Fleet-parallel ticks executed (dispatch + merge rounds)."),
        _spec("fleet_phase_seconds", "histogram", "seconds",
              "Wall-clock seconds one tick spent in each critical-path "
              "phase (labeled by phase; see repro.parallel.timing "
              "PHASE_CATALOG for the taxonomy)."),
        _spec("fleet_tick_attribution_ratio", "gauge", "ratio",
              "Fraction of the most recent tick's wall-clock explained "
              "by the parent-side phase timers (1.0 = fully attributed)."),
        _spec("fleet_profile_events_dropped_total", "counter", "events",
              "Phase/trace events discarded after the profiler's "
              "in-memory event cap was reached (long unprofiled runs)."),
        _spec("executor_vector_dispatch_total", "gauge", "statements",
              "Statements executed per database, by path (vector/interp); "
              "monotone engine counter published as a gauge."),
        _spec("executor_batch_rows", "gauge", "rows",
              "Rows that flowed through vectorized batch operators per "
              "database (monotone engine counter)."),
        # One gauge per interpreter-fallback reason; the set of reasons
        # mirrors repro.engine.exec.dispatch.FALLBACK_REASONS (the lint
        # cross-checks the two).  Per reason, per database, monotone;
        # summed over reasons they equal the interp dispatch count.
        _spec("executor_fallback_threshold_total", "gauge", "statements",
              "Statements interpreted because the scanned table holds "
              "too few rows to amortize batching (monotone)."),
        _spec("executor_fallback_shape_total", "gauge", "statements",
              "Statements interpreted because the single-table plan "
              "shape is unsupported — clustered seeks, TOP over a "
              "lazy source (monotone)."),
        _spec("executor_fallback_join_total", "gauge", "statements",
              "Statements interpreted because the join shape is "
              "unsupported — nested-loop, a hash join with a "
              "clustered-seek side (monotone)."),
        _spec("executor_fallback_hinted_total", "gauge", "statements",
              "Statements interpreted because an index hint forced an "
              "unsupported access path (monotone)."),
        _spec("executor_fallback_runtime_total", "gauge", "statements",
              "Statements whose vectorized run bailed out mid-plan and "
              "re-ran interpreted after a charge rollback (monotone)."),
        _spec("executor_column_cache_hits", "gauge", "projections",
              "Columnar projection cache hits per database (monotone)."),
        _spec("executor_column_cache_misses", "gauge", "projections",
              "Columnar projection builds per database (monotone)."),
        _spec("executor_column_cache_invalidations", "gauge", "projections",
              "Columnar cache discards per database: live projections "
              "dropped for a rebuild after index DDL, an unlogged data "
              "version step or an over-budget change log (monotone)."),
        _spec("executor_column_cache_delta_rows", "gauge", "rows",
              "Row changes folded into live columnar projections per "
              "database instead of forcing a rebuild (monotone)."),
        _spec("whatif_batch_batches", "gauge", "batches",
              "What-if batches created per database (one per statement "
              "frontier; monotone engine counter)."),
        _spec("whatif_batch_configurations", "gauge", "configurations",
              "Hypothetical configurations priced through the what-if "
              "API per database (monotone)."),
        _spec("whatif_batch_substrate_hits", "gauge", "substrates",
              "What-if substrate reuses per database: statement plan "
              "spaces served from the substrate the asking session held "
              "(monotone)."),
        _spec("whatif_batch_substrate_misses", "gauge", "substrates",
              "What-if substrate builds per database: the "
              "configuration-invariant plan space had to be enumerated "
              "(monotone)."),
    ]
)

#: Default histogram bounds for simulated durations, in minutes.  The
#: +Inf bucket is implicit.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 720.0,
    1440.0, 2880.0, 10080.0,
)


def _validate_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise TelemetryError(
            f"metric name {name!r} is not snake_case ([a-z][a-z0-9_]*)"
        )


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Streaming histogram over fixed bucket bounds.

    ``bucket_counts[i]`` counts observations with
    ``value <= bounds[i]`` (and greater than the previous bound);
    observations above the last bound land in the overflow bucket.
    Quantiles are estimated by linear interpolation inside the bucket
    containing the target rank, clamped to the observed min/max.
    """

    __slots__ = ("bounds", "bucket_counts", "overflow", "count", "sum",
                 "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned or list(cleaned) != sorted(set(cleaned)):
            raise TelemetryError(
                "histogram bounds must be non-empty, sorted, and distinct"
            )
        self.bounds = cleaned
        self.bucket_counts = [0] * len(cleaned)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.bucket_counts[index] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) of the observed values."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0.0
        lower = max(0.0, self.min)
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            if bucket:
                if cumulative + bucket >= target:
                    fraction = (target - cumulative) / bucket
                    lo = max(lower, self.min)
                    hi = min(bound, self.max)
                    if hi <= lo:
                        return hi
                    return lo + fraction * (hi - lo)
                cumulative += bucket
            lower = bound
        return self.max  # target rank lies in the overflow bucket

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


@dataclasses.dataclass
class Series:
    """One (name, labels) time series and its metric object."""

    name: str
    kind: str
    labels: LabelsKey
    metric: object  # Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of labeled counters, gauges, and histograms.

    Names must be ``snake_case``; label names must be ``snake_case`` and
    free of customer-data keys; re-registering a name with a different
    kind raises :class:`~repro.errors.TelemetryError`.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelsKey], Series] = {}
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Creation / access

    def _get(self, name: str, kind: str, labels: Dict[str, object], factory):
        _validate_name(name)
        for label_name in labels:
            _validate_name(label_name)
        ensure_clean_labels(labels, f"labels of metric {name!r}")
        ensure_compliant(labels, f"labels of metric {name!r}")
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as a {known}, not a {kind}"
            )
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        series = self._series.get(key)
        if series is None:
            series = Series(name=name, kind=kind, labels=key[1], metric=factory())
            self._series[key] = series
            self._kinds[name] = kind
        return series.metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, "gauge", labels, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        factory = (lambda: Histogram(bounds)) if bounds is not None else Histogram
        return self._get(name, "histogram", labels, factory)

    # ------------------------------------------------------------------
    # Queries

    def all_series(self) -> List[Series]:
        """Every series, deterministically ordered by (name, labels)."""
        return [self._series[key] for key in sorted(self._series)]

    def series_for(self, name: str, **labels) -> List[Series]:
        """Series of ``name`` whose labels include all of ``labels``."""
        wanted = {(k, str(v)) for k, v in labels.items()}
        return [
            s
            for key, s in sorted(self._series.items())
            if s.name == name and wanted.issubset(set(s.labels))
        ]

    def total(self, name: str, **labels) -> float:
        """Sum of all counter/gauge series matching ``name`` + ``labels``.

        Missing metrics total 0.0, so report code can read counters that
        a quiet run never touched.
        """
        total = 0.0
        for series in self.series_for(name, **labels):
            if isinstance(series.metric, (Counter, Gauge)):
                total += series.metric.value
            else:
                raise TelemetryError(f"metric {name!r} is a histogram; "
                                     "use series_for() and quantiles")
        return total
