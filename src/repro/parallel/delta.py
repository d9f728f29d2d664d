"""Per-database tick deltas and mergeable registry snapshots.

A :class:`TickDelta` is everything one database produced during one
virtual-time tick, in emission order: its two histories (state-store
journal entries, audit events) plus what neither of them carries — the
metric diff (histograms, gauges) and hot-path profiler rows.
Incidents, classifier examples and ``events_total`` are views of those
and are not shipped.
Deltas are picklable (they cross the process pipe) and *positional* —
all ids inside are the worker plane's local ids, remapped to global ids
by the merger.

Metric deltas are snapshot diffs: counters and gauges carry a value
delta (gauges may go down), histograms carry per-bucket count deltas
plus sum/count/min/max.  Applying a delta is commutative across
databases for counters/histograms and exact for gauges because every
shared (unlabeled-by-database) gauge in the taxonomy is maintained by
inc/dec, which sums correctly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.controlplane.store import JournalEntry
from repro.errors import TelemetryError
from repro.observability.audit import AuditEvent
from repro.observability.metrics import (
    CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: Snapshot / diff key: (metric name, kind, ((label, value), ...)).
SeriesKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]


@dataclasses.dataclass
class TickDelta:
    """Everything one database emitted during one tick."""

    database: str
    #: Journal entries with the worker plane's local seq / rec_id.
    journal: List[JournalEntry]
    #: Audit events with local seq / parent_seq / rec_id.
    audit: List[AuditEvent]
    #: Registry snapshot diff (see :func:`diff_snapshots`).
    metrics: Dict[SeriesKey, object]
    #: Drained hot-path profiler rows ``(name, calls, real_seconds,
    #: sim_ms)`` in name order — this database's engine work this tick.
    #: Merged (in the same stable db order as everything else) into the
    #: region-level profiler so shard-side work is visible at the parent.
    hot_paths: List[tuple] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# Registry snapshots


def registry_snapshot(registry: MetricsRegistry) -> Dict[SeriesKey, object]:
    """Immutable value snapshot of every series in ``registry``."""
    snap: Dict[SeriesKey, object] = {}
    for series in registry.all_series():
        key = (series.name, series.kind, series.labels)
        metric = series.metric
        if isinstance(metric, (Counter, Gauge)):
            snap[key] = metric.value
        else:
            assert isinstance(metric, Histogram)
            snap[key] = (
                metric.bounds,
                tuple(metric.bucket_counts),
                metric.overflow,
                metric.count,
                metric.sum,
                metric.min,
                metric.max,
            )
    return snap


def diff_snapshots(
    old: Dict[SeriesKey, object], new: Dict[SeriesKey, object]
) -> Dict[SeriesKey, object]:
    """What changed between two snapshots of the *same* registry.

    Series new to ``new`` are always included (even at value 0.0) so the
    merged registry materializes the same series set a serial run would.
    """
    diff: Dict[SeriesKey, object] = {}
    for key, value in new.items():
        previous = old.get(key)
        name, kind, _labels = key
        if kind in ("counter", "gauge"):
            base = previous if previous is not None else 0.0
            delta = value - base
            if previous is None or delta != 0.0:
                diff[key] = delta
        else:
            bounds, buckets, overflow, count, total, vmin, vmax = value
            if previous is None:
                diff[key] = value
                continue
            (_b, pbuckets, poverflow, pcount, ptotal, _pmin, _pmax) = previous
            if count == pcount:
                continue
            diff[key] = (
                bounds,
                tuple(b - pb for b, pb in zip(buckets, pbuckets)),
                overflow - poverflow,
                count - pcount,
                total - ptotal,
                vmin,
                vmax,
            )
    return diff


def apply_metric_diff(
    registry: MetricsRegistry, diff: Dict[SeriesKey, object]
) -> None:
    """Apply a snapshot diff to ``registry`` in sorted series order.

    Every name replayed through the merge must be declared in the
    metrics ``CATALOG`` — this is the runtime half of the
    ``check_observability_names`` lint: worker-side call sites are
    linted statically, and anything that still reaches the merge with an
    uncataloged name (e.g. a dynamically built ``fleet_*`` name) fails
    here.
    """
    for key in sorted(diff):
        name, kind, labels_key = key
        if name not in CATALOG:
            raise TelemetryError(
                f"merged metric {name!r} is not in the CATALOG taxonomy "
                "(src/repro/observability/metrics.py)"
            )
        labels = dict(labels_key)
        value = diff[key]
        # These names are dynamic by design: they replay worker-side call
        # sites that were themselves lint-checked as literals.
        if kind == "counter":
            registry.counter(name, **labels).inc(value)  # observability-names: allow-dynamic
        elif kind == "gauge":
            registry.gauge(name, **labels).inc(value)  # observability-names: allow-dynamic
        else:
            bounds, buckets, overflow, count, total, vmin, vmax = value
            histogram = registry.histogram(name, bounds=bounds, **labels)  # observability-names: allow-dynamic
            if histogram.bounds != bounds:
                raise TelemetryError(
                    f"histogram {name!r} bounds differ between worker "
                    "and merged registries"
                )
            for i, bucket in enumerate(buckets):
                histogram.bucket_counts[i] += bucket
            histogram.overflow += overflow
            histogram.count += count
            histogram.sum += total
            histogram.min = min(histogram.min, vmin)
            histogram.max = max(histogram.max, vmax)

