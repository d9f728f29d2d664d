"""Exporters: Prometheus-style text exposition and a JSON dump.

Both exporters render a :class:`~repro.observability.metrics.MetricsRegistry`
(plus, for JSON, optional profiler rows, audit and history) deterministically:
series are ordered by name then labels, floats are emitted with
``repr``-stable formatting, and no wall-clock timestamps appear — the
same run always produces byte-identical output, which the golden tests
rely on.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.observability.metrics import (
    CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profiling import Profiler


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash first — escaping it last would re-escape the markers the
    other two substitutions just produced.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in labels
    )
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition (HELP/TYPE plus one line per series)."""
    lines: List[str] = []
    seen_help = set()
    for series in registry.all_series():
        if series.name not in seen_help:
            spec = CATALOG.get(series.name)
            help_text = spec.description if spec else series.name
            lines.append(f"# HELP {series.name} {help_text}")
            lines.append(f"# TYPE {series.name} {series.kind}")
            seen_help.add(series.name)
        metric = series.metric
        if isinstance(metric, (Counter, Gauge)):
            lines.append(
                f"{series.name}{_label_str(series.labels)} "
                f"{_format_value(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            cumulative = 0
            for bound, bucket in zip(metric.bounds, metric.bucket_counts):
                cumulative += bucket
                labels = series.labels + (("le", _format_value(bound)),)
                lines.append(
                    f"{series.name}_bucket{_label_str(labels)} {cumulative}"
                )
            labels = series.labels + (("le", "+Inf"),)
            lines.append(
                f"{series.name}_bucket{_label_str(labels)} {metric.count}"
            )
            lines.append(
                f"{series.name}_sum{_label_str(series.labels)} "
                f"{_format_value(metric.sum)}"
            )
            lines.append(
                f"{series.name}_count{_label_str(series.labels)} {metric.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def json_export(
    registry: MetricsRegistry,
    profiler: Optional[Profiler] = None,
    audit=None,
    history=None,
) -> dict:
    """A JSON-serializable snapshot of the whole telemetry state.

    The ``metrics`` list is one schema (name, kind, unit, labels, value)
    for every registry, so one tool can plot any run's export.
    """
    metrics = []
    for series in registry.all_series():
        spec = CATALOG.get(series.name)
        entry = {
            "name": series.name,
            "kind": series.kind,
            "unit": spec.unit if spec else "",
            "labels": {k: v for k, v in series.labels},
        }
        metric = series.metric
        if isinstance(metric, (Counter, Gauge)):
            entry["value"] = metric.value
        elif isinstance(metric, Histogram):
            entry.update(
                count=metric.count,
                sum=metric.sum,
                bounds=list(metric.bounds),
                bucket_counts=list(metric.bucket_counts),
                overflow=metric.overflow,
                p50=metric.p50,
                p95=metric.p95,
                p99=metric.p99,
            )
        metrics.append(entry)
    out = {"schema": "repro-telemetry-v3", "metrics": metrics}
    if profiler is not None:
        out["hot_paths"] = [
            {
                "name": row.name,
                "calls": row.calls,
                "real_ms": row.real_ms,
                "sim_ms": row.sim_ms,
            }
            for row in profiler.rows()
        ]
    if audit is not None:
        # Same per-event shape as the JSONL dump, one object per event.
        out["audit"] = [
            json.loads(event.to_json_line()) for event in audit.events()
        ]
    if history is not None:
        # Accepts a TelemetryHistory or its TimeSeriesStore.  The
        # snapshot is deterministic for deterministic series;
        # wall-flagged series are host-dependent by design.
        store = getattr(history, "store", history)
        out["history"] = store.export()
    return out


def json_text(
    registry: MetricsRegistry,
    profiler: Optional[Profiler] = None,
    indent: int = 2,
    audit=None,
    history=None,
) -> str:
    return json.dumps(
        json_export(registry, profiler, audit=audit, history=history),
        indent=indent,
        sort_keys=False,
    )
