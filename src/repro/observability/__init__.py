"""Fleet observability: metrics, audit, profiling, and exporters.

The measurement substrate for the whole reproduction (the operational
prerequisite the paper leans on in Sections 1.2, 3, and 8): a
:class:`MetricsRegistry` of counters/gauges/histograms, the
:class:`AuditLog` decision-provenance stream, :mod:`profiling` hooks on
engine hot paths, and exporters (Prometheus text, JSON, and the
``repro telemetry`` dashboard).

A :class:`Telemetry` object bundles one registry + audit log; the
control plane owns one and threads it through every micro-service.
"""

from repro.observability.alerts import Alert, AlertWatchdog
from repro.observability.audit import (
    AUDIT_CATALOG,
    AUDIT_SCHEMA_VERSION,
    AuditEvent,
    AuditLog,
)
from repro.observability.compliance import (
    FORBIDDEN_KEYS,
    ensure_compliant,
    find_forbidden_keys,
)
from repro.observability.dashboard import render_dashboard
from repro.observability.explain import (
    build_timeline,
    decision_index,
    render_explain,
)
from repro.observability.exporters import json_export, json_text, prometheus_text
from repro.observability.metrics import (
    CATALOG,
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricSpec,
    MetricsRegistry,
)
from repro.observability.profiling import (
    Profiler,
    active,
    count,
    profile,
    use_profiler,
)
from repro.observability.slo import (
    SLO_CATALOG,
    SloSpec,
    SloStatus,
    evaluate_catalog,
    render_slo_report,
)
from repro.observability.timeseries import (
    SAMPLE_CATALOG,
    AnomalyDetector,
    FleetSampler,
    TelemetryHistory,
    TimeSeriesStore,
)
from repro.observability.trace_export import (
    PARENT_TRACK,
    TraceEvent,
    attribution_summary,
    render_critical_path,
    trace_event_json,
)


class Telemetry:
    """One bundle of telemetry state (registry + audit)."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.audit = AuditLog()

    def count_event(self, kind: str, database: str) -> None:
        """Count one lifecycle event in ``events_total``.

        A view, not a history: the evidence behind each event lives in
        the audit stream, the state change in the journal.
        """
        self.registry.counter(
            "events_total", kind=kind, database=database
        ).inc()


__all__ = [
    "AUDIT_CATALOG",
    "AUDIT_SCHEMA_VERSION",
    "Alert",
    "AlertWatchdog",
    "AnomalyDetector",
    "AuditEvent",
    "AuditLog",
    "CATALOG",
    "DEFAULT_BOUNDS",
    "FORBIDDEN_KEYS",
    "Counter",
    "FleetSampler",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "PARENT_TRACK",
    "Profiler",
    "SAMPLE_CATALOG",
    "SLO_CATALOG",
    "SloSpec",
    "SloStatus",
    "Telemetry",
    "TelemetryHistory",
    "TimeSeriesStore",
    "TraceEvent",
    "active",
    "attribution_summary",
    "build_timeline",
    "count",
    "decision_index",
    "evaluate_catalog",
    "ensure_compliant",
    "find_forbidden_keys",
    "json_export",
    "json_text",
    "profile",
    "prometheus_text",
    "render_critical_path",
    "render_dashboard",
    "render_explain",
    "render_slo_report",
    "trace_event_json",
    "use_profiler",
]
