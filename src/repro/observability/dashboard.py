"""The live-style fleet dashboard behind ``repro telemetry``.

Renders what an on-call engineer for the paper's service would want on
one screen (Section 8): where every state machine currently is, how
often validation is reverting, which tuning sessions are slowest, and
where the engine itself is spending its time.  Everything is read from
the telemetry substrate (registry + span recorder + profiler), never
from the control plane's records directly, so the dashboard can only
show what the telemetry actually captured.
"""

from __future__ import annotations

from typing import List, Optional

from repro.observability.metrics import MetricsRegistry
from repro.observability.profiling import Profiler, active
from repro.observability.spans import SpanRecorder
from repro.observability.timeseries import SAMPLE_CATALOG

#: Unicode block ramp for history sparklines (low -> high).
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Series shown as dashboard sparklines, in display order.
_SPARK_SERIES = (
    "revert_rate",
    "validation_failure_rate",
    "records_live",
    "alerts_firing_count",
    "tick_wall_seconds",
)

#: Ticks of trailing history a sparkline compresses.
_SPARK_WINDOW = 64

#: Character width of a sparkline (buckets are resampled onto this).
_SPARK_CELLS = 32


def sparkline(values: List[float], cells: int = _SPARK_CELLS) -> str:
    """Compress ``values`` into a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > cells:
        # Average consecutive runs onto the cell grid.
        step = len(values) / cells
        resampled = []
        for i in range(cells):
            start = int(i * step)
            stop = max(start + 1, int((i + 1) * step))
            chunk = values[start:stop]
            resampled.append(sum(chunk) / len(chunk))
        values = resampled
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    scale = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[int(round((v - lo) / span * scale))] for v in values
    )

#: State-machine states rendered in lifecycle order.
_STATE_ORDER = (
    "active", "implementing", "validating", "reverting", "retry",
    "success", "reverted", "expired", "error",
)

#: Span kinds that represent tuning work (Section 5.3's sessions).
TUNING_KINDS = ("dta_session", "analysis")


def _fmt_minutes(minutes: float) -> str:
    if minutes >= 60.0:
        return f"{minutes / 60.0:7.1f} h"
    return f"{minutes:7.1f} m"


def render_dashboard(
    registry: MetricsRegistry,
    recorder: SpanRecorder,
    profiler: Optional[Profiler] = None,
    top_n: int = 5,
    watchdog=None,
    history=None,
) -> List[str]:
    """The fleet dashboard as a list of printable lines.

    ``watchdog`` (an :class:`~repro.observability.alerts.AlertWatchdog`)
    adds the firing-alerts panel; without one the panel falls back to
    the ``alerts_firing`` gauges so a replayed registry still shows
    which SLOs were paging.  ``history`` (a
    :class:`~repro.observability.timeseries.TelemetryHistory` or its
    store) adds trailing-window sparkline panels per sampled series.
    """
    profiler = profiler if profiler is not None else active()
    lines: List[str] = ["== fleet telemetry =="]

    # --- firing alerts (the watchdog's pager view) -------------------
    lines.append("alerts:")
    if watchdog is not None:
        firing = watchdog.active()
        if not firing:
            lines.append("  (none firing)")
        for alert in firing:
            lines.append(
                f"  FIRING {alert.rule:<30} value {alert.value:.3f} "
                f">= {alert.threshold:.3f} "
                f"(samples {int(alert.samples)}, raised t+{alert.raised_at:.0f}m)"
            )
    else:
        firing_rules = [
            dict(series.labels).get("rule", "?")
            for series in registry.series_for("alerts_firing")
            if series.metric.value
        ]
        if not firing_rules:
            lines.append("  (none firing)")
        for rule in sorted(firing_rules):
            lines.append(f"  FIRING {rule}")

    # --- state machine counts ----------------------------------------
    lines.append("state machine records:")
    any_state = False
    for state in _STATE_ORDER:
        value = registry.total("records_in_state", state=state)
        if value:
            lines.append(f"  {state:<13} {int(value)}")
            any_state = True
    if not any_state:
        lines.append("  (no recommendation records yet)")

    # --- lifecycle counters and revert rate --------------------------
    created = registry.total("recommendations_created_total")
    creates = registry.total("recommendations_created_total", action="create")
    drops = registry.total("recommendations_created_total", action="drop")
    implemented = registry.total("implementations_completed_total")
    success = registry.total("state_transitions_total", to_state="success")
    reverted = registry.total("state_transitions_total", to_state="reverted")
    decided = success + reverted
    revert_rate = reverted / decided if decided else 0.0
    incidents = registry.total("incidents_total")
    lines.append("lifecycle:")
    lines.append(
        f"  recommendations: {int(created)} "
        f"(create={int(creates)}, drop={int(drops)})"
    )
    lines.append(f"  implemented:     {int(implemented)}")
    lines.append(
        f"  revert rate:     {revert_rate:.1%} "
        f"({int(reverted)} of {int(decided)} decided)"
    )
    lines.append(f"  incidents:       {int(incidents)}")

    # --- vectorized executor (present once any statement dispatched) -
    vector_stmts = registry.total(
        "executor_vector_dispatch_total", path="vector"
    )
    interp_stmts = registry.total(
        "executor_vector_dispatch_total", path="interp"
    )
    dispatched = vector_stmts + interp_stmts
    if dispatched:
        vector_share = vector_stmts / dispatched
        batch_rows = registry.total("executor_batch_rows")
        cache_hits = registry.total("executor_column_cache_hits")
        cache_misses = registry.total("executor_column_cache_misses")
        cache_invalidations = registry.total(
            "executor_column_cache_invalidations"
        )
        cache_delta_rows = registry.total("executor_column_cache_delta_rows")
        cache_lookups = cache_hits + cache_misses
        lines.append("vectorized executor:")
        lines.append(
            f"  statements:      {int(dispatched)} "
            f"(vectorized {vector_share:.1%}, batch rows {int(batch_rows)})"
        )
        # Imported lazily: the engine's btree counts pages through
        # observability.profiling, so this package must not import the
        # engine at module level.
        from repro.engine.exec.dispatch import (
            FALLBACK_GAUGES,
            FALLBACK_REASONS,
        )

        fallback_parts = []
        for reason in FALLBACK_REASONS:
            count = registry.total(  # observability-names: allow-dynamic
                FALLBACK_GAUGES[reason]
            )
            if count:
                fallback_parts.append(f"{reason} {int(count)}")
        if fallback_parts:
            lines.append(
                "  fallbacks:       " + ", ".join(fallback_parts)
            )
        if cache_lookups:
            cache_hit_rate = cache_hits / cache_lookups
            lines.append(
                f"  column cache:    {int(cache_lookups)} lookups "
                f"(hit rate {cache_hit_rate:.1%}, "
                f"folded rows {int(cache_delta_rows)}, "
                f"invalidations {int(cache_invalidations)})"
            )

    # --- what-if pricing (present once any batch was priced) ---------
    batches = registry.total("whatif_batch_batches")
    if batches:
        configurations = registry.total("whatif_batch_configurations")
        substrate_hits = registry.total("whatif_batch_substrate_hits")
        substrate_misses = registry.total("whatif_batch_substrate_misses")
        substrate_lookups = substrate_hits + substrate_misses
        lines.append("what-if pricing:")
        lines.append(
            f"  configurations:  {int(configurations)} priced in "
            f"{int(batches)} batches"
        )
        if substrate_lookups:
            reuse = substrate_hits / substrate_lookups
            lines.append(
                f"  substrates:      {int(substrate_lookups)} lookups "
                f"(reuse {reuse:.1%}, builds {int(substrate_misses)})"
            )

    # --- fleet execution (only present on sharded parallel runs) -----
    databases = registry.total("fleet_databases")
    if databases:
        workers = registry.total("fleet_workers")
        ticks = registry.total("fleet_ticks_total")
        skew = registry.total("fleet_tick_skew_seconds")
        lines.append("fleet execution:")
        lines.append(
            f"  databases:       {int(databases)} across "
            f"{int(workers)} shard worker(s)"
        )
        lines.append(f"  ticks merged:    {int(ticks)}")
        busy_series = registry.series_for("fleet_shard_busy")
        if busy_series:
            busy = [series.metric.value for series in busy_series]
            lines.append(
                f"  shard busy:      {sum(busy):.2f}s total "
                f"(max {max(busy):.2f}s, last-tick skew {skew:.2f}s)"
            )
        phase_series = registry.series_for("fleet_phase_seconds")
        if phase_series:
            coverage = registry.total("fleet_tick_attribution_ratio")
            lines.append(
                f"  tick phases (attribution {coverage:.0%} of last tick):"
            )
            ranked = sorted(
                phase_series,
                key=lambda s: (-s.metric.sum, s.labels),
            )
            for series in ranked:
                phase = dict(series.labels).get("phase", "?")
                metric = series.metric
                mean = metric.sum / metric.count if metric.count else 0.0
                lines.append(
                    f"    {phase:<14} {metric.sum:>9.3f}s total "
                    f"{mean:>8.3f}s mean"
                )

    # --- history sparklines (only when a history store is wired) -----
    if history is not None:
        store = getattr(history, "store", history)
        lines.append(f"history (last {_SPARK_WINDOW} ticks):")
        last = store.last_tick()
        if last is None:
            lines.append("  (no ticks sampled yet)")
        else:
            for name in _SPARK_SERIES:
                samples = store.range(name, max(0, last - _SPARK_WINDOW + 1))
                if not samples:
                    continue
                spark = sparkline([value for _tick, value in samples])
                latest = store.latest(name)
                unit = SAMPLE_CATALOG[name].unit
                if unit == "ratio":
                    shown = f"{latest:.1%}"
                else:
                    shown = f"{latest:.3g} {unit}"
                lines.append(f"  {name:<26} {spark} {shown}")

    # --- slowest tuning sessions -------------------------------------
    lines.append(f"slowest tuning sessions (top {top_n}):")
    slowest = recorder.slowest(TUNING_KINDS, n=top_n)
    if not slowest:
        lines.append("  (no tuning sessions recorded)")
    for rank, span in enumerate(slowest, start=1):
        source = span.attributes.get("source", span.kind)
        lines.append(
            f"  {rank}. {span.database:<12} {str(source):<4} "
            f"{_fmt_minutes(span.duration or 0.0)}  {span.outcome or 'open'}"
        )

    # --- engine hot paths --------------------------------------------
    lines.append("engine hot paths:")
    rows = profiler.rows()
    if not rows:
        lines.append("  (no profiling samples)")
    else:
        lines.append(
            f"  {'path':<26} {'calls':>9} {'real ms':>10} {'sim ms':>12}"
        )
        for row in rows:
            lines.append(
                f"  {row.name:<26} {row.calls:>9} "
                f"{row.real_ms:>10.1f} {row.sim_ms:>12.1f}"
            )
    return lines
