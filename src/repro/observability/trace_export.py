"""Chrome/Perfetto ``trace_event`` export and critical-path rendering.

The fleet-parallel service times every tick phase on both sides of the
process pipe (:mod:`repro.parallel.timing`) and samples its telemetry
history after every merge.  This module renders that data three ways:

- :func:`trace_event_json` — the Chrome ``trace_event`` JSON format
  (loadable in Perfetto / ``chrome://tracing``): one track per worker
  process plus a parent control-plane track, phase brackets as complete
  ("X") events and history samples as counter events;
- :func:`attribution_summary` — per-phase totals, the share of tick
  wall-clock the phase timers explain (the attribution-coverage figure),
  and a serial-fraction / Amdahl ceiling estimate;
- :func:`render_critical_path` — the ``repro profile`` table: top phases
  and hot paths by exclusive wall time.

Everything here is presentation over already-collected data: no clocks
are read, so rendering the same collected run twice is byte-stable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.observability.profiling import HotPathStat

#: Track index of the parent (dispatch + merge) timeline.
PARENT_TRACK = 0


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One complete event on one track, in seconds since the run epoch."""

    track: int  # 0 = parent control plane, 1 + shard_index = worker
    name: str
    ts: float  # seconds since the profiling epoch
    dur: float  # seconds (0.0 for counter samples)
    category: str  # "phase" | "counter"
    args: Dict[str, object] = dataclasses.field(default_factory=dict)


def default_track_name(track: int) -> str:
    if track == PARENT_TRACK:
        return "control plane (parent)"
    return f"shard-{track - 1} worker"


def history_counter_events(
    samples: Sequence[tuple],
    track: int = PARENT_TRACK,
) -> List[TraceEvent]:
    """Telemetry-history samples as Perfetto counter-track events.

    ``samples`` is a sequence of ``(wall_ts_seconds, {series: value})``
    pairs as collected by the fleet service at each finalize; each
    series renders as its own ``history:<series>`` counter track over
    the parent timeline.
    """
    events = []
    for ts, values in samples:
        for series in sorted(values):
            events.append(
                TraceEvent(
                    track=track,
                    name=f"history:{series}",
                    ts=ts,
                    dur=0.0,
                    category="counter",
                    args={"value": values[series]},
                )
            )
    return events


def trace_event_json(
    events: Sequence[TraceEvent],
    track_names: Optional[Dict[int, str]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> dict:
    """The Chrome ``trace_event`` document for a collected run.

    Events are emitted sorted by ``(track, ts, dur)`` so every track's
    timestamps are monotonically non-decreasing — a property the test
    suite asserts and Perfetto's importer is happiest with.  Timestamps
    are microseconds (the format's unit).
    """
    track_names = track_names or {}
    trace_events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro fleet control plane"},
        }
    ]
    for track in sorted({e.track for e in events}):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": track,
                "args": {
                    "name": track_names.get(track, default_track_name(track))
                },
            }
        )
    ordered = sorted(events, key=lambda e: (e.track, e.ts, e.dur, e.name))
    for event in ordered:
        if event.category == "counter":
            # Counter ("C") events render as value-over-time counter
            # tracks in Perfetto; they carry a sample, not a duration.
            trace_events.append(
                {
                    "name": event.name,
                    "cat": event.category,
                    "ph": "C",
                    "pid": 1,
                    "tid": event.track,
                    "ts": round(event.ts * 1e6, 3),
                    "args": event.args,
                }
            )
            continue
        trace_events.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "X",
                "pid": 1,
                "tid": event.track,
                "ts": round(event.ts * 1e6, 3),
                "dur": round(event.dur * 1e6, 3),
                "args": event.args,
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


# ----------------------------------------------------------------------
# Attribution math


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def attribution_summary(
    tick_rows: Sequence[dict],
    parent_phases: Sequence[str],
    parallel_phase: str = "wait",
) -> dict:
    """Aggregate per-tick phase rows into the attribution figure.

    ``tick_rows`` is :attr:`repro.parallel.timing.TickPhaseTimer.ticks`:
    one ``{"wall_seconds": float, "phases": {phase: seconds}}`` row per
    tick.  Coverage counts only the **parent-side** phases (they
    partition the tick); worker-side phases run nested inside
    ``parallel_phase`` and are reported but never double-counted.

    The serial fraction treats ``parallel_phase`` (the time the parent
    spends blocked on concurrently-executing shards) as the only
    parallelizable portion; Amdahl's law then bounds the achievable
    speedup at ``1 / serial_fraction``.
    """
    wall = sum(row["wall_seconds"] for row in tick_rows)
    totals: Dict[str, float] = {}
    per_phase: Dict[str, List[float]] = {}
    for row in tick_rows:
        for phase, seconds in row["phases"].items():
            totals[phase] = totals.get(phase, 0.0) + seconds
            per_phase.setdefault(phase, []).append(seconds)
    covered = sum(totals.get(phase, 0.0) for phase in parent_phases)
    coverage = covered / wall if wall else 0.0
    parallel_seconds = totals.get(parallel_phase, 0.0)
    parallel_fraction = parallel_seconds / wall if wall else 0.0
    serial_fraction = max(0.0, 1.0 - parallel_fraction)
    return {
        "ticks": len(tick_rows),
        "wall_seconds": wall,
        "phase_totals": dict(sorted(totals.items())),
        "phase_p95": {
            phase: _percentile(values, 0.95)
            for phase, values in sorted(per_phase.items())
        },
        "covered_seconds": covered,
        "coverage": coverage,
        "parallel_phase": parallel_phase,
        "parallel_fraction": parallel_fraction,
        "serial_fraction": serial_fraction,
        "amdahl_max_speedup": (
            1.0 / serial_fraction if serial_fraction > 0 else float("inf")
        ),
    }


def render_critical_path(
    summary: dict,
    hot_paths: Optional[Sequence[HotPathStat]] = None,
    top_n: int = 10,
    backend: str = "",
    workers: int = 0,
) -> List[str]:
    """The ``repro profile`` critical-path table as printable lines."""
    header = "== fleet critical path"
    if backend:
        header += f" ({workers} {backend} worker(s))"
    header += " =="
    lines = [header]
    wall = summary["wall_seconds"]
    ticks = summary["ticks"] or 1
    lines.append(
        f"  {'phase':<14} {'total s':>9} {'mean s':>9} {'p95 s':>9} "
        f"{'share':>7}"
    )
    ranked = sorted(
        summary["phase_totals"].items(), key=lambda kv: (-kv[1], kv[0])
    )
    for phase, total in ranked:
        share = total / wall if wall else 0.0
        lines.append(
            f"  {phase:<14} {total:>9.3f} {total / ticks:>9.3f} "
            f"{summary['phase_p95'].get(phase, 0.0):>9.3f} {share:>6.1%}"
        )
    lines.append(
        "  (worker_* phases run concurrently inside 'wait' across all "
        "workers, so their share of wall-clock may exceed 100%)"
    )
    lines.append(
        f"  attribution coverage: {summary['coverage']:.1%} of "
        f"{wall:.2f}s tick wall-clock across {summary['ticks']} tick(s)"
    )
    lines.append(
        f"  parallel ({summary['parallel_phase']}) fraction: "
        f"{summary['parallel_fraction']:.1%}  serial fraction: "
        f"{summary['serial_fraction']:.1%}  Amdahl max speedup: "
        + (
            f"{summary['amdahl_max_speedup']:.1f}x"
            if summary["amdahl_max_speedup"] != float("inf")
            else "unbounded"
        )
    )
    if hot_paths:
        lines.append(f"  hot paths (merged across workers, top {top_n}):")
        lines.append(
            f"    {'path':<26} {'calls':>9} {'real ms':>10} {'sim ms':>12}"
        )
        for row in list(hot_paths)[:top_n]:
            lines.append(
                f"    {row.name:<26} {row.calls:>9} "
                f"{row.real_ms:>10.1f} {row.sim_ms:>12.1f}"
            )
    return lines
