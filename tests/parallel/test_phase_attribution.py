"""Fleet critical-path profiler: phase timing, attribution, export.

Covers the observability contract of the profiling layer:

- every backend reports every parent- and worker-side phase with
  non-negative durations;
- on the process backend the parent phases explain >= 95% of each
  tick's wall-clock (the attribution-coverage gate);
- merged worker profiler rows are identical serial vs process
  (cross-process propagation loses nothing);
- the Chrome ``trace_event`` export round-trips ``json.loads`` with
  monotonically non-decreasing ``ts`` per track, and carries only
  phase and counter events;
- disabling instrumentation (``--no-profile``) collects nothing and
  never perturbs merged output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.clock import HOURS
from repro.controlplane import ControlPlaneSettings
from repro.observability.trace_export import (
    attribution_summary,
    render_critical_path,
    trace_event_json,
)
from repro.parallel import build_fleet_service
from repro.parallel.timing import (
    PARENT_PHASES,
    PHASE_CATALOG,
    WORKER_PHASES,
    TickPhaseTimer,
)
from repro.errors import TelemetryError
from repro.service import ServiceSettings

WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "4")))


def profiled_run(
    backend: str,
    workers: int,
    hours: float = 8.0,
    seed: int = 3,
):
    service = build_fleet_service(
        3,
        workers=workers,
        backend=backend,
        seed=seed,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=40),
    )
    try:
        service.run(hours)
        return {
            "ticks": list(service.phase_timer.ticks),
            "events": list(service.phase_timer.events),
            "summary": service.attribution(),
            "hot_paths": sorted(
                (s.name, s.calls, s.sim_ms) for s in service.profiler.rows()
            ),
            "doc": trace_event_json(
                service.trace_events(), service.track_names()
            ),
            "registry": service.telemetry.registry,
        }
    finally:
        service.close()


class TestPhaseTimings:
    """Satellite (a): every backend reports the full phase set."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_all_phases_present_and_non_negative(self, backend):
        run = profiled_run(backend, 1 if backend == "serial" else WORKERS)
        assert run["ticks"], "no tick rows recorded"
        totals = run["summary"]["phase_totals"]
        for phase in PARENT_PHASES + WORKER_PHASES:
            assert phase in totals, f"{backend}: phase {phase!r} missing"
            assert totals[phase] >= 0.0
        for row in run["ticks"]:
            assert row["wall_seconds"] > 0.0
            for phase, seconds in row["phases"].items():
                assert phase in PHASE_CATALOG
                assert seconds >= 0.0

    def test_phase_histograms_published(self):
        run = profiled_run("process", WORKERS)
        series = run["registry"].series_for("fleet_phase_seconds")
        phases = {dict(s.labels)["phase"] for s in series}
        assert set(PARENT_PHASES) <= phases
        assert set(WORKER_PHASES) <= phases
        assert run["registry"].total("fleet_tick_attribution_ratio") > 0.9

    def test_unknown_phase_rejected(self):
        timer = TickPhaseTimer()
        timer.begin_tick()
        with pytest.raises(TelemetryError):
            with timer.phase("reticulate"):
                pass


class TestAttributionCoverage:
    """Satellite (b): >= 95% of tick wall-clock explained (process)."""

    def test_process_backend_coverage(self):
        run = profiled_run("process", WORKERS)
        assert run["summary"]["coverage"] >= 0.95
        for row in run["ticks"]:
            assert row["coverage"] >= 0.95, (
                f"tick {row['tick']} attribution {row['coverage']:.1%}"
            )

    def test_worker_phases_do_not_inflate_coverage(self):
        # Coverage counts parent phases only: a summary computed with
        # worker phases included would double-count the wait window.
        run = profiled_run("serial", WORKERS)
        summary = attribution_summary(run["ticks"], PARENT_PHASES)
        covered = summary["covered_seconds"]
        worker_seconds = sum(
            summary["phase_totals"].get(p, 0.0) for p in WORKER_PHASES
        )
        assert worker_seconds > 0.0
        assert covered <= summary["wall_seconds"] * 1.02


class TestCrossProcessPropagation:
    """Satellite (c): serial vs process merged profiler rows identical."""

    def test_hot_paths_byte_identical(self):
        serial = profiled_run("serial", 1, hours=30.0)
        process = profiled_run("process", WORKERS, hours=30.0)
        assert serial["hot_paths"] == process["hot_paths"]
        assert serial["hot_paths"], "profiler rows did not propagate"


class TestTraceExport:
    """Satellite (d): trace_event JSON round-trips, monotonic per track."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_round_trip_and_monotonic_ts(self, backend):
        run = profiled_run(backend, 1 if backend == "serial" else WORKERS)
        doc = json.loads(json.dumps(run["doc"]))
        assert doc["displayTimeUnit"] == "ms"
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events, "no complete events exported"
        per_track = {}
        for event in events:
            per_track.setdefault(event["tid"], []).append(event["ts"])
            assert event["dur"] >= 0.0
            assert event["pid"] == 1
        for tid, stamps in per_track.items():
            assert stamps == sorted(stamps), f"track {tid} ts not monotonic"
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any("parent" in n for n in names)

    def test_process_trace_has_only_phase_and_counter_events(self):
        # Tick phases and history samples are the whole timeline: no
        # other event category reaches the export.
        run = profiled_run("process", WORKERS)
        categories = {
            e["cat"] for e in run["doc"]["traceEvents"] if e["ph"] != "M"
        }
        assert categories == {"phase", "counter"}

    def test_render_critical_path_mentions_coverage(self):
        run = profiled_run("serial", WORKERS)
        lines = render_critical_path(
            run["summary"], backend="serial", workers=WORKERS
        )
        text = "\n".join(lines)
        assert "attribution coverage" in text
        assert "Amdahl" in text


class TestNoProfileEscapeHatch:
    """``--no-profile``: collect nothing, change nothing."""

    def test_instrument_off_collects_nothing(self):
        service = build_fleet_service(
            2,
            workers=2,
            backend="process",
            instrument=False,
            seed=3,
            service_settings=ServiceSettings(max_statements_per_step=40),
        )
        try:
            service.run(4.0)
            assert service.phase_timer.ticks == []
            assert service.phase_timer.events == []
            assert not service.telemetry.registry.series_for(
                "fleet_phase_seconds"
            )
            # Hot paths still propagate: they ride the delta, not the
            # instrumentation flag.
            assert service.profiler.rows()
        finally:
            service.close()

    def test_instrument_flag_does_not_perturb_output(self):
        def audit(instrument: bool) -> str:
            service = build_fleet_service(
                2,
                workers=2,
                backend="serial",
                instrument=instrument,
                seed=9,
                service_settings=ServiceSettings(max_statements_per_step=40),
            )
            try:
                service.run(6.0)
                return service.telemetry.audit.to_jsonl()
            finally:
                service.close()

        assert audit(True) == audit(False)


class TestProfileCli:
    def test_repro_profile_smoke(self, tmp_path):
        trace = tmp_path / "trace.json"
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "profile",
                "--dbs", "2", "--ticks", "2", "--workers", "2",
                "--backend", "process", "--trace-out", str(trace),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert "fleet critical path" in result.stdout
        assert "attribution coverage" in result.stdout
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]

    def test_repro_profile_no_profile(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "profile",
                "--dbs", "2", "--ticks", "1", "--no-profile",
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert "profiling disabled" in result.stdout
