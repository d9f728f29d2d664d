"""Shard workers: per-database planes that buffer their tick output.

Each managed database gets its **own**
:class:`~repro.controlplane.ControlPlane` (local rec ids, local journal
seqs, local audit seqs).  That is what makes the merge order canonical:
a database's stream is identical no matter which shard or backend
executed it, so replaying streams in sorted ``(db_name, seq)`` order
yields one global, byte-stable history.

A :class:`ShardRunner` owns a list of :class:`DatabaseWorker` and runs
one tick over all of them; :func:`shard_worker_main` is the process
entrypoint that builds a runner from a picklable
:class:`~repro.parallel.spec.ShardPayload` and serves tick commands over
a pipe.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from typing import List, Optional

from repro.controlplane import ControlPlane
from repro.observability.profiling import Profiler, use_profiler
from repro.parallel.delta import TickDelta, diff_snapshots, registry_snapshot
from repro.parallel.spec import DatabaseSpec, ShardPayload, SharedSettings
from repro.parallel.timing import ShardTickTrace
from repro.workload.app_profiles import make_profile


class DatabaseWorker:
    """One managed database: profile + its control plane."""

    def __init__(self, spec: DatabaseSpec, shared: SharedSettings) -> None:
        self.spec = spec
        #: Process-local hot-path stats for *this database only*.  Every
        #: backend installs it around its engine work via
        #: :func:`~repro.observability.profiling.use_profiler`, so
        #: shard-side profiling neither leaks into the parent's global
        #: profiler (the old thread/serial double count) nor dies with a
        #: worker process (the old process-backend data loss): rows are
        #: drained into every tick delta and merged at the parent.
        self.profiler = Profiler()
        self.profile = make_profile(
            spec.name,
            seed=spec.profile_seed,
            tier=spec.tier,
            engine_settings=shared.engine_settings,
        )
        self.plane = ControlPlane(
            self.profile.engine.clock,
            spec.name,
            self.profile.engine,
            tier=spec.tier,
            config=spec.config,
            settings=shared.control_settings,
            policy=shared.policy,
            validation_settings=shared.validation_settings,
            mi_settings=shared.mi_settings,
            fault_seed=spec.fault_seed,
        )
        self._journal_cursor = 0
        self._audit_cursor = 0
        self._metric_snapshot = registry_snapshot(self.plane.telemetry.registry)

    def tick(
        self,
        end: float,
        max_statements: Optional[int],
        trace: Optional[ShardTickTrace] = None,
    ) -> TickDelta:
        """Advance the workload to ``end`` (simulated minutes), process
        the plane once, and drain everything emitted."""
        run_started = time.perf_counter()
        with use_profiler(self.profiler):
            self.profile.run_until(end, max_statements)
            self.plane.process(end)
        drain_started = time.perf_counter()
        delta = self._drain()
        drained = time.perf_counter()
        if trace is not None:
            trace.observe_phase(
                "worker_run", self.spec.name, run_started, drain_started
            )
            trace.observe_phase(
                "worker_drain", self.spec.name, drain_started, drained
            )
        return delta

    def _drain(self) -> TickDelta:
        plane = self.plane
        journal = plane.store.journal_since(self._journal_cursor)
        self._journal_cursor += len(journal)
        audit = plane.telemetry.audit.events_since(self._audit_cursor)
        self._audit_cursor += len(audit)
        snapshot = registry_snapshot(plane.telemetry.registry)
        metrics = diff_snapshots(self._metric_snapshot, snapshot)
        self._metric_snapshot = snapshot
        return TickDelta(
            database=self.spec.name,
            journal=list(journal),
            audit=list(audit),
            metrics=metrics,
            hot_paths=self.profiler.drain_rows(),
        )

    def load_classifier(self, state: Optional[dict]) -> None:
        self.plane.classifier.load_state(state)


@dataclasses.dataclass
class ShardResult:
    """One shard's tick output plus its wall-clock cost.

    The ``events`` offsets are relative to the shard's tick start in
    the *shard process's* clock; the parent re-anchors them on its
    own timeline (see :meth:`repro.parallel.timing.TickPhaseTimer
    .absorb_shard`) rather than comparing clock bases across processes.
    """

    deltas: List[TickDelta]
    busy_seconds: float
    shard_index: int = 0
    #: ``(phase, database, start_offset_s, duration_s)`` trace rows.
    events: List[tuple] = dataclasses.field(default_factory=list)


class ShardRunner:
    """Executes ticks for one shard's databases (any backend)."""

    def __init__(self, payload: ShardPayload) -> None:
        self.shard_index = payload.shard_index
        self.instrument = payload.shared.instrument
        self.workers = [
            DatabaseWorker(spec, payload.shared) for spec in payload.databases
        ]

    def tick(
        self,
        end: float,
        max_statements: Optional[int],
        classifier_state: Optional[dict],
    ) -> ShardResult:
        trace = ShardTickTrace() if self.instrument else None
        started = trace.started if trace is not None else time.perf_counter()
        if classifier_state is not None:
            for worker in self.workers:
                worker.load_classifier(classifier_state)
        deltas = [
            worker.tick(end, max_statements, trace) for worker in self.workers
        ]
        return ShardResult(
            deltas=deltas,
            busy_seconds=time.perf_counter() - started,
            shard_index=self.shard_index,
            events=trace.events if trace is not None else [],
        )


def shard_worker_main(conn, payload: ShardPayload) -> None:
    """Process entrypoint: build the shard, then serve tick commands.

    Protocol (all picklable):

    - recv ``("tick", end, max_statements, classifier_state)`` →
      send ``("ok", ShardResult)``;
    - recv ``("stop",)`` → exit.

    Any exception is reported as ``("error", formatted_traceback)`` and
    the worker exits; the pool raises it in the parent.
    """
    try:
        runner = ShardRunner(payload)
        conn.send(("ready", runner.shard_index, len(runner.workers)))
        while True:
            command = conn.recv()
            if command[0] == "stop":
                break
            if command[0] == "tick":
                _cmd, end, max_statements, classifier_state = command
                result = runner.tick(end, max_statements, classifier_state)
                conn.send(("ok", result))
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown command {command[0]!r}"))
                break
    except Exception:  # pragma: no cover - exercised via pool error test
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()
