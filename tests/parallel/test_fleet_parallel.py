"""Fleet-parallel service: determinism across backends, and the glue.

The hard guarantee under test: for the same fleet seed, the sharded
service produces **byte-identical** merged output — audit JSONL, store
journal, recovered record states, tuning-session histograms — no matter
which backend (serial / process) or worker count executed the ticks.  Alongside it,
the fleet-pool safety contracts: shard-crash detection, leak-free
partial construction, busy attribution keyed by shard index, the capped
tick-wall window, and out-of-order merge determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import HOURS
from repro.controlplane import ControlPlaneSettings, control_plane
from repro.engine.engine import EngineSettings
from repro.errors import ShardCrashError
from repro.parallel import ParallelSettings, build_fleet_service
from repro.parallel.service import ShardedFleetService
from repro.parallel.settings import BACKENDS
from repro.parallel.spec import (
    DatabaseSpec,
    ShardPayload,
    SharedSettings,
    database_specs,
)
from repro.parallel.worker import ShardResult
from repro.service import ServiceSettings


#: Worker count for the parallel side of the equivalence tests.  The CI
#: matrix includes a ``REPRO_TEST_WORKERS=2`` variant so the suite is
#: exercised at more than one sharding width.
WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "4")))


def run_fleet(
    backend: str,
    workers: int,
    n_databases: int = 3,
    hours: float = 48.0,
    seed: int = 11,
    prepare=None,
    tier: str = "standard",
    engine_settings=None,
):
    service = build_fleet_service(
        n_databases,
        workers=workers,
        backend=backend,
        seed=seed,
        tier=tier,
        engine_settings=engine_settings,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=60),
    )
    try:
        if prepare is not None:
            prepare(service)
        service.run(hours)
        return {
            "jsonl": service.telemetry.audit.to_jsonl(),
            "journal": [
                (e.seq, e.op, e.rec_id, e.at, json.dumps(e.payload, sort_keys=True, default=str))
                for e in service.store.journal()
            ],
            "recovered": {
                r.rec_id: (r.database, r.state.name, tuple(r.state_history))
                for r in service.store.recover().all_records()
            },
            "tuning_sessions": [
                (s.labels, s.metric.count, s.metric.sum, s.metric.max)
                for s in service.telemetry.registry.series_for(
                    "tuning_session_duration_minutes"
                )
            ],
            "history": service.validation_history,
            "incidents": service.incidents,
            # Deterministic projection of the merged hot-path rows:
            # calls and simulated cost must match across backends
            # (wall-clock real_seconds, by nature, cannot).
            "hot_paths": sorted(
                (s.name, s.calls, s.sim_ms)
                for s in service.profiler.rows()
            ),
            # Telemetry history minus the wall-flagged series (tick
            # wall time is host-dependent by design); everything else
            # must be byte-identical across backends.
            "telemetry_history": "".join(
                line + "\n"
                for line in service.history.store.to_jsonl().splitlines()
                if '"series": "tick_wall_seconds"' not in line
            ),
            "anomalies": [
                (a.series, a.tick, a.value, a.zscore)
                for a in service.history.anomalies
            ],
            "history_retained": service.history.store.retained_samples(),
            "history_capacity": service.history.store.capacity(),
            "history_ticks": service.history.ticks,
        }
    finally:
        service.close()


class TestBackendEquivalence:
    """One moderate run per backend, compared stream by stream."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_fleet("serial", 1)

    def test_process_backend_matches_serial(self, serial):
        processed = run_fleet("process", WORKERS)
        assert processed["jsonl"] == serial["jsonl"]
        assert processed["journal"] == serial["journal"]
        assert processed["recovered"] == serial["recovered"]
        assert processed["tuning_sessions"] == serial["tuning_sessions"]
        assert processed["history"] == serial["history"]
        assert processed["incidents"] == serial["incidents"]
        assert processed["hot_paths"] == serial["hot_paths"]
        assert processed["telemetry_history"] == serial["telemetry_history"]
        assert processed["anomalies"] == serial["anomalies"]

    def test_history_sampled_every_tick_within_bounds(self, serial):
        assert serial["history_ticks"] > 0
        assert serial["telemetry_history"], "no history sampled"
        assert serial["history_retained"] <= serial["history_capacity"]

    def test_profiler_saw_engine_work(self, serial):
        names = [name for name, _calls, _sim in serial["hot_paths"]]
        assert "engine_execute" in names

    def test_run_produced_real_work(self, serial):
        assert serial["recovered"], "no recommendations were generated"
        assert serial["jsonl"].count("\n") > 20
        assert serial["tuning_sessions"], "no tuning sessions observed"


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_serial_vs_parallel_identical(seed):
    """For any fleet seed: a serial run and a multi-worker run produce
    identical audit JSONL dumps and identical recovered store state."""
    serial = run_fleet("serial", 1, n_databases=2, hours=12.0, seed=seed)
    parallel = run_fleet("process", WORKERS, n_databases=2, hours=12.0, seed=seed)
    assert parallel["jsonl"] == serial["jsonl"]
    assert parallel["recovered"] == serial["recovered"]
    assert parallel["hot_paths"] == serial["hot_paths"]


class TestFleetGauges:
    def test_fleet_metrics_populated(self):
        service = build_fleet_service(
            2,
            workers=2,
            backend="process",
            seed=5,
            service_settings=ServiceSettings(max_statements_per_step=40),
        )
        try:
            service.run(6)
            registry = service.telemetry.registry
            assert registry.total("fleet_databases") == 2
            assert registry.total("fleet_workers") == 2
            assert registry.total("fleet_ticks_total") == 3
            assert registry.total("fleet_merge_queue_depth") == 2
            assert len(registry.series_for("fleet_shard_busy")) == 2
            assert service.ticks_completed == 3
        finally:
            service.close()


class TestClassifierBroadcast:
    def test_state_reaches_workers_on_next_tick(self):
        service = build_fleet_service(
            2, workers=2, backend="serial", seed=5
        )
        try:
            state = {
                "weights": [0.1, -0.2, 0.3, 0.0, 0.5],
                "trained_on": 64,
                "threshold": 0.3,
                "min_training_examples": 30,
            }
            service._pending_classifier_state = state
            service.run(2)  # one tick: dispatch carries the state
            for runner in service.pool.runners:
                for worker in runner.workers:
                    assert worker.plane.classifier.is_trained
                    assert worker.plane.classifier.trained_on == 64
        finally:
            service.close()


class TestFaultedRunMergesAttempts:
    def test_region_attempts_match_the_audit_chain(self):
        """Regression: retries bumped ``attempts`` outside the journal,
        so the region store of every sharded run reported 0."""
        service = build_fleet_service(
            2,
            workers=2,
            backend="serial",
            seed=11,
            control_settings=ControlPlaneSettings(
                snapshot_period=2 * HOURS, analysis_period=8 * HOURS
            ),
            service_settings=ServiceSettings(max_statements_per_step=60),
        )
        try:
            for runner in service.pool.runners:
                for worker in runner.workers:
                    worker.plane.faults.configure("implement", transient=0.7)
            service.run(48.0)
            retried = 0
            for record in service.store.all_records():
                # ``retry_scheduled.attempt``, or ``error_raised.attempts``
                # when the last retry exhausted the budget.
                counted = [
                    event.payload.get("attempt", event.payload.get("attempts"))
                    for event in service.audit.chain(record.rec_id)
                    if event.event_type in ("retry_scheduled", "error_raised")
                ]
                assert record.attempts == (counted[-1] if counted else 0)
                retried += bool(counted)
            assert retried, "the injected faults never scheduled a retry"
        finally:
            service.close()


class TestSpecsAndSettings:
    def test_specs_mirror_fleet_naming_and_seeding(self):
        from repro.fleet import Fleet, FleetSpec

        specs = database_specs(3, tier="premium", seed=9)
        fleet = Fleet(FleetSpec(n_databases=3, tier="premium", seed=9))
        assert [s.name for s in specs] == [p.name for p in fleet]
        assert [s.profile_seed for s in specs] == [
            9 * 1_000_003 + i for i in range(3)
        ]

    def test_worker_plane_is_built_around_its_database(self, monkeypatch):
        """A worker's plane carries its spec's database and the profile's
        engine; its four jobs fire in scheduling order when due together,
        and look the service method up when they fire, so a class-level
        wrapper installed after construction (the end-to-end tracer's)
        sees every call."""
        from repro.controlplane import AutoIndexingConfig, AutoMode
        from repro.controlplane.services.health_service import HealthService
        from repro.controlplane.services.recommend_service import (
            RecommendationService,
        )
        from repro.parallel.worker import DatabaseWorker

        config = AutoIndexingConfig(
            create_mode=AutoMode.RECOMMEND_ONLY, inherited=False
        )
        spec = DatabaseSpec(
            name="db-premium-0", profile_seed=7, tier="premium",
            fault_seed=1, config=config,
        )
        period = 1 * HOURS
        monkeypatch.setattr(control_plane, "HEALTH_PERIOD", period)
        worker = DatabaseWorker(spec, SharedSettings(
            control_settings=ControlPlaneSettings(
                snapshot_period=period,
                analysis_period=period,
                drop_analysis_period=period,
            ),
        ))
        plane = worker.plane
        assert (plane.name, plane.tier) == ("db-premium-0", "premium")
        assert plane.config is config
        assert plane.engine is worker.profile.engine

        fired = []
        for cls, method in (
            (RecommendationService, "snapshot"),
            (RecommendationService, "analyze"),
            (RecommendationService, "analyze_drops"),
            (HealthService, "check"),
        ):
            monkeypatch.setattr(
                cls, method,
                lambda _self, _plane, at, method=method: fired.append(
                    (method, at)
                ),
            )
        due = plane.clock.now + period
        plane.process(due - 1.0)
        assert fired == []
        plane.process(due)
        assert fired == [
            ("snapshot", due),
            ("analyze", due),
            ("analyze_drops", due),
            ("check", due),
        ]

    def test_parallel_settings_validation(self):
        with pytest.raises(ValueError):
            ParallelSettings(backend="gpu")
        with pytest.raises(ValueError):
            ParallelSettings(workers=-1)
        assert ParallelSettings(workers=0).effective_backend == "serial"
        assert ParallelSettings(workers=1).effective_backend == "serial"
        assert ParallelSettings(workers=4).effective_backend == "process"
        assert (
            ParallelSettings(workers=4, backend="serial").effective_backend
            == "serial"
        )
        assert BACKENDS == ("auto", "serial", "process")
        with pytest.raises(ValueError):
            ParallelSettings(backend="thread")
        assert [f.name for f in dataclasses.fields(ParallelSettings)] == [
            "workers", "backend", "instrument",
        ]


def run_pinned(backend, workers, vector_min_rows, **kwargs):
    """``run_fleet`` with the SELECT path forced: 0 vectorizes every
    supported plan, ``sys.maxsize`` interprets them all."""
    pin = EngineSettings()
    pin.execution.vector_min_rows = vector_min_rows
    return run_fleet(backend, workers, engine_settings=pin, **kwargs)


class TestExecutorModeDeterminism:
    """The execution path must not perturb any determinism stream.

    The vectorized executor charges the same meters and draws the same
    RNG values as the interpreter, so the merged audit stream — hashed,
    the repo's determinism gate — must be byte-identical (a) between
    serial and sharded runs with every supported plan vectorized and (b)
    between the two paths on the same fleet seed.
    """

    @staticmethod
    def _audit_sha256(streams) -> str:
        import hashlib

        return hashlib.sha256(streams["jsonl"].encode("utf-8")).hexdigest()

    def test_vector_serial_matches_sharded(self):
        kwargs = dict(n_databases=2, hours=24.0, seed=7)
        serial = run_pinned("serial", 1, 0, **kwargs)
        sharded = run_pinned("serial", WORKERS, 0, **kwargs)
        assert self._audit_sha256(sharded) == self._audit_sha256(serial)
        assert sharded == serial  # every stream, not just the audit hash

    def test_vector_and_interp_streams_identical(self):
        kwargs = dict(n_databases=2, hours=24.0, seed=7)
        interp = run_pinned("serial", 1, sys.maxsize, **kwargs)
        vector = run_pinned("serial", 1, 0, **kwargs)
        assert self._audit_sha256(vector) == self._audit_sha256(interp)
        # Hot-path profiles describe *how* the host executed (the vector
        # path ticks vector_batch, skips interpreter counters), so they
        # are the one stream allowed to differ across paths.
        interp.pop("hot_paths")
        vector.pop("hot_paths")
        assert vector == interp

    def test_vector_join_heavy_fleet_deterministic(self):
        """Premium-tier fleets lean on the analytics archetype — hash
        joins, group-bys, and report queries plus the usual DML — so
        this run exercises the vectorized join and grouped index
        maintenance end to end.  The audit hash must hold both across
        paths and across backends (the pin travels to worker processes).
        """
        kwargs = dict(n_databases=2, hours=24.0, seed=13, tier="premium")
        interp = run_pinned("serial", 1, sys.maxsize, **kwargs)
        vector = run_pinned("serial", 1, 0, **kwargs)
        sharded = run_pinned("process", WORKERS, 0, **kwargs)
        assert self._audit_sha256(vector) == self._audit_sha256(interp)
        assert self._audit_sha256(sharded) == self._audit_sha256(vector)
        assert sharded == vector  # every stream, including hot paths
        # Hot-path rows are path-specific by design; everything else
        # must be byte-identical between the two paths.
        interp.pop("hot_paths")
        vector.pop("hot_paths")
        assert vector == interp


class TestWhatIfModeDeterminism:
    """What-if pricing must not perturb any determinism stream.

    Substrates and their per-definition memos are shared within an
    engine, and engines land on different workers under different
    backends, so the merged audit stream must be byte-identical for
    serial-1, serial-N and process-N.
    """

    @staticmethod
    def _audit_sha256(streams) -> str:
        import hashlib

        return hashlib.sha256(streams["jsonl"].encode("utf-8")).hexdigest()

    def test_batch_mode_equal_across_backends(self):
        serial = run_fleet("serial", 1, n_databases=2, hours=24.0, seed=7)
        sharded = run_fleet("serial", WORKERS, n_databases=2, hours=24.0, seed=7)
        process = run_fleet(
            "process", WORKERS, n_databases=2, hours=24.0, seed=7
        )
        reference = self._audit_sha256(serial)
        assert self._audit_sha256(sharded) == reference
        assert self._audit_sha256(process) == reference
        assert sharded == serial
        assert process == serial


class TestShardCrash:
    """A killed shard surfaces as ShardCrashError, not a raw EOFError,
    and the surviving pool is reaped before the error propagates."""

    def test_kill_mid_run(self):
        service = build_fleet_service(
            2,
            workers=2,
            backend="process",
            seed=3,
            service_settings=ServiceSettings(max_statements_per_step=40),
        )
        try:
            victim = service.pool._processes[1]
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(ShardCrashError) as excinfo:
                service.run(12.0)
            assert excinfo.value.shard_index == 1
            assert excinfo.value.last_command == "tick"
            assert "shard 1" in str(excinfo.value)
            assert service.pool._processes == []
            assert service.pool._connections == []
        finally:
            service.close()  # idempotent after the crash cleanup


class TestConstructionSafety:
    """Construction failures after process spawn must reap the workers."""

    def test_service_init_failure_reaps_pool(self, monkeypatch):
        import repro.parallel.service as service_module

        pools = []
        real_make_pool = service_module.make_pool

        def recording_make_pool(*args, **kwargs):
            pool = real_make_pool(*args, **kwargs)
            pools.append(pool)
            return pool

        monkeypatch.setattr(service_module, "make_pool", recording_make_pool)

        class Exploding(ShardedFleetService):
            def _finish_init(self):
                raise RuntimeError("post-pool construction failure")

        with pytest.raises(RuntimeError, match="post-pool"):
            Exploding(
                2,
                parallel=ParallelSettings(workers=2, backend="process"),
                seed=3,
            )
        assert len(pools) == 1
        assert pools[0]._processes == []
        assert pools[0]._connections == []

    def test_worker_startup_failure_reaps_spawned_processes(self):
        import multiprocessing

        from repro.parallel.pool import ProcessPool

        shared = SharedSettings()
        payloads = [
            ShardPayload(
                shard_index=0,
                databases=[
                    DatabaseSpec(
                        name="db-ok-0", profile_seed=1, tier="standard",
                        fault_seed=1,
                    )
                ],
                shared=shared,
            ),
            ShardPayload(
                shard_index=1,
                databases=[
                    DatabaseSpec(
                        name="db-bad-0", profile_seed=1, tier="no-such-tier",
                        fault_seed=1,
                    )
                ],
                shared=shared,
            ),
        ]
        with pytest.raises((RuntimeError, ShardCrashError)):
            ProcessPool(payloads)
        for child in multiprocessing.active_children():
            assert "repro" not in (child.name or ""), (
                f"leaked shard process {child!r}"
            )


class TestBusyAttribution:
    """fleet_shard_busy is keyed by each result's own shard index."""

    def test_out_of_order_results_attribute_correctly(self):
        service = build_fleet_service(
            3,
            workers=3,
            backend="serial",
            seed=5,
            service_settings=ServiceSettings(max_statements_per_step=40),
        )
        try:
            shuffled = [
                ShardResult(deltas=[], busy_seconds=4.0, shard_index=2),
                ShardResult(deltas=[], busy_seconds=1.0, shard_index=0),
                ShardResult(deltas=[], busy_seconds=2.0, shard_index=1),
            ]
            service._account_busy(shuffled)
            registry = service.telemetry.registry
            for index, expected in ((0, 1.0), (1, 2.0), (2, 4.0)):
                gauge = registry.gauge("fleet_shard_busy", shard=str(index))
                assert gauge.value == pytest.approx(expected)
                assert service._shard_busy[index] == pytest.approx(expected)
            assert registry.gauge(
                "fleet_tick_skew_seconds"
            ).value == pytest.approx(3.0)
        finally:
            service.close()


class TestTickWallWindow:
    """Per-tick wall time is kept as totals plus a streaming histogram."""

    def test_totals_and_histogram_keep_whole_run_truth(self):
        service = build_fleet_service(1, workers=1, backend="serial", seed=0)
        try:
            n = 4596
            for _ in range(n):
                service._observe_tick_wall(0.001)
            assert service.ticks_completed == n
            assert service.tick_wall_total == pytest.approx(n * 0.001)
            histogram = service.telemetry.registry.histogram(
                "fleet_tick_wall_seconds"
            )
            assert histogram.count == n
        finally:
            service.close()


class TestOutOfOrderMergeDeterminism:
    """Shuffled delta order entering the merge changes nothing merged."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_shuffled_deltas_byte_identical(self, backend):
        workers = 1 if backend == "serial" else WORKERS
        reference = run_fleet(backend, workers, hours=12.0)

        rng = random.Random(0xC0FFEE)

        def shuffling(service):
            merger = service.merger
            original = merger.merge

            def merge(deltas):
                shuffled = list(deltas)
                rng.shuffle(shuffled)
                return original(shuffled)

            merger.merge = merge

        shuffled = run_fleet(backend, workers, hours=12.0, prepare=shuffling)
        assert (
            hashlib.sha256(shuffled["jsonl"].encode()).hexdigest()
            == hashlib.sha256(reference["jsonl"].encode()).hexdigest()
        )
        assert shuffled["recovered"] == reference["recovered"]
        assert shuffled["journal"] == reference["journal"]
        assert shuffled["tuning_sessions"] == reference["tuning_sessions"]


class TestCli:
    def test_repro_run_smoke(self, tmp_path):
        out = tmp_path / "audit.jsonl"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "run",
                "--dbs",
                "2",
                "--days",
                "1",
                "--workers",
                "2",
                "--backend",
                "process",
                "--audit-out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert "fleet-parallel loop" in result.stdout
        assert "day 1:" in result.stdout
        assert out.exists() and out.read_text().strip()
