"""Fleet-parallel control plane: sharded workers + deterministic merge.

The paper operates the auto-indexing loop over *millions* of databases
per region; stepping them serially in one thread leaves every other core
idle.  Because each managed database owns an independent engine,
workload, and recommendation state machine, the per-tick work is
embarrassingly parallel.  This package shards the fleet across a worker
pool (one process per shard, or inline as the serial reference), runs
each virtual-time tick's per-database work concurrently, and merges the
results **deterministically**: every worker buffers its journal entries,
audit events, metric deltas and hot-path rows per
database, and the region service replays them in stable
``(db_name, seq)`` order — so a parallel run is byte-identical to a
serial run under the same seed.

Entry points:

- :class:`ShardedFleetService` — the one region service
  (``repro run --workers N`` on the CLI);
- :class:`ParallelSettings` — worker count + backend selection;
- :func:`build_fleet_service` — the service with N shards on a backend;
  :func:`repro.service.build_service` is the same on the serial backend.
"""

from repro.parallel.delta import (
    TickDelta,
    apply_metric_diff,
    diff_snapshots,
    registry_snapshot,
)
from repro.parallel.merge import DeterministicMerger
from repro.parallel.pool import make_pool
from repro.parallel.service import ShardedFleetService, build_fleet_service
from repro.parallel.settings import ParallelSettings
from repro.parallel.spec import DatabaseSpec, SharedSettings, ShardPayload
from repro.parallel.timing import (
    PARENT_PHASES,
    PHASE_CATALOG,
    WORKER_PHASES,
    ShardTickTrace,
    TickPhaseTimer,
)
from repro.parallel.worker import DatabaseWorker, ShardRunner

__all__ = [
    "DatabaseSpec",
    "DatabaseWorker",
    "DeterministicMerger",
    "PARENT_PHASES",
    "PHASE_CATALOG",
    "ParallelSettings",
    "ShardPayload",
    "ShardRunner",
    "ShardTickTrace",
    "SharedSettings",
    "ShardedFleetService",
    "TickDelta",
    "TickPhaseTimer",
    "WORKER_PHASES",
    "apply_metric_diff",
    "build_fleet_service",
    "diff_snapshots",
    "make_pool",
    "registry_snapshot",
]
