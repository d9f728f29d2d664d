"""The deterministic merge: per-database streams → one global history.

Workers emit per-database streams keyed by *local* ids (rec ids,
journal seqs, audit seqs).  The merger replays them into the region
service's store/audit/registry in **stable order**: deltas
sorted by database name, each database's stream in its own emission
(seq) order.  Global ids are assigned during replay, so two runs that
produce the same per-database streams — which sharding guarantees,
because every database's work is seeded and independent — produce
byte-identical global output regardless of worker count or backend.

Ordering guarantee, precisely: within one tick, database A's entire
stream lands before database B's iff ``A < B`` lexicographically;
across ticks, tick T lands before tick T+1.  Journal entries are
replayed before the same database's audit events so that events
referencing records inserted in the same tick always find their global
id already assigned.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.controlplane.store import StateStore
from repro.errors import TelemetryError
from repro.observability.audit import AuditLog
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiling import Profiler
from repro.parallel.delta import TickDelta, apply_metric_diff


class DeterministicMerger:
    """Replays sorted per-database tick deltas into region-level state."""

    def __init__(
        self,
        store: StateStore,
        audit: AuditLog,
        registry: MetricsRegistry,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.store = store
        self.audit = audit
        self.registry = registry
        #: Region-level profiler that absorbs worker hot-path rows.  The
        #: rows arrive pre-sorted by name and deltas merge in stable db
        #: order, so the float accumulation order — hence the aggregate —
        #: is identical across backends and worker counts.
        self.profiler = profiler
        #: (database, local rec_id) -> global rec_id, stable for the run.
        self.rec_ids: Dict[Tuple[str, int], int] = {}
        self._next_rec_id = itertools.count(1)

    # ------------------------------------------------------------------

    def merge(self, deltas: List[TickDelta]) -> None:
        """Merge one tick's deltas (any arrival order) deterministically."""
        for delta in sorted(deltas, key=lambda d: d.database):
            self._merge_one(delta)

    def _merge_one(self, delta: TickDelta) -> None:
        database = delta.database
        for entry in delta.journal:
            if entry.op == "insert":
                global_id = next(self._next_rec_id)
                self.rec_ids[(database, entry.rec_id)] = global_id
            else:
                global_id = self._require_rec_id(database, entry.rec_id)
            self.store.ingest(entry.op, entry.at, global_id, entry.payload)
        for event in delta.audit:
            rec_id = (
                self._require_rec_id(database, event.rec_id)
                if event.rec_id is not None
                else None
            )
            self.audit.emit(  # observability-names: allow-dynamic
                event.at,
                event.event_type,
                event.database,
                rec_id=rec_id,
                **event.payload,
            )
        apply_metric_diff(self.registry, delta.metrics)
        if self.profiler is not None:
            for row in delta.hot_paths:
                name, calls, real_seconds, sim_ms = row
                self.profiler.absorb(
                    name, calls, real_seconds, sim_ms=sim_ms
                )

    # ------------------------------------------------------------------

    def _require_rec_id(self, database: str, local: int) -> int:
        mapped = self.rec_ids.get((database, local))
        if mapped is None:
            raise TelemetryError(
                f"merge saw rec_id {local} of {database!r} before its "
                "journal insert — shard stream out of order"
            )
        return mapped
