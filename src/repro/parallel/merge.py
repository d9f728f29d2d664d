"""The deterministic merge: per-database streams → one global history.

Workers emit per-database streams keyed by *local* ids (rec ids, span
ids, journal seqs, audit seqs).  The merger replays them into the region
service's store/audit/recorder/registry in **stable order**: deltas
sorted by database name, each database's stream in its own emission
(seq) order.  Global ids are assigned during replay, so two runs that
produce the same per-database streams — which sharding guarantees,
because every database's work is seeded and independent — produce
byte-identical global output regardless of worker count or backend.

Ordering guarantee, precisely: within one tick, database A's entire
stream lands before database B's iff ``A < B`` lexicographically;
across ticks, tick T lands before tick T+1.  Journal entries are
replayed before the same database's audit events and span operations
so that events referencing records inserted in the same tick always
find their global id already assigned.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.controlplane.store import StateStore
from repro.errors import TelemetryError
from repro.observability.audit import AuditLog
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiling import Profiler
from repro.observability.spans import Span, SpanRecorder
from repro.parallel.delta import (
    TickDelta,
    apply_metric_diff,
    remap_payload_rec_id,
)


class DeterministicMerger:
    """Replays sorted per-database tick deltas into region-level state."""

    def __init__(
        self,
        store: StateStore,
        audit: AuditLog,
        registry: MetricsRegistry,
        recorder: SpanRecorder,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.store = store
        self.audit = audit
        self.registry = registry
        self.recorder = recorder
        #: Region-level profiler that absorbs worker hot-path rows.  The
        #: rows arrive pre-sorted by name and deltas merge in stable db
        #: order, so the float accumulation order — hence the aggregate —
        #: is identical across backends and worker counts.
        self.profiler = profiler
        #: (database, local rec_id) -> global rec_id, stable for the run.
        self.rec_ids: Dict[Tuple[str, int], int] = {}
        #: (database, local span_id) -> the merged Span object, while
        #: open.  Children only start under an open parent, so this is
        #: also where a child's global ``parent_id`` comes from.
        self._open_spans: Dict[Tuple[str, int], Span] = {}
        self._next_rec_id = itertools.count(1)
        self._next_span_id = itertools.count(1)

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
        for op in delta.spans:
            self._apply_span_op(database, op)
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

    def _apply_span_op(self, database: str, op: tuple) -> None:
        # Each op's last element is a rebased ``perf_counter`` reading
        # (or None).  Wall values never participate in determinism
        # comparisons — sim-time fields do.
        if op[0] == "start":
            (_kind, local_id, kind, span_db, at, local_parent, attributes,
             wall_start) = op
            parent_id: Optional[int] = None
            if local_parent is not None:
                parent = self._open_spans.get((database, local_parent))
                if parent is None:
                    raise TelemetryError(
                        f"merge saw child span before parent {local_parent} "
                        f"of {database!r}"
                    )
                parent_id = parent.span_id
            span = Span(
                span_id=next(self._next_span_id),
                kind=kind,
                database=span_db,
                start=at,
                parent_id=parent_id,
                attributes=remap_payload_rec_id(
                    dict(attributes), self.rec_ids, database
                ),
                wall_start=wall_start,
            )
            self._open_spans[(database, local_id)] = span
            self.recorder.record(span)
        else:
            _kind, local_id, at, outcome, attributes, wall_end = op
            span = self._open_spans.pop((database, local_id), None)
            if span is None:
                raise TelemetryError(
                    f"merge saw end for unknown span {local_id} of "
                    f"{database!r}"
                )
            span.end = at
            span.outcome = outcome
            span.wall_end = wall_end
            span.attributes.update(
                remap_payload_rec_id(dict(attributes), self.rec_ids, database)
            )
