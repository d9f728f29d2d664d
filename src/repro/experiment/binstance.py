"""B-instances (Section 7.1).

A B-instance is an independent, invisible copy of a database seeded from a
snapshot of the primary (the A-instance).  It receives a best-effort fork
of the primary's statement stream and replays it without synchronization —
failures or divergence on the B-instance never affect the primary.  Index
changes and feature experiments happen here, never on the primary.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.clock import SimClock
from repro.engine.engine import Database, EngineSettings, SqlEngine
from repro.engine.schema import IndexDefinition
from repro.rng import derive
from repro.workload.generator import WorkloadRecording
from repro.workload.replay import ReplayReport, StreamReplayer, TdsStream


#: Divergence fraction above which the instance is flagged unusable.
DIVERGENCE_TOLERANCE = 0.10


class BInstance:
    """An experimental clone of a primary database."""

    def __init__(
        self,
        primary_engine: SqlEngine,
        name: str,
        engine_settings: Optional[EngineSettings] = None,
        fork_seed: int = 0,
    ) -> None:
        self.name = name
        snapshot: Database = primary_engine.database.snapshot(name)
        # The clone runs the same engine bits by default, but an experiment
        # may install a different binary (engine settings) — Section 7.1.
        self.engine = SqlEngine(
            snapshot,
            settings=engine_settings or primary_engine.settings,
            clock=SimClock(start=primary_engine.clock.now),
        )
        # Statistics snapshots carry over; what a production clone has.
        self._fork_rng: np.random.Generator = derive(
            primary_engine.database.seed, "binstance", name, str(fork_seed)
        )
        self.replay_reports: List[ReplayReport] = []

    # ------------------------------------------------------------------

    def apply_indexes(self, definitions: List[IndexDefinition]) -> int:
        """Implement a configuration change on the clone."""
        created = 0
        for definition in definitions:
            if not self.engine.index_exists(definition.table, definition.name):
                self.engine.create_index(definition)
                created += 1
        return created

    def drop_indexes(self, names: List[tuple]) -> int:
        """Drop (table, index_name) pairs if present."""
        dropped = 0
        for table, index_name in names:
            if self.engine.index_exists(table, index_name):
                self.engine.drop_index(table, index_name)
                dropped += 1
        return dropped

    def replay(self, recording: WorkloadRecording) -> ReplayReport:
        """Fork the recorded stream and replay it on the clone."""
        fork = TdsStream(recording).fork(self._fork_rng)
        report = StreamReplayer(self.engine).replay(fork)
        self.replay_reports.append(report)
        return report

    def diverged(self) -> bool:
        """True when accumulated divergence exceeds tolerance (Section 7.2's
        divergence detection)."""
        total = sum(r.total for r in self.replay_reports)
        if not total:
            return False
        bad = sum(r.failed + r.dropped for r in self.replay_reports)
        return bad / total > DIVERGENCE_TOLERANCE
