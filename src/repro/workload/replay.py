"""TDS-stream fork and best-effort replay (Section 7.1).

A :class:`TdsStream` is the recorded statement traffic of a primary
(A-instance).  ``fork()`` produces the stream a B-instance receives: a
best-effort copy where operations can be *dropped* or locally *reordered*
— the paper's B-instances deliberately avoid synchronization, so the clone
can diverge.  :class:`StreamReplayer` executes a fork on a B-instance
engine, tolerating failures caused by divergence.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.engine.engine import SqlEngine
from repro.workload.generator import RecordedStatement, WorkloadRecording

#: Every B-instance's fork fidelity: the share of statements it loses,
#: and each statement's chance to swap with a near neighbour.
DROP_RATE = 0.004
REORDER_RATE = 0.01


@dataclasses.dataclass
class ReplayReport:
    """Outcome of replaying a forked stream."""

    total: int
    executed: int
    failed: int
    dropped: int

    @property
    def divergence(self) -> float:
        """Fraction of the original stream not faithfully applied."""
        if not self.total:
            return 0.0
        return (self.failed + self.dropped) / self.total


class TdsStream:
    """A recorded statement stream with fork semantics."""

    def __init__(self, recording: WorkloadRecording) -> None:
        self.recording = recording

    def __len__(self) -> int:
        return len(self.recording)

    def fork(
        self,
        rng: np.random.Generator,
        drop_rate: Optional[float] = None,
        reorder_rate: Optional[float] = None,
        reorder_window: int = 3,
    ) -> "ForkedStream":
        """Produce the best-effort copy a B-instance receives (a rate
        left None is the module's)."""
        drop_rate = DROP_RATE if drop_rate is None else drop_rate
        reorder_rate = REORDER_RATE if reorder_rate is None else reorder_rate
        statements: List[RecordedStatement] = []
        dropped = 0
        for statement in self.recording.statements:
            if rng.random() < drop_rate:
                dropped += 1
                continue
            statements.append(statement)
        # Local reordering: swap statements within a small window, then
        # reassign the (sorted) timestamps so arrival times stay monotonic.
        for i in range(len(statements) - 1):
            if rng.random() < reorder_rate:
                j = min(
                    len(statements) - 1,
                    i + int(rng.integers(1, reorder_window + 1)),
                )
                statements[i], statements[j] = statements[j], statements[i]
        times = sorted(s.at for s in statements)
        statements = [
            dataclasses.replace(s, at=t) for s, t in zip(statements, times)
        ]
        return ForkedStream(statements=statements, dropped=dropped)


@dataclasses.dataclass
class ForkedStream:
    """The stream as seen by a B-instance."""

    statements: List[RecordedStatement]
    dropped: int


class StreamReplayer:
    """Executes a forked stream on a B-instance engine, best effort."""

    def __init__(self, engine: SqlEngine) -> None:
        self.engine = engine

    def replay(
        self, fork: ForkedStream, until: Optional[float] = None
    ) -> ReplayReport:
        executed = 0
        failed = 0
        for statement in fork.statements:
            if until is not None and statement.at > until:
                break
            if statement.at > self.engine.clock.now:
                self.engine.clock.advance_to(statement.at)
            try:
                self.engine.execute(statement.query)
                executed += 1
            except Exception:
                # Divergence: the statement referenced state the clone no
                # longer agrees on.  The B-instance carries on (Section 7.1).
                failed += 1
        return ReplayReport(
            total=len(fork.statements) + fork.dropped,
            executed=executed,
            failed=failed,
            dropped=fork.dropped,
        )
