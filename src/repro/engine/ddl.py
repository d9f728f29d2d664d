"""Online index DDL: the control plane's implement and revert steps.

The paper's service only ever performs *online* operations (Section 6):
index builds that do not block queries, and drops issued under
low-priority Sch-M locks (Section 8.3).  Both end in the engine's own DDL
entry, :meth:`SqlEngine.create_index` / :meth:`SqlEngine.drop_index`, the
one code that changes a table's index set after set-up.  A build is
metered in rows and counts the transaction log it writes (audited as
``log_bytes_generated``).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING

from repro.engine.locks import LockPriority
from repro.engine.schema import IndexDefinition
from repro.errors import LockTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import SqlEngine


class BuildState(enum.Enum):
    """Lifecycle of an online index build."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


class OnlineIndexBuildJob:
    """An online index build.

    Work is measured in rows: the build scans the clustered index, sorts,
    and writes leaf pages.  ``advance(rows, now)`` performs a slice of the
    work; when all rows are processed the engine creates the index,
    stamped ``now``.
    """

    #: Virtual CPU ms per row of build work (scan + sort + write amortized).
    CPU_MS_PER_ROW = 0.004

    def __init__(self, engine: "SqlEngine", definition: IndexDefinition) -> None:
        self.engine = engine
        self.definition = definition
        table = engine.database.table(definition.table)
        self.state = BuildState.PENDING
        self.rows_total = table.row_count
        self.rows_done = 0
        self.cpu_ms_spent = 0.0
        self._entry_width = table.schema.row_width(
            definition.all_columns
        ) + table.schema.row_width(table.schema.primary_key)
        self.log_bytes_generated = 0

    def advance(self, rows: int, now: float) -> None:
        """Perform up to ``rows`` rows of build work."""
        if self.state is BuildState.COMPLETED:
            return
        self.state = BuildState.RUNNING
        todo = min(rows, self.rows_total - self.rows_done)
        self.rows_done += todo
        self.cpu_ms_spent += todo * self.CPU_MS_PER_ROW
        self.log_bytes_generated += todo * (self._entry_width + 16)
        if self.rows_done >= self.rows_total:
            self.engine.create_index(self.definition, at_time=now)
            self.state = BuildState.COMPLETED


@dataclasses.dataclass
class DropAttempt:
    """Record of one low-priority drop attempt."""

    at: float
    succeeded: bool
    waited: float


class LowPriorityDropProtocol:
    """Drop of an index under a low-priority Sch-M lock.

    Mirrors Section 8.3: issue the drop at low priority so it never blocks
    concurrent transactions.  The control plane calls :meth:`attempt` once
    per pass; once :attr:`MAX_ATTEMPTS` have timed out it hands the record
    to its RETRY back-off.
    """

    #: Virtual minutes one attempt waits for the Sch-M lock.
    WAIT_TIMEOUT = 0.5
    MAX_ATTEMPTS = 8

    def __init__(self, engine: "SqlEngine", table_name: str, index_name: str) -> None:
        self.engine = engine
        self.table_name = table_name
        self.index_name = index_name
        self.attempts: list = []
        self.dropped = False

    def exhausted(self) -> bool:
        return len(self.attempts) >= self.MAX_ATTEMPTS and not self.dropped

    def attempt(self, now: float) -> bool:
        """Try to drop the index at ``now``; True on success."""
        if self.dropped:
            return True
        locks = self.engine.locks
        try:
            grant = locks.request_exclusive(
                self.table_name,
                now,
                priority=LockPriority.LOW,
                wait_timeout=self.WAIT_TIMEOUT,
            )
        except LockTimeoutError:
            self.attempts.append(
                DropAttempt(at=now, succeeded=False, waited=self.WAIT_TIMEOUT)
            )
            return False
        self.engine.drop_index(self.table_name, self.index_name)
        locks.release_exclusive(self.table_name)
        self.attempts.append(DropAttempt(at=now, succeeded=True, waited=grant.waited))
        self.dropped = True
        return True
