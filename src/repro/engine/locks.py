"""Schema lock manager with FIFO scheduling and managed lock priorities.

Models the metadata-contention problem the paper calls out in Section 8.3:
dropping an index needs an exclusive schema lock (Sch-M) on the table;
statements hold shared schema locks (Sch-S) while they run.  Because the
scheduler is FIFO, a *normal*-priority Sch-M request queued behind
long-running readers blocks every later Sch-S request — a convoy that can
disrupt the whole application.  SQL Server's managed lock priorities let
the service request the Sch-M at *low* priority instead: it never blocks
later readers and simply times out if it cannot be granted, after which
the control plane backs off and retries.

Time is virtual (minutes); callers tell the manager when shared work
starts/ends and ask whether an exclusive request can be granted.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Dict, List

from repro.errors import LockTimeoutError


class LockPriority(enum.Enum):
    """Managed lock priority of a Sch-M request (Section 8.3)."""

    NORMAL = "normal"
    LOW = "low"


@dataclasses.dataclass
class _SharedHold:
    holder: str
    start: float
    end: float


@dataclasses.dataclass
class _ExclusiveWait:
    """A queued normal-priority Sch-M request (convoy source)."""

    requested_at: float
    grant_at: float


@dataclasses.dataclass
class ExclusiveGrant:
    """Outcome of an exclusive request."""

    granted_at: float
    waited: float
    convoy_delay_imposed: float = 0.0


class LockManager:
    """Per-object schema lock accounting over virtual time."""

    def __init__(self) -> None:
        self._shared: Dict[str, List[_SharedHold]] = {}
        self._pending_exclusive: Dict[str, _ExclusiveWait] = {}
        self._hold_seq = itertools.count()
        #: Total extra wait (minutes) imposed on shared requesters by
        #: queued normal-priority exclusive requests, per object.
        self.convoy_delays: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Shared (Sch-S): every statement execution

    def register_shared(self, obj: str, start: float, duration: float) -> float:
        """Register a statement's Sch-S hold; returns its *delayed* start.

        If a normal-priority Sch-M request is queued on the object, the
        shared request must wait behind it (FIFO) — the convoy effect.
        """
        delayed_start = start
        pending = self._pending_exclusive.get(obj)
        if pending is not None and pending.grant_at > start:
            delay = pending.grant_at - start
            delayed_start = pending.grant_at
            self.convoy_delays[obj] = self.convoy_delays.get(obj, 0.0) + delay
        holds = self._shared.setdefault(obj, [])
        holds.append(
            _SharedHold(
                holder=f"q{next(self._hold_seq)}",
                start=delayed_start,
                end=delayed_start + duration,
            )
        )
        self._expire(obj, delayed_start)
        return delayed_start

    def _expire(self, obj: str, now: float) -> None:
        holds = self._shared.get(obj)
        if not holds:
            return
        holds[:] = [hold for hold in holds if hold.end > now]

    def _last_shared_end(self, obj: str, now: float) -> float:
        self._expire(obj, now)
        holds = self._shared.get(obj, ())
        if not holds:
            return now
        return max(hold.end for hold in holds)

    # ------------------------------------------------------------------
    # Exclusive (Sch-M): index drop / metadata change

    def request_exclusive(
        self,
        obj: str,
        now: float,
        priority: LockPriority = LockPriority.LOW,
        wait_timeout: float = 1.0,
    ) -> ExclusiveGrant:
        """Request a Sch-M lock on ``obj`` at virtual time ``now``.

        LOW priority: granted only if it can be acquired within
        ``wait_timeout`` minutes without blocking anyone; otherwise raises
        :class:`LockTimeoutError` (the caller backs off and retries —
        Section 8.3's protocol).

        NORMAL priority: always granted at the moment the current readers
        drain, but every shared request arriving in between is delayed
        behind it (recorded in :attr:`convoy_delays`).
        """
        drain_at = self._last_shared_end(obj, now)
        waited = max(0.0, drain_at - now)
        if priority is LockPriority.LOW:
            if waited > wait_timeout:
                raise LockTimeoutError(
                    f"low-priority Sch-M on {obj!r} timed out after "
                    f"{wait_timeout} min (readers drain in {waited:.2f} min)"
                )
            return ExclusiveGrant(granted_at=drain_at, waited=waited)
        # Normal priority: queue and make later readers wait (convoy).
        self._pending_exclusive[obj] = _ExclusiveWait(
            requested_at=now, grant_at=drain_at
        )
        return ExclusiveGrant(granted_at=drain_at, waited=waited)

    def release_exclusive(self, obj: str) -> None:
        self._pending_exclusive.pop(obj, None)

    def convoy_delay(self, obj: str) -> float:
        """Total delay imposed on readers by normal-priority Sch-M requests."""
        return self.convoy_delays.get(obj, 0.0)
