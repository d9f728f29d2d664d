"""The Missing Indexes (MI) DMV.

During query optimization the optimizer reports index candidates it wished
existed (``_MiShape.emit`` in :mod:`repro.engine.optimizer`); this
module accumulates them exactly like SQL Server's
``sys.dm_db_missing_index_*`` views (Section 5.2 of the paper):

- entries are grouped by (table, EQUALITY columns, INEQUALITY columns,
  INCLUDE columns);
- per group it tracks seek count, average estimated query cost, and the
  average estimated improvement percentage;
- **all state is lost on restart, failover, or schema change** — the
  recommender tolerates that by taking periodic snapshots.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple


@dataclasses.dataclass(frozen=True)
class MissingIndexGroup:
    """Identity of an MI group: the candidate's column sets."""

    table: str
    equality_columns: Tuple[str, ...]
    inequality_columns: Tuple[str, ...]
    include_columns: Tuple[str, ...]


@dataclasses.dataclass
class MissingIndexEntry:
    """Accumulated statistics for one MI group."""

    group: MissingIndexGroup
    user_seeks: int = 0
    avg_total_cost: float = 0.0
    avg_user_impact: float = 0.0
    first_seen: float = 0.0
    last_seen: float = 0.0

    def observe(self, cost: float, impact: float, now: float) -> None:
        if self.user_seeks == 0:
            self.first_seen = now
        self.user_seeks += 1
        n = self.user_seeks
        self.avg_total_cost += (cost - self.avg_total_cost) / n
        self.avg_user_impact += (impact - self.avg_user_impact) / n
        self.last_seen = now

    def copy(self) -> "MissingIndexEntry":
        return dataclasses.replace(self)


@dataclasses.dataclass(frozen=True)
class MissingIndexSnapshot:
    """A frozen copy of the DMV contents at a point in time.

    The recommender accumulates these to survive DMV resets and to compute
    the impact slope over time (Section 5.2, step 4).
    """

    taken_at: float
    entries: Tuple[MissingIndexEntry, ...]


class MissingIndexDmv:
    """In-engine accumulation of missing-index candidates."""

    def __init__(self) -> None:
        #: (table, equality, inequality, include columns) -> entry: the
        #: group's fields as a plain tuple, which hashes in C.
        self._entries: Dict[tuple, MissingIndexEntry] = {}
        self.resets = 0

    def record(
        self,
        table: str,
        equality_columns: Tuple[str, ...],
        inequality_columns: Tuple[str, ...],
        include_columns: Tuple[str, ...],
        cost: float,
        impact: float,
        now: float,
    ) -> None:
        """Sink callback invoked by the optimizer."""
        key = (
            table,
            tuple(equality_columns),
            tuple(inequality_columns),
            tuple(include_columns),
        )
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = MissingIndexEntry(
                group=MissingIndexGroup(*key)
            )
        entry.observe(cost, impact, now)

    def entries(self) -> List[MissingIndexEntry]:
        """Live view of the accumulated groups (copies)."""
        return [entry.copy() for entry in self._entries.values()]

    def snapshot(self, now: float) -> MissingIndexSnapshot:
        return MissingIndexSnapshot(
            taken_at=now,
            entries=tuple(entry.copy() for entry in self._entries.values()),
        )

    def reset(self) -> None:
        """Clear all state (server restart, failover, or schema change)."""
        self._entries.clear()
        self.resets += 1

    def __len__(self) -> int:
        return len(self._entries)
