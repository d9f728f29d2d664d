"""Index usage statistics (``sys.dm_db_index_usage_stats`` equivalent).

The drop recommender (Section 5.4) is deliberately *not* workload-driven;
it reads these server-tracked counters — how often each index is read by
queries vs. how often it is modified by DML — to find indexes with little
or no benefit but real maintenance overhead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional


@dataclasses.dataclass
class IndexUsage:
    """Read/write counters for one index."""

    index_name: str
    table: str
    user_seeks: int = 0
    user_scans: int = 0
    user_lookups: int = 0
    user_updates: int = 0
    last_user_seek: Optional[float] = None
    last_user_scan: Optional[float] = None
    last_user_update: Optional[float] = None

    @property
    def reads(self) -> int:
        return self.user_seeks + self.user_scans + self.user_lookups

    @property
    def writes(self) -> int:
        return self.user_updates

    def last_read(self) -> Optional[float]:
        candidates = [t for t in (self.last_user_seek, self.last_user_scan) if t is not None]
        return max(candidates) if candidates else None


class IndexUsageStats:
    """Accumulates usage counters, keyed by index name."""

    def __init__(self) -> None:
        self._usage: Dict[str, IndexUsage] = {}

    def _entry(self, table: str, index_name: str) -> IndexUsage:
        entry = self._usage.get(index_name)
        if entry is None:
            entry = IndexUsage(index_name=index_name, table=table)
            self._usage[index_name] = entry
        return entry

    def record_seek(self, table: str, index_name: str, now: float) -> None:
        entry = self._entry(table, index_name)
        entry.user_seeks += 1
        entry.last_user_seek = now

    def record_scan(self, table: str, index_name: str, now: float) -> None:
        entry = self._entry(table, index_name)
        entry.user_scans += 1
        entry.last_user_scan = now

    def record_lookup(self, table: str, index_name: str, now: float) -> None:
        entry = self._entry(table, index_name)
        entry.user_lookups += 1

    def record_update(self, table: str, index_name: str, now: float) -> None:
        entry = self._entry(table, index_name)
        entry.user_updates += 1
        entry.last_user_update = now

    def get(self, index_name: str) -> Optional[IndexUsage]:
        return self._usage.get(index_name)

    def entries(self) -> List[IndexUsage]:
        return list(self._usage.values())

    def drop_index(self, index_name: str) -> None:
        """Forget counters for a dropped index."""
        self._usage.pop(index_name, None)
