"""Memoized plan cache for the optimizer.

Plan search is the engine's hottest profiled path: every executed
statement optimizes.  The cache memoizes the plans of executed
statements (``Optimizer.optimize``) keyed by

- the **query** itself (queries are frozen, hashable dataclasses, so the
  full query — including literal values — is its own signature), and
- a per-referenced-table **fingerprint** ``(name, schema_version,
  stats_version, data_version)`` capturing everything cost estimation
  reads: the index set, the statistics snapshot, and the live tree
  shape / row count.

What-if pricing (Section 5.3) never looks up or stores plans; it only
shares statement substrates through the store beside them, under the
same key.

Because the key carries literal values, executed statements rarely
repeat one: most statements are misses whatever the version part of the
key is, since the literals differ (DESIGN §12 gives the counts).  The
cache serves the repeats there are; plan search is kept cheap on a miss
instead — see :mod:`repro.engine.optimizer`.

Staleness is handled twice over.  Version counters inside the key mean a
DDL change, statistics rebuild, or DML mutation makes every affected key
unreachable, so a stale plan can never be returned.  Explicit
:meth:`PlanCache.invalidate` additionally reclaims the memory for those
unreachable entries at the events the engine knows about (index
create/drop, fleet statistics refresh, restart).

Plans are frozen dataclass trees and are shared by reference between the
cache and callers.  Missing-index emissions recorded while a plan was
first computed are replayed on every hit, so the MI DMV's ``user_seeks``
accounting (Section 5.2) is identical with and without the cache.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Hashable, Optional, Tuple

from repro.engine.plans import PlanNode

#: Default maximum number of cached plans per engine.
DEFAULT_CAPACITY = 1024

#: Maximum number of memoized what-if substrates per engine.
#: Substrates (see :class:`repro.engine.optimizer.BatchPricer`) are much
#: larger than plans — they hold every base access candidate and the
#: per-definition memos — so their store is bounded separately and more
#: tightly.
DEFAULT_SUBSTRATE_CAPACITY = 256


@dataclasses.dataclass(frozen=True)
class PlanCacheEntry:
    """One memoized optimization result."""

    plan: PlanNode
    #: MI sink argument tuples recorded when the plan was computed; replayed
    #: into the sink on every cache hit.
    mi_emissions: Tuple[tuple, ...]
    #: Tables the plan reads or writes — the invalidation granularity.
    tables: Tuple[str, ...]


class PlanCache:
    """A bounded LRU mapping cache keys to :class:`PlanCacheEntry`.

    Counters are monotone over the cache's lifetime: ``hits``/``misses``
    count :meth:`lookup` outcomes and ``evictions`` counts entries
    removed for any reason (capacity pressure *and* invalidation).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, PlanCacheEntry]" = OrderedDict()
        #: Memoized what-if substrates: key -> (substrate, tables).
        #: Keyed by the plan key, so the same version fingerprints that
        #: gate plan staleness gate substrate staleness.  Hit/miss
        #: accounting lives in the optimizer's BatchPricingStats, not in
        #: the plan counters below, which count statement planning only.
        self._substrates: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------

    def lookup(self, key: Hashable) -> Optional[PlanCacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: Hashable, entry: PlanCacheEntry) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # What-if substrate memoization (see optimizer.BatchPricer)

    def lookup_substrate(self, key: Hashable):
        """The memoized substrate for ``key``, or None."""
        item = self._substrates.get(key)
        if item is None:
            return None
        self._substrates.move_to_end(key)
        return item[0]

    def store_substrate(
        self, key: Hashable, substrate, tables: Tuple[str, ...]
    ) -> None:
        self._substrates[key] = (substrate, tuple(tables))
        self._substrates.move_to_end(key)
        while len(self._substrates) > DEFAULT_SUBSTRATE_CAPACITY:
            self._substrates.popitem(last=False)

    def substrate_count(self) -> int:
        return len(self._substrates)

    # ------------------------------------------------------------------

    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop entries touching ``table`` (all entries when ``None``).

        Version counters in the key already make stale entries
        unreachable; this reclaims their memory.  Returns the number of
        entries removed.  Memoized substrates touching the table are
        dropped too (they embed stats views and finished plans).
        """
        if table is None:
            removed = len(self._entries)
            self._entries.clear()
            self._substrates.clear()
        else:
            stale = [
                key
                for key, entry in self._entries.items()
                if table in entry.tables
            ]
            for key in stale:
                del self._entries[key]
            removed = len(stale)
            stale_substrates = [
                key
                for key, (_substrate, tables) in self._substrates.items()
                if table in tables
            ]
            for key in stale_substrates:
                del self._substrates[key]
        self.evictions += removed
        return removed
