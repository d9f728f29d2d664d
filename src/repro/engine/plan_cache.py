"""The what-if substrate store beside the optimizer.

Executed statements are planned afresh every time
(:meth:`repro.engine.optimizer.Optimizer.optimize`): their literals make
almost every (query, table versions) pair unique, so a memo of finished
plans would answer a few percent of lookups (DESIGN §12 gives the
counts).  What is memoized is the statement *substrate* what-if pricing
(Section 5.3) reuses across DTA configurations and sessions.  This
module is only the store; :meth:`repro.engine.optimizer.Optimizer
.whatif_substrate` is the one place it is read and filled, keyed by

- the **query** itself (queries are frozen, hashable dataclasses, so the
  full query — including literal values — is its own signature), and
- a per-referenced-table **fingerprint** ``(name, schema_version,
  stats_version, data_version)`` capturing everything cost estimation
  reads: the index set, the statistics snapshot, and the live tree
  shape / row count.

Staleness is handled twice over.  Version counters inside the key mean a
DDL change, statistics rebuild, or DML mutation makes every affected key
unreachable, so a stale substrate can never be returned.  Explicit
:meth:`PlanCache.invalidate` additionally reclaims the memory for those
unreachable entries at the events the engine knows about (index
create/drop, fleet statistics refresh, restart).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

#: Maximum number of memoized what-if substrates per engine.  Substrates
#: hold every base access candidate and the per-definition memos, so the
#: store is a bounded LRU.
DEFAULT_SUBSTRATE_CAPACITY = 256


class PlanCache:
    """A bounded LRU of what-if substrates.

    Hit/miss accounting lives in the optimizer's ``BatchPricingStats``.
    ``hits``, ``misses`` and ``evictions`` are always 0: nothing memoizes
    statement plans any more.  The fields stay because
    ``benchmarks/e2e`` reads them by name.
    """

    def __init__(self) -> None:
        #: Memoized what-if substrates: key -> (substrate, tables).
        self._substrates: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

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

    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop substrates touching ``table`` (all of them when ``None``).

        Version counters in the key already make stale substrates
        unreachable; this reclaims their memory (they embed stats views
        and finished plans).  Returns the number of substrates removed.
        """
        if table is None:
            removed = len(self._substrates)
            self._substrates.clear()
            return removed
        stale = [
            key
            for key, (_substrate, tables) in self._substrates.items()
            if table in tables
        ]
        for key in stale:
            del self._substrates[key]
        return len(stale)
