"""Metered what-if access for DTA (Sections 5.3 and 5.3.1).

All of DTA's optimizer interaction flows through :class:`WhatIfSession`:
it counts calls, builds the sampled statistics DTA needs (charged to the
tuning resource pool), caches (query, configuration) costs so the greedy
enumeration does not re-pay for repeated evaluations, and surfaces
:class:`ResourceBudgetExceededError` to the session for yield/abort
decisions.

Costing runs through the engine's :class:`repro.engine.engine.WhatIfBatch`:
a single lookup is a frontier of one, and the frontier APIs
(:meth:`WhatIfSession.cost_many`, :meth:`WhatIfSession.workload_cost_many`)
price a whole configuration frontier per statement against one plan
substrate.  Costs and session/cache/governor accounting do not depend
on how configurations are grouped into frontiers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.engine.engine import SqlEngine
from repro.engine.schema import IndexDefinition
from repro.errors import OptimizeError
from repro.rng import derive

#: Cached marker for statements the what-if API cannot optimize.  A
#: distinct sentinel (not None) so "known to fail" is distinguishable
#: from "never tried": repeated un-optimizable statements are charged
#: against the tuning pool once and counted once in
#: :attr:`WhatIfStats.failed_statements`.
_FAILED = object()

#: One index's identity for cost-cache purposes: what it covers, not
#: what it is called.  Two same-named but differently-defined indexes
#: must not collide (and two differently-named twins may share).
_DefinitionFingerprint = Tuple[str, Tuple[str, ...], Tuple[str, ...]]


def _definition_fingerprint(
    definition: IndexDefinition,
) -> _DefinitionFingerprint:
    return (
        definition.table,
        tuple(definition.key_columns),
        tuple(definition.included_columns),
    )


@dataclasses.dataclass
class WhatIfStats:
    """Accounting of a session's optimizer interaction."""

    calls: int = 0
    cache_hits: int = 0
    failed_statements: int = 0
    stats_built: int = 0


class WhatIfSession:
    """Cost evaluation under hypothetical configurations for one engine."""

    #: Virtual CPU ms charged per sampled-statistics build.
    STATS_BUILD_CPU_MS = 25.0

    def __init__(
        self,
        engine: SqlEngine,
        sample_fraction: float = 0.05,
        stats_column_budget: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.sample_fraction = sample_fraction
        #: Maximum number of sampled statistics to build (the paper reduced
        #: DTA's statistics creation 2-3x without quality loss).
        self.stats_column_budget = stats_column_budget
        self.stats = WhatIfStats()
        self._cost_cache: Dict[
            Tuple[int, FrozenSet[_DefinitionFingerprint]], object
        ] = {}
        self._stats_built: set = set()

    # ------------------------------------------------------------------

    def ensure_statistics(self, table_name: str, columns: Sequence[str]) -> int:
        """Create sampled statistics on candidate columns (budgeted)."""
        table = self.engine.database.table(table_name)
        built = 0
        for column in columns:
            key = (table_name, column)
            if key in self._stats_built:
                continue
            if table.statistics.get(column) is not None:
                self._stats_built.add(key)
                continue
            if (
                self.stats_column_budget is not None
                and self.stats.stats_built >= self.stats_column_budget
            ):
                break
            table.build_statistics(
                columns=[column],
                sample_fraction=self.sample_fraction,
                rng=derive(self.engine.database.seed, "dta-stats", table_name, column),
                at_time=self.engine.now,
            )
            self.engine.governor.tuning.charge_cpu(
                self.STATS_BUILD_CPU_MS, self.engine.now
            )
            self.engine.governor.tuning.usage.stats_builds += 1
            self._stats_built.add(key)
            self.stats.stats_built += 1
            built += 1
        return built

    # ------------------------------------------------------------------

    def _cache_key(self, query, configuration: Sequence[IndexDefinition]):
        return (
            query.template_key(),
            frozenset(_definition_fingerprint(d) for d in configuration),
        )

    def cost(
        self,
        query,
        configuration: Sequence[IndexDefinition] = (),
    ) -> Optional[float]:
        """Estimated cost of one statement under a configuration.

        Returns None for statements the what-if API cannot optimize
        (Section 5.3.2); callers treat those as coverage loss.
        Raises ResourceBudgetExceededError when the tuning pool runs dry.
        """
        return self.cost_many(query, (configuration,))[0]

    def cost_many(
        self,
        query,
        configurations: Sequence[Sequence[IndexDefinition]],
    ) -> List[Optional[float]]:
        """Costs of one statement under a frontier of configurations.

        Equivalent to calling :meth:`cost` once per configuration — same
        floats, same cache/stats/governor accounting, in the same order —
        but uncached configurations are priced through one engine
        :class:`WhatIfBatch`, sharing the statement's plan substrate.  A
        mid-frontier ResourceBudgetExceededError propagates with the
        configurations priced so far already cached (the retry resumes
        where it left off).
        """
        configurations = [tuple(c) for c in configurations]
        results: List[Optional[float]] = [None] * len(configurations)
        batch = None
        for i, configuration in enumerate(configurations):
            key = self._cache_key(query, configuration)
            cached = self._cost_cache.get(key)
            if cached is _FAILED:
                self.stats.cache_hits += 1
                continue
            if cached is not None:
                self.stats.cache_hits += 1
                results[i] = cached
                continue
            if batch is None:
                batch = self.engine.whatif_batch(query)
            try:
                cost = batch.cost(configuration)
            except OptimizeError:
                self.stats.failed_statements += 1
                self._cost_cache[key] = _FAILED
                continue
            self.stats.calls += 1
            self._cost_cache[key] = cost
            results[i] = cost
        return results

    def workload_cost(
        self,
        statements,
        configuration: Sequence[IndexDefinition] = (),
    ) -> float:
        """Execution-weighted estimated cost of a workload."""
        return self.workload_cost_many(statements, (configuration,))[0]

    def workload_cost_many(
        self,
        statements,
        configurations: Sequence[Sequence[IndexDefinition]],
    ) -> List[float]:
        """Workload costs of a configuration frontier, statement-major.

        Each statement's frontier is priced in one batch before moving
        to the next statement.  Per configuration, the accumulation
        order (and therefore every float) is identical to
        :meth:`workload_cost`; across configurations the (statement,
        configuration) evaluation set is identical too, so session and
        governor totals match a configuration-major sweep.
        """
        configurations = [tuple(c) for c in configurations]
        totals = [0.0] * len(configurations)
        for statement in statements:
            costs = self.cost_many(statement.query, configurations)
            for i, cost in enumerate(costs):
                if cost is None:
                    continue
                totals[i] += cost * statement.executions
        return totals
