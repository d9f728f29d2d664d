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

**Charged versus priced.**  Every costing of a (statement,
configuration) pair the session has not answered before is *charged* to
the tuning pool — that is what :attr:`WhatIfStats.calls` and the
governor count, and what decides where a budget runs dry.  Only one
costing per distinct *projection* is *priced* by the optimizer: before
pricing, the configuration is projected onto the definitions that can
touch the statement (the batch's ``contributes``: an access candidate on
the outer or join-inner side, or a maintenance term), and a projection
already priced this session answers every other configuration that
projects onto it.  Greedy round *k* asks for ``chosen + (candidate,)``
under every candidate and every statement; most candidates cannot touch
most statements, so most of those costings are the cost under
``chosen``, asked again.
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


def _shared_prefix_len(configurations: Sequence[tuple]) -> int:
    """How many leading definitions every configuration shares (by
    identity): greedy enumeration's frontier is one ``chosen`` prefix
    followed by one candidate each."""
    first = configurations[0]
    shared = 0
    for column in zip(*configurations):
        head = first[shared]
        if any(definition is not head for definition in column):
            break
        shared += 1
    return shared


@dataclasses.dataclass
class WhatIfStats:
    """Accounting of a session's optimizer interaction."""

    #: Costings charged to the tuning pool (one per configuration the
    #: session had not answered before).
    calls: int = 0
    #: Of those, the costings that reached the optimizer (one per
    #: distinct projection); the rest were derived from one of these.
    priced: int = 0
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
        #: (template, whole configuration) -> cost or ``_FAILED``: what
        #: has been charged, so it is never charged twice.
        self._cost_cache: Dict[
            Tuple[int, FrozenSet[_DefinitionFingerprint]], object
        ] = {}
        #: (template, contributing definitions in configuration order)
        #: -> cost: what has been priced, so it is never priced twice.
        #: Ordered because DML maintenance terms are summed in
        #: configuration order and float addition is not associative.
        self._projected_costs: Dict[
            Tuple[int, Tuple[_DefinitionFingerprint, ...]], float
        ] = {}
        #: (template, definition) -> whether it can touch the statement.
        #: A function of the statement's shape and the definition's
        #: columns only, so it outlives table-version changes (and, like
        #: the cost cache, does not see the definition's name).
        self._relevance: Dict[Tuple[int, _DefinitionFingerprint], bool] = {}
        self._stats_built: set = set()

    def clear(self) -> None:
        """Forget every cost and relevance answer (session teardown)."""
        self._cost_cache.clear()
        self._projected_costs.clear()
        self._relevance.clear()

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
        but the frontier shares one engine :class:`WhatIfBatch` (one plan
        substrate) and only configurations whose projection onto the
        statement is new are priced through it; the others are charged
        and answered from the projection's cost.  A mid-frontier
        ResourceBudgetExceededError propagates with the configurations
        costed so far already cached (the retry resumes where it left
        off).
        """
        configurations = [tuple(c) for c in configurations]
        results: List[Optional[float]] = [None] * len(configurations)
        if not configurations:
            return results
        template = query.template_key()
        shared = _shared_prefix_len(configurations)
        head = configurations[0][:shared]
        head_fingerprints = tuple(map(_definition_fingerprint, head))
        head_set = frozenset(head_fingerprints)
        batch = None
        for i, configuration in enumerate(configurations):
            tail = configuration[shared:]
            tail_fingerprints = tuple(map(_definition_fingerprint, tail))
            key = (template, head_set.union(tail_fingerprints))
            cached = self._cost_cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                if cached is not _FAILED:
                    results[i] = cached
                continue
            if batch is None:
                batch = self.engine.whatif_batch(query)
                head_extras, head_key = self._project(
                    batch, template, head, head_fingerprints
                )
            tail_extras, tail_key = self._project(
                batch, template, tail, tail_fingerprints
            )
            projected = (template, head_key + tail_key)
            cost = self._projected_costs.get(projected)
            if cost is not None:
                batch.charge()
            else:
                try:
                    cost = batch.price(head_extras + tail_extras).est_cost
                except OptimizeError:
                    self.stats.failed_statements += 1
                    self._cost_cache[key] = _FAILED
                    continue
                self.stats.priced += 1
                self._projected_costs[projected] = cost
            self.stats.calls += 1
            self._cost_cache[key] = cost
            results[i] = cost
        return results

    def _project(
        self,
        batch,
        template: int,
        definitions: Tuple[IndexDefinition, ...],
        fingerprints: Tuple[_DefinitionFingerprint, ...],
    ) -> Tuple[
        Tuple[IndexDefinition, ...], Tuple[_DefinitionFingerprint, ...]
    ]:
        """The definitions that can touch the statement, with their
        fingerprints, order kept."""
        relevance = self._relevance
        extras: List[IndexDefinition] = []
        key: List[_DefinitionFingerprint] = []
        for definition, fingerprint in zip(definitions, fingerprints):
            known = (template, fingerprint)
            relevant = relevance.get(known)
            if relevant is None:
                relevant = relevance[known] = batch.contributes(definition)
            if relevant:
                extras.append(definition)
                key.append(fingerprint)
        return tuple(extras), tuple(key)

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
