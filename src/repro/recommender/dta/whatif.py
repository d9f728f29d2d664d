"""Metered what-if access for DTA (Sections 5.3 and 5.3.1).

All of DTA's optimizer interaction flows through :class:`WhatIfSession`:
it counts calls, builds the sampled statistics DTA needs (charged to the
tuning resource pool), caches (query, configuration) costs so the greedy
enumeration does not re-pay for repeated evaluations, and surfaces
:class:`ResourceBudgetExceededError` to the session for yield/abort
decisions.

What it learns lives with it and goes with it
(:meth:`WhatIfSession.clear`): per statement (found by the query's
identity) a :class:`~repro.engine.optimizer.HeldSubstrate`, which the
engine rebuilds when a referenced table's version moves (the session's
own sampled statistics move one), and its template key, computed once;
per template, the cost cache, projection memo and relevance memo, keyed
on definitions interned once to small ints by what they cover (table,
keys, includes; not the name).  A configuration's cost-cache key is its
*set* of ints, as a bitmask.  A hint's is the one name a plan reads: for
a hinted statement, the definition the hint names interns apart.

Costing runs through the engine's :class:`repro.engine.engine.WhatIfBatch`.
The frontier APIs (:meth:`WhatIfSession.cost_many`,
:meth:`WhatIfSession.workload_cost_many`) take one shared ``head`` — the
greedy enumeration's chosen indexes — and one ``tail`` per configuration,
and price the frontier per statement against one substrate; a single
lookup is a frontier of one.  Costs and session/cache/governor accounting
do not depend on how configurations are grouped into frontiers.

**Charged versus priced.**  Every costing of a (statement,
configuration) pair the session has not answered before is *charged* to
the tuning pool — that is what :attr:`WhatIfStats.calls` and the
governor count, and what decides where a budget runs dry.  Only one
costing per distinct *projection* is *priced*, by one search of the
statement's substrate: before that, the configuration is projected onto
the definitions that can touch the statement (the batch's
``contributes``: an access candidate on the outer or join-inner side, or
a maintenance term), and a projection already priced this session
answers every other configuration that projects onto it.  Greedy round
*k* asks for ``chosen + (candidate,)`` under every candidate and every
statement; most candidates cannot touch most statements, so most of
those costings are the cost under ``chosen``, asked again: *derived*.

Every costing, derived or priced, is metered one way: pending costings
are charged a run at a time, in frontier order, by one
:meth:`WhatIfBatch.charge_many`.  A priced costing ends its run and is
charged with it *before* its search, which asks the batch for the cost
alone (:meth:`WhatIfBatch.charged_cost`: no plan is built).  A run is
also charged before the batch is asked about a definition the relevance
memo has not seen (asking may build the substrate) and at the end of the
frontier.  A pool that runs dry inside a run leaves what one charge each
would have left.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.engine import SqlEngine
from repro.engine.optimizer import HeldSubstrate
from repro.engine.schema import IndexDefinition
from repro.errors import OptimizeError
from repro.rng import derive

#: Cached marker for statements the what-if API cannot optimize.  A
#: distinct sentinel (not None) so "known to fail" is distinguishable
#: from "never tried": repeated un-optimizable statements are charged
#: against the tuning pool once and counted once in
#: :attr:`WhatIfStats.failed_statements`.
_FAILED = object()


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


@dataclasses.dataclass
class _Statement:
    """A statement's held substrate and its template's memos."""

    held: HeldSubstrate
    hint: Optional[str]
    costs: Dict[int, object]
    projected: Dict[Tuple[int, ...], float]
    relevance: Dict[int, bool]


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
        #: id(query) -> record (its held substrate keeps the query alive).
        self._statements: Dict[int, _Statement] = {}
        #: Per template: configuration mask -> cost or ``_FAILED``: what
        #: has been charged, so it is never charged twice.
        self._cost_cache: Dict[int, Dict[int, object]] = {}
        #: Per template: contributing definitions in configuration order
        #: -> cost: what has been priced, so it is never priced twice.
        #: Ordered because DML maintenance terms are summed in
        #: configuration order and float addition is not associative.
        self._projected_costs: Dict[int, Dict[Tuple[int, ...], float]] = {}
        #: Per template: definition -> whether it can touch the
        #: statement.  A function of the statement's shape and the
        #: definition's columns only, so it outlives table-version changes.
        self._relevance: Dict[int, Dict[int, bool]] = {}
        #: id(definition) -> (definition, its int), and (table, keys,
        #: includes, named by a hint) -> int: same-named but differently-
        #: defined indexes must not collide, and differently-named twins
        #: share unless a hint names one.
        self._interned: Dict[int, Tuple[IndexDefinition, int]] = {}
        self._ids: Dict[tuple, int] = {}
        self._stats_built: set = set()

    def clear(self) -> None:
        """Forget every substrate, cost and relevance answer (session
        teardown)."""
        for memo in (
            self._statements, self._cost_cache, self._projected_costs,
            self._relevance, self._interned, self._ids,
        ):
            memo.clear()

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

    def needs_statistics(self, table_name: str, columns: Sequence[str]) -> bool:
        """Whether :meth:`ensure_statistics` would build any: a column
        with no statistics and none built this session, while the budget
        lasts.  Builds and charges nothing."""
        if (
            self.stats_column_budget is not None
            and self.stats.stats_built >= self.stats_column_budget
        ):
            return False
        statistics = self.engine.database.table(table_name).statistics
        built = self._stats_built
        return any(
            (table_name, column) not in built and statistics.get(column) is None
            for column in columns
        )

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
        return self.cost_many(query, configuration, ((),))[0]

    def cost_many(
        self,
        query,
        head: Sequence[IndexDefinition],
        tails: Sequence[Sequence[IndexDefinition]],
    ) -> List[Optional[float]]:
        """Costs of one statement under ``head + tail`` for each tail.

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
        return self._cost_frontier(query, self._frontier(head, tails))

    def workload_cost(
        self,
        statements,
        configuration: Sequence[IndexDefinition] = (),
    ) -> float:
        """Execution-weighted estimated cost of a workload."""
        return self.workload_cost_many(statements, configuration, ((),))[0]

    def workload_cost_many(
        self,
        statements,
        head: Sequence[IndexDefinition],
        tails: Sequence[Sequence[IndexDefinition]],
    ) -> List[float]:
        """Workload costs of ``head + tail`` for each tail,
        statement-major.

        Each statement's frontier is priced in one batch before moving
        to the next statement.  Per configuration, the accumulation
        order (and therefore every float) is identical to
        :meth:`workload_cost`; across configurations the (statement,
        configuration) evaluation set is identical too, so session and
        governor totals match a configuration-major sweep.
        """
        frontier = self._frontier(head, tails)
        totals = [0.0] * len(tails)
        for statement in statements:
            costs = self._cost_frontier(statement.query, frontier)
            for i, cost in enumerate(costs):
                if cost is None:
                    continue
                totals[i] += cost * statement.executions
        return totals

    # ------------------------------------------------------------------

    def _frontier(self, head, tails, hint: Optional[str] = None) -> tuple:
        """The frontier with its definitions interned, once for every
        statement it is costed on (again for a hinted one)."""
        intern = functools.partial(self._intern, hint=hint)
        return head, intern(head), tails, list(map(intern, tails))

    def _intern(self, definitions, hint) -> Tuple[Tuple[int, ...], int]:
        """The definitions' ints, and their set as a mask; the one the
        statement's ``hint`` names keys on being so named too."""
        interned = self._interned
        ids = []
        mask = 0
        for definition in definitions:
            named = hint is not None and definition.name == hint
            entry = None if named else interned.get(id(definition))
            if entry is None:
                key = (
                    definition.table, tuple(definition.key_columns),
                    tuple(definition.included_columns), named,
                )
                entry = (definition, self._ids.setdefault(key, len(self._ids)))
                if not named:
                    interned[id(definition)] = entry
            ids.append(entry[1])
            mask |= 1 << entry[1]
        return tuple(ids), mask

    def _record(self, query) -> _Statement:
        record = self._statements.get(id(query))
        if record is None:
            template = query.template_key()
            record = self._statements[id(query)] = _Statement(
                HeldSubstrate(query),
                getattr(query, "index_hint", None),
                self._cost_cache.setdefault(template, {}),
                self._projected_costs.setdefault(template, {}),
                self._relevance.setdefault(template, {}),
            )
        return record

    def _cost_frontier(self, query, frontier: tuple) -> List[Optional[float]]:
        results: List[Optional[float]] = [None] * len(frontier[2])
        if not results:
            return results
        record = self._record(query)
        if record.hint is not None:
            frontier = self._frontier(frontier[0], frontier[2], record.hint)
        head, (head_ids, head_mask), tails, interned = frontier
        costs, projected_costs = record.costs, record.projected
        stats = self.stats
        batch = None
        # Costings not yet metered, in frontier order: configuration ->
        # (cost, or None for the one to search; cache hits counted
        # before it).
        run: Dict[int, Tuple[Optional[float], int]] = {}
        for i, (tail, (tail_ids, tail_mask)) in enumerate(zip(tails, interned)):
            mask = head_mask | tail_mask
            cached = costs.get(mask)
            if cached is None and mask in run:
                cached = run[mask][0]
            if cached is not None:
                stats.cache_hits += 1
                if cached is not _FAILED:
                    results[i] = cached
                continue
            if batch is None:
                batch = self.engine.whatif_batch(query, record.held)
                head_extras, head_key = self._project(
                    batch, record, head, head_ids, run
                )
            tail_extras, tail_key = self._project(
                batch, record, tail, tail_ids, run
            )
            projected = head_key + tail_key
            cost = projected_costs.get(projected)
            run[mask] = (cost, stats.cache_hits)
            if cost is not None:
                results[i] = cost
                continue
            self._meter(batch, costs, run)
            try:
                cost = batch.charged_cost(head_extras + tail_extras)
            except OptimizeError:
                stats.failed_statements += 1
                costs[mask] = _FAILED
                continue
            stats.priced += 1
            stats.calls += 1
            projected_costs[projected] = cost
            costs[mask] = cost
            results[i] = cost
        if run:
            self._meter(batch, costs, run)
        return results

    def _project(self, batch, record: _Statement, definitions, ids, run):
        """The definitions that can touch the statement and their ints,
        order kept.  Asking the batch may build its substrate, so a
        pending run is metered first."""
        relevance = record.relevance
        extras: List[IndexDefinition] = []
        key: List[int] = []
        for definition, ident in zip(definitions, ids):
            relevant = relevance.get(ident)
            if relevant is None:
                if run:
                    self._meter(batch, record.costs, run)
                relevant = relevance[ident] = batch.contributes(definition)
            if relevant:
                extras.append(definition)
                key.append(ident)
        return tuple(extras), tuple(key)

    def _meter(self, batch, costs: Dict[int, object], run) -> None:
        """Charge a run of costings in one call, then count and cache the
        derived ones; a searched one (cost None) ends the run and is
        counted and cached once its search succeeds.  If the pool runs
        dry at one, those before it are counted and cached, the cache
        hits after them are taken back, and the pool's error is raised."""
        pending = list(run.items())
        run.clear()
        charged = batch.charge_many(len(pending))
        derived = 0
        for mask, (cost, _hits_before) in pending[:charged]:
            if cost is not None:
                costs[mask] = cost
                derived += 1
        self.stats.calls += derived
        if charged < len(pending):
            self.stats.cache_hits = pending[charged][1][1]
            raise self.engine.governor.tuning.exceeded()
