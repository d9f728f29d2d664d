"""The engine facade: databases and the `SqlEngine` execution surface.

:class:`SqlEngine` wires together the optimizer, executor, Missing Index
DMV, Query Store, usage statistics, lock manager, and resource governor,
exposing the surfaces the auto-indexing service consumes:

- ``execute(query)`` — optimize + execute, recording Query Store runtime
  stats, MI candidates, and index usage;
- ``whatif_batch(query, held)`` — the what-if API: one :class:`WhatIfBatch`
  per statement asks the substrate ``execute``'s planning uses about any
  number of hypothetical configurations (no MI emission), each costing
  metered against the tuning resource pool (Section 5.3.1); the caller
  holds the substrate (the engine keeps none), and
  ``whatif_optimize(query, extra_indexes)`` is one batch priced once;
- ``create_index`` / ``drop_index`` — immediate DDL (the control plane
  wraps these in online build jobs and the low-priority drop protocol);
- ``restart()`` / ``failover()`` — clear the MI DMV, exercising the
  recommender's snapshot tolerance (Section 5.2).
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.clock import SimClock
from repro.engine.cost_model import (
    CostModel,
    CostModelSettings,
    ExecutionCostSettings,
)
from repro.engine.exec import ExecutionMetrics, Executor
from repro.engine.locks import LockManager
from repro.engine.missing_index import MissingIndexDmv
from repro.engine.optimizer import HeldSubstrate, Optimizer
from repro.engine.plans import (
    PARAM,
    IndexScanNode,
    IndexSeekNode,
    KeyLookupNode,
    PlanNode,
)
from repro.engine.query import InsertQuery, SelectQuery
from repro.engine.query_store import PlanInfo, QueryInfo, QueryStore
from repro.engine.resource_governor import ResourceGovernor
from repro.engine.schema import IndexDefinition, TableSchema
from repro.engine.sqlgen import render, template_text
from repro.engine.table import Table
from repro.engine.usage_stats import IndexUsageStats
from repro.errors import (
    DuplicateObjectError,
    OptimizeError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.observability.profiling import active, profile
from repro.rng import derive, stable_hash, stable_uniform


@dataclasses.dataclass
class EngineSettings:
    """Behavioral knobs of one simulated database server."""

    interval_minutes: float = 60.0
    cost_model: CostModelSettings = dataclasses.field(
        default_factory=CostModelSettings
    )
    execution: ExecutionCostSettings = dataclasses.field(
        default_factory=ExecutionCostSettings
    )
    #: Fraction of query templates whose Query Store text is an incomplete
    #: fragment (procedural T-SQL), exercising DTA's workload-completion
    #: logic (Section 5.3.2).
    incomplete_text_rate: float = 0.08
    #: Fraction of incomplete-text templates whose full text the plan
    #: cache retains, so DTA can recover it (Section 5.3.2).
    plan_cache_text_retention: float = 0.6
    #: Virtual CPU ms charged to the tuning pool per what-if optimize call.
    whatif_call_cpu_ms: float = 6.0


class Database:
    """A named database: schema, data, and a seed for all derived RNG."""

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.tables: Dict[str, Table] = {}

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise DuplicateObjectError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(f"table {name!r} does not exist") from None

    def all_index_definitions(self) -> List[IndexDefinition]:
        definitions: List[IndexDefinition] = []
        for table in self.tables.values():
            definitions.extend(table.index_definitions())
        return definitions

    def total_data_pages(self) -> int:
        return sum(table.data_pages for table in self.tables.values())

    def snapshot(self, name: Optional[str] = None) -> "Database":
        """Structural copy of schema + data + indexes (B-instance seeding)."""
        clone = Database(
            name if name is not None else f"{self.name}-snapshot", seed=self.seed
        )
        for table_name, table in self.tables.items():
            clone.tables[table_name] = table.clone()
        return clone


def bind_literals(query, tables: Dict[str, Table]):
    """``query`` with each predicate literal (join side too, :data:`PARAM`
    aside) converted by its column's :meth:`SqlType.convert`, as SQL Server
    does before comparing: one that cannot convert raises
    :class:`QueryError` before planning.  ``query`` itself comes back when
    no literal changes type; unknown tables and columns are left to planning.
    """
    predicates = query.predicates
    bound = _bind(tables.get(query.table), predicates)
    join = getattr(query, "join", None)
    if join is not None:
        join_bound = _bind(tables.get(join.table), join.predicates)
        if join_bound is not join.predicates:
            join = dataclasses.replace(join, predicates=join_bound)
            return dataclasses.replace(query, predicates=bound, join=join)
    if bound is predicates:
        return query
    return dataclasses.replace(query, predicates=bound)


def _bind(table: Optional[Table], predicates):
    """``predicates`` itself, or a tuple of them with literals bound."""
    if table is None:
        return predicates
    bound = tuple(_bind_predicate(table, p) for p in predicates)
    return predicates if all(map(operator.is_, bound, predicates)) else bound


def _bind_predicate(table: Table, predicate):
    try:
        convert = table.schema.column(predicate.column).sql_type.convert
    except UnknownColumnError:
        return predicate
    old = (predicate.value, predicate.value2)
    new = [value if value is PARAM else convert(value) for value in old]
    if all(type(n) is type(o) for n, o in zip(new, old)):
        return predicate
    return dataclasses.replace(predicate, value=new[0], value2=new[1])


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of one statement execution."""

    query_id: int
    plan_id: int
    plan: PlanNode
    rows: List[dict]
    metrics: ExecutionMetrics


class _RetiredPlanCache:
    """Inert: what-if substrates live with their callers and no plan is
    memoized, so ``invalidate()`` drops nothing and the counters read 0.
    Kept only because ``benchmarks/e2e`` still calls and reads it."""

    hits = misses = evictions = 0

    def invalidate(self, table: Optional[str] = None) -> None:
        pass


class SqlEngine:
    """Execution surface over one :class:`Database`."""

    def __init__(
        self,
        database: Database,
        settings: Optional[EngineSettings] = None,
        clock: Optional[SimClock] = None,
        tuning_budget_cpu_ms: Optional[float] = None,
    ) -> None:
        self.database = database
        self.settings = settings or EngineSettings()
        self.clock = clock or SimClock()
        self.cost_model = CostModel(database.seed, self.settings.cost_model)
        self.optimizer = Optimizer(database.tables, self.cost_model)
        self.executor = Executor(
            database.tables,
            self.settings.execution,
            rng=derive(database.seed, "executor", database.name),
        )
        self.query_store = QueryStore(self.settings.interval_minutes)
        self.missing_indexes = MissingIndexDmv()
        self.usage_stats = IndexUsageStats()
        self.locks = LockManager()
        self.governor = ResourceGovernor(tuning_budget_cpu_ms=tuning_budget_cpu_ms)
        #: Ground-truth ASTs for every template seen (the simulator's stand-in
        #: for "the application's statements"); access rules below model what
        #: Query Store / the plan cache actually captured.
        self._query_objects: Dict[int, object] = {}
        self._plan_cache_text: Dict[int, object] = {}
        self.restarts = 0
        #: Statement bookkeeping that depends only on the template or the
        #: plan, computed once: the Query Store identity per statement
        #: shape (:meth:`Optimizer.shape`), the text-capture draws per
        #: query id, the plan id per plan signature, and the indexes a
        #: plan reads per (query id, plan id).
        self._query_ids: Dict[Hashable, int] = {}
        self._text_draws: Dict[int, Tuple[float, float]] = {}
        self._plan_ids: Dict[str, int] = {}
        self._reads: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # Execution

    @property
    def now(self) -> float:
        return self.clock.now

    #: Inert (see :class:`_RetiredPlanCache`); the statement-text plan
    #: cache DTA reads fragments from is ``_plan_cache_text``.
    plan_cache = _RetiredPlanCache()

    def execute(self, query, at_time: Optional[float] = None) -> ExecutionResult:
        """Bind (:func:`bind_literals`), optimize and execute a statement,
        recording all telemetry."""
        query = bind_literals(query, self.database.tables)
        now = self.now if at_time is None else at_time
        # Forcing changes the executed plan, never the query's identity.
        query_id = self._query_id(query)
        effective = self._apply_plan_forcing(query, query_id)
        plan = self.optimizer.optimize(effective, mi_sink=self._mi_sink(now))
        with profile("engine_execute") as prof:
            rows, metrics = self.executor.execute(plan, effective)
            prof.sim_ms = metrics.cpu_time_ms
        signature = plan.signature()
        plan_id = self._plan_ids.get(signature)
        if plan_id is None:
            plan_id = self._plan_ids[signature] = stable_hash("plan", signature)
        self._register(query, plan, query_id, plan_id, signature)
        # Schema lock integration: statements hold Sch-S for their duration;
        # a queued normal-priority Sch-M delays them (convoy, Section 8.3).
        duration_min = metrics.duration_ms / 60000.0
        delayed_start = self.locks.register_shared(query.table, now, duration_min)
        if delayed_start > now:
            metrics.duration_ms += (delayed_start - now) * 60000.0
        self.query_store.record(
            query_id,
            plan_id,
            metrics.cpu_time_ms,
            metrics.logical_reads,
            metrics.duration_ms,
            now,
        )
        self._record_usage(plan, query, query_id, plan_id, now)
        self.governor.user.charge_cpu(metrics.cpu_time_ms, now)
        return ExecutionResult(
            query_id=query_id,
            plan_id=plan_id,
            plan=plan,
            rows=rows,
            metrics=metrics,
        )

    def _query_id(self, query) -> int:
        """``query.template_key()``, hashed once per statement shape."""
        shape = self.optimizer.shape(query)
        try:
            query_id = self._query_ids.get(shape)
        except TypeError:  # an unhashable column list
            return query.template_key()
        if query_id is None:
            query_id = query.template_key()
            if shape is not None:
                self._query_ids[shape] = query_id
        return query_id

    def _apply_plan_forcing(self, query, query_id: int):
        """Honor Query Store plan forcing (§5.4's forced-plan case).

        A forced plan that referenced a secondary index is realized as an
        index hint: if the index was dropped, the statement fails — which
        is exactly why the drop recommender must never drop such indexes.
        """
        if not isinstance(query, SelectQuery) or query.index_hint:
            return query
        forced = self.query_store.forced_plan(query_id)
        if forced is None or not forced.referenced_indexes:
            return query
        return dataclasses.replace(query, index_hint=forced.referenced_indexes[0])

    def _mi_sink(self, now: float):
        dmv = self.missing_indexes

        def sink(table, eq, ineq, incl, cost, impact):
            dmv.record(table, eq, ineq, incl, cost, impact, now)

        return sink

    def _register(
        self, query, plan: PlanNode, query_id: int, plan_id: int, signature: str
    ) -> None:
        complete = self._text_is_complete(query, query_id)
        if query_id not in self._query_objects:
            self._query_objects[query_id] = query
            text = render(query)
            self.query_store.register_query(
                QueryInfo(
                    query_id=query_id,
                    kind=query.kind,
                    text=text if complete else text[: max(20, len(text) // 3)],
                    template_text=template_text(query),
                    text_complete=complete,
                    table=query.table,
                )
            )
        if self.query_store.plan_info(plan_id) is None:
            self.query_store.register_plan(
                PlanInfo(
                    plan_id=plan_id,
                    signature=signature,
                    referenced_indexes=plan.referenced_indexes(),
                )
            )
        # Plan cache: bounded, holds full statement context for recent
        # templates; DTA falls back to it for incomplete QS text.
        if complete or self._plan_cache_retains_text(query_id):
            self._plan_cache_text[query_id] = query
            if len(self._plan_cache_text) > 512:
                self._plan_cache_text.pop(next(iter(self._plan_cache_text)))

    def _text_is_complete(self, query, query_id: int) -> bool:
        if isinstance(query, InsertQuery) and query.bulk:
            return True  # text is complete; it's what-if that rejects it
        return self._draws(query_id)[0] >= self.settings.incomplete_text_rate

    def _plan_cache_retains_text(self, query_id: int) -> bool:
        return self._draws(query_id)[1] < self.settings.plan_cache_text_retention

    def _draws(self, query_id: int) -> Tuple[float, float]:
        """The template's (text capture, plan-cache retention) draws:
        pure functions of (seed, query id), hashed once per query id."""
        draws = self._text_draws.get(query_id)
        if draws is None:
            seed = self.database.seed
            draws = self._text_draws[query_id] = (
                stable_uniform(seed, "qstext", query_id),
                stable_uniform(seed, "plancache", query_id),
            )
        return draws

    def _record_usage(
        self, plan: PlanNode, query, query_id: int, plan_id: int, now: float
    ) -> None:
        usage = self.usage_stats
        key = (query_id, plan_id)
        reads = self._reads.get(key)
        if reads is None:
            reads = self._reads[key] = _index_reads(plan)
        for record, table, index_name in reads:
            record(usage, table, index_name, now)
        # Maintained indexes come from the plan itself: their order is
        # the table's index order, which DDL can change under one plan id.
        table = query.table
        for index_name in getattr(plan, "maintained_indexes", ()):
            usage.record_update(table, index_name, now)

    # ------------------------------------------------------------------
    # What-if API (Section 5.3)

    def whatif_batch(
        self, query, held: Optional[HeldSubstrate] = None
    ) -> "WhatIfBatch":
        """The metered what-if API for many configurations of one
        statement, see :class:`WhatIfBatch`.  ``held`` is the caller's
        substrate for the statement, shared by its batches; without one
        the batch builds its own."""
        return WhatIfBatch(self, query, held)

    def whatif_optimize(
        self, query, extra_indexes: Sequence[IndexDefinition] = ()
    ) -> PlanNode:
        """Optimize under one hypothetical configuration; metered (a
        one-off batch)."""
        return self.whatif_batch(query).price(extra_indexes)

    # ------------------------------------------------------------------
    # Workload text access (DTA's acquisition rules, Section 5.3.2)

    def observed_statement(self, query_id: int) -> Optional[object]:
        """Server-side ground-truth AST for a template.

        Unlike :meth:`statement_for_tuning` this is not subject to text
        capture limits — it models what the *server itself* saw during
        optimization (e.g. the MI feature analyzes every statement it
        optimizes regardless of Query Store text quality).
        """
        return self._query_objects.get(query_id)

    def statement_for_tuning(self, query_id: int) -> Optional[object]:
        """The AST DTA can obtain for a template, or None.

        Complete Query Store text parses directly; incomplete fragments are
        recoverable only if the plan cache still holds the full batch.
        """
        info = self.query_store.query_info(query_id)
        if info is None:
            return None
        if info.text_complete:
            return self._query_objects.get(query_id)
        return self._plan_cache_text.get(query_id)

    # ------------------------------------------------------------------
    # DDL

    def create_index(self, definition: IndexDefinition) -> None:
        table = self.database.table(definition.table)
        table.create_index(definition, created_at=self.now)
        # Index creation is a schema change: the MI DMV resets (Section 5.2).
        self.missing_indexes.reset()

    def drop_index(self, table_name: str, index_name: str) -> IndexDefinition:
        table = self.database.table(table_name)
        definition = table.drop_index(index_name)
        self.usage_stats.drop_index(index_name)
        self.missing_indexes.reset()
        return definition

    def index_exists(self, table_name: str, index_name: str) -> bool:
        table = self.database.tables.get(table_name)
        return bool(table and index_name in table.indexes)

    # ------------------------------------------------------------------
    # Failures

    def restart(self) -> None:
        """Server restart: volatile DMVs (MI, plan caches) are lost."""
        self.missing_indexes.reset()
        self._plan_cache_text.clear()
        self.restarts += 1

    def failover(self) -> None:
        """Replica failover: same volatile-state loss as a restart."""
        self.restart()

    # ------------------------------------------------------------------
    # Convenience

    def build_all_statistics(self, sample_fraction: float = 1.0) -> None:
        for table in self.database.tables.values():
            table.build_statistics(
                sample_fraction=sample_fraction,
                rng=derive(self.database.seed, "stats", table.name),
                at_time=self.now,
            )

    def workload_coverage(
        self,
        analyzed_query_ids: Sequence[int],
        since: float,
        until: float,
        metric: str = "cpu_time_ms",
    ) -> float:
        """Fraction of total resources consumed by the analyzed statements.

        This is the paper's workload-coverage measure (Section 5.1.2).
        """
        totals = self.query_store.per_query_totals(since, until, metric)
        total = sum(totals.values())
        if total <= 0:
            return 0.0
        covered = sum(totals.get(qid, 0.0) for qid in analyzed_query_ids)
        return covered / total


def _index_reads(plan: PlanNode) -> tuple:
    """``(recorder, table, index)`` for every index read in ``plan``, in
    plan order: seeks, scans, and key lookups through an index."""
    reads = []
    for node in plan.walk():
        if isinstance(node, IndexSeekNode):
            reads.append((IndexUsageStats.record_seek, node.table, node.index_name))
        elif isinstance(node, IndexScanNode):
            reads.append((IndexUsageStats.record_scan, node.table, node.index_name))
        elif isinstance(node, KeyLookupNode):
            child = node.child
            if isinstance(child, (IndexSeekNode, IndexScanNode)):
                reads.append(
                    (IndexUsageStats.record_lookup, child.table, child.index_name)
                )
    return tuple(reads)


class WhatIfBatch:
    """The metered what-if API for one statement (Section 5.3).

    ``price(extra_indexes)`` asks the statement's substrate directly —
    the same substrate :meth:`Optimizer.optimize` prices with no extras,
    hence the same floats, argmin winner and exceptions — without
    emitting MI candidates.  The substrate is found at most once for the
    batch's lifetime, through :meth:`Optimizer.whatif_substrate`, in the
    caller's ``held`` substrate: a caller that keeps one per statement
    shares it across its batches for as long as the referenced tables'
    versions stand.  Without one the batch builds its own.

    Each :meth:`price` call charges ``whatif_call_cpu_ms`` to the tuning
    pool *before* pricing — so the charge does not depend on how calls
    are grouped into batches, and :class:`ResourceBudgetExceededError`
    can surface mid-batch when the window's budget runs dry — and is
    attributed to the ``engine_whatif_cost`` hot path.

    What is *charged* and what is *priced* are separate questions.  A
    caller that already knows a configuration's cost — because
    :meth:`contributes` says it differs from a priced one only in
    definitions that cannot touch the statement — still owes the call
    (the simulated tuning budget meters costings asked, not optimizer
    work avoided) and pays it through :meth:`charge_many`, one call for
    a whole run of such costings.
    """

    def __init__(
        self, engine: SqlEngine, query, held: Optional[HeldSubstrate] = None
    ):
        self._engine = engine
        self._query = query
        #: BULK INSERT cannot be optimized under any hypothetical
        #: configuration (Section 5.3.2), whatever the configuration holds.
        self._rejects_extras = isinstance(query, InsertQuery) and query.bulk
        self._held = held if held is not None else HeldSubstrate(query)
        self._substrate = None
        engine.optimizer.batch_stats.batches += 1

    def charge_many(self, n: int) -> int:
        """Meter ``n`` what-if calls as ``n`` :meth:`price` calls would —
        pool charges, call count, hot-path ticks, float for float — without
        pricing.  Returns how many fit the budget; fewer than ``n`` means
        the next one's CPU was charged too, and the caller raises the
        pool's ``exceeded()`` as a refused :meth:`price` would have."""
        engine = self._engine
        rate = engine.settings.whatif_call_cpu_ms
        pool = engine.governor.tuning
        charged = pool.charge_cpu_many(rate, n, engine.now)
        pool.usage.whatif_calls += charged
        active().count_many("engine_whatif_cost", charged, rate)
        return charged

    def contributes(self, definition: IndexDefinition) -> bool:
        """Whether ``definition`` can change what :meth:`price` returns.

        False means ``price(extras)`` is the same plan, cost and error
        with the definition removed from any position of ``extras`` — it
        offers the statement no access candidate (outer or join inner
        side) and adds no maintenance term.  The substrate answers from
        the per-definition memos ``price`` itself fills, so a caller may
        drop non-contributing definitions before pricing (DTA projects
        configurations this way) without a second relevance rule to keep
        in step.  A statement what-if rejects outright keeps every
        definition: dropping one could turn the error into a plan.
        Unmetered: it asks about the statement, not a configuration.
        """
        if self._rejects_extras:
            return True
        return self._held_substrate().contributes(definition)

    def price(self, extra_indexes: Sequence[IndexDefinition] = ()) -> PlanNode:
        engine = self._engine
        rate = engine.settings.whatif_call_cpu_ms
        engine.governor.tuning.charge_cpu(rate, engine.now)
        engine.governor.tuning.usage.whatif_calls += 1
        with profile("engine_whatif_cost") as prof:
            prof.sim_ms = rate
            extras = tuple(extra_indexes)
            engine.optimizer.batch_stats.configurations += 1
            if extras and self._rejects_extras:
                raise OptimizeError(
                    "BULK INSERT cannot be optimized in what-if mode"
                )
            return self._held_substrate().price(extras)

    def _held_substrate(self):
        if self._substrate is None:
            self._substrate = self._engine.optimizer.whatif_substrate(
                self._held
            )
        return self._substrate
