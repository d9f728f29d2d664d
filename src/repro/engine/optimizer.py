"""Cost-based query optimizer with a what-if API and MI emission.

The optimizer enumerates access paths (clustered scan/seek, secondary index
seek with optional key lookup, covering index scan), join strategies
(nested-loop with parameterized inner seek, hash join), and aggregation /
ordering operators, picking the plan with the lowest *estimated* cost under
the :class:`repro.engine.cost_model.CostModel`.

SELECT planning costs the **complete** plan — access + join + aggregate +
sort + top — independently for every access candidate and returns the true
argmin.  That makes plan choice monotone by construction: an index only
adds candidates, so the minimum can only fall when one is created (or
supplied hypothetically) and only rise when one is dropped.  An earlier
"effective cost" heuristic credited order-providing access paths with an
avoided-sort bonus derived from an arbitrary candidate's cardinality,
which both violated monotonicity and mispriced ordered plans under
aggregation (where the real saving is only the stream-vs-hash delta on
far fewer rows).

There is one planner, in two layers.

- A **skeleton** is everything about a statement's plan space that
  depends neither on its literals nor on live tree shape: for each
  access path, which structure it reads and the *positions* of the
  predicates it seeks on and filters with, whether it covers, the order
  it delivers; the join's inner-side paths; the indexes a write
  maintains; MI's ideal index and the paths its baseline needs.  One
  skeleton serves every statement of a template (see
  :func:`statement_shape`) while the referenced tables keep their index
  sets and statistics.
- A **substrate** is one statement over its skeleton: it estimates the
  literals' selectivities (:class:`_PredicateAnalysis`), reads row
  counts and tree shapes, prices every path, finishes each into a
  complete plan's cost and searches under a tuple of hypothetical index
  definitions.  Statement planning (:meth:`Optimizer.optimize`) is the
  empty tuple; the what-if API (Section 5.3) searches one tuple or a
  whole DTA frontier of them against one substrate held by the engine's
  :class:`repro.engine.engine.WhatIfBatch`.  A search answers ``cost``
  (the winner's estimated cost) or ``price`` (its plan too); plan nodes
  are built for a priced winner only.

Hypothetical indexes are costed from closed-form shape estimates without
materializing anything.

Executed statements get a fresh substrate on every call — their literals
and the live row counts make almost every finished plan unique — over a
skeleton the optimizer keeps per shape (:meth:`Optimizer._skeleton`).
What-if substrates are kept by the caller that asks about a statement
again (a DTA session, one MI verification pass), in a
:class:`HeldSubstrate` that :meth:`Optimizer.whatif_substrate` reuses
while the referenced tables' versions stand and rebuilds once they move;
the optimizer keeps none.  That caller (DTA's ``WhatIfSession``) also
memoizes the costs of the configurations it repeats.

**Missing-index emission** (Section 5.2): while planning an executed
statement, the optimizer compares the chosen plan against an ideal
single-table index built from the query's own sargable predicates and, if
the ideal index would beat the plan, reports a missing-index candidate to
the DMV sink.  Deliberately local: join, GROUP BY and ORDER BY columns
are *not* considered — exactly the MI limitation the paper describes.
Emission is a by-product of the plan search, as in the paper: it reads
the substrate's predicate analysis, output estimate and existing access
candidates rather than planning the statement a second time.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.cost_model import ROW_CPU, CostModel
from repro.engine.plans import (
    PARAM,
    ClusteredScanNode,
    ClusteredSeekNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    IndexSeekNode,
    InsertPlanNode,
    KeyLookupNode,
    DeletePlanNode,
    NestedLoopJoinNode,
    PlanNode,
    SortNode,
    StreamAggregateNode,
    TopNode,
    UpdatePlanNode,
)
from repro.engine.query import (
    DeleteQuery,
    InsertQuery,
    Op,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine.schema import IndexDefinition
from repro.engine.table import IndexStatsView, Table
from repro.errors import (
    ExecutionError,
    OptimizeError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.observability.profiling import profile

#: Minimum relative improvement for the optimizer to report an MI candidate.
MI_REPORT_THRESHOLD = 0.05

#: Signature for a missing-index sink callback:
#: (table, equality_cols, inequality_cols, include_cols, best_cost, impact_pct)
MiSink = Callable[[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], float, float], None]


# ----------------------------------------------------------------------
# Statement shapes


def statement_shape(query) -> Optional[tuple]:
    """The statement's structure with its literals stripped, as a plain
    tuple, or None for a statement the optimizer cannot plan.

    Two statements of one shape differ only in predicate values, UPDATE
    assignment values, INSERT rows and the TOP count, so they share a
    plan skeleton and a Query Store identity.  A predicate whose value is
    the join parameter :data:`PARAM` shapes apart from one with a literal.
    """
    if isinstance(query, SelectQuery):
        join = query.join
        return (
            type(query),
            query.table,
            query.select_columns,
            _predicate_shape(query.predicates),
            None if join is None else (
                join.table,
                join.left_column,
                join.right_column,
                _predicate_shape(join.predicates),
                join.select_columns,
            ),
            query.group_by,
            query.aggregates,
            query.order_by,
            query.limit is None,
            query.index_hint,
        )
    if isinstance(query, UpdateQuery):
        return (
            type(query),
            query.table,
            query.assigned_columns,
            _predicate_shape(query.predicates),
        )
    if isinstance(query, DeleteQuery):
        return (type(query), query.table, _predicate_shape(query.predicates))
    if isinstance(query, InsertQuery):
        return (type(query), query.table, query.bulk)
    return None


def _predicate_shape(predicates: Sequence[Predicate]) -> tuple:
    return tuple(
        (p.column, p.op) if p.value is not PARAM else (p.column, p.op, PARAM)
        for p in predicates
    )


def _repeats(pairs: Sequence[tuple]) -> bool:
    """Whether a (column, operator) pair occurs twice.

    Residuals drop a predicate that *equals* a seek predicate, and two
    predicates can be equal only when their pairs are; so a skeleton
    built from one statement fits every statement of its shape unless a
    pair repeats, and then it fits only statements whose literals repeat
    alike.
    """
    return len(set(pairs)) < len(pairs)


class _PredicateAnalysis:
    """One statement's predicate analysis over one table.

    Each predicate's selectivity is estimated once, on first use; an
    :class:`_Access` combines the factors in predicate order, so every
    combination is the float :meth:`CostModel.combined_selectivity`
    would compute.  The memo is keyed by predicate identity rather than
    by hashing the dataclass, so the inner side of a self-join shares the
    outer side's estimates; each entry holds its predicate, so the id
    cannot be reused while the entry lives.  It is valid for the owning
    substrate's whole life, which the substrate key bounds by the table's
    (schema, stats, data) versions.
    """

    __slots__ = ("table", "_model", "_memo")

    def __init__(self, model: CostModel, table: Table) -> None:
        self.table = table
        self._model = model
        self._memo: Dict[int, Tuple[Predicate, float]] = {}

    def factor(self, predicate: Predicate) -> float:
        """The predicate's own selectivity."""
        entry = self._memo.get(id(predicate))
        if entry is None:
            entry = self._memo[id(predicate)] = (
                predicate,
                self._model.predicate_selectivity(self.table, predicate),
            )
        return entry[1]


# ----------------------------------------------------------------------
# Access paths: literal-free shapes, priced per statement

_CLUSTERED_SCAN, _CLUSTERED_SEEK, _INDEX_SEEK, _INDEX_SCAN = range(4)


@dataclasses.dataclass(slots=True)
class _Path:
    """One access path's literal-free shape over one predicate list.

    Positions index the predicate tuple the path was planned over: the
    equality prefix and the optional range predicate a seek uses, the
    predicates filtered at the index (``residual``) and after the key
    lookup (``lookup``).  ``definition`` is None for the clustered index.
    Two paths over one predicate list that compare equal price alike.
    """

    kind: int
    definition: Optional[IndexDefinition]
    output_order: Tuple[str, ...]
    eq_pos: Tuple[int, ...] = ()
    range_pos: Optional[int] = None
    residual_pos: Tuple[int, ...] = ()
    lookup_pos: Tuple[int, ...] = ()
    covering: bool = True
    #: A seek parameterized on the join key (usable once per outer probe).
    param_seekable: bool = False
    index_name: Optional[str] = dataclasses.field(init=False)
    seek_pos: Tuple[int, ...] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        definition = self.definition
        self.index_name = definition.name if definition is not None else None
        self.seek_pos = self.eq_pos + (
            (self.range_pos,) if self.range_pos is not None else ()
        )


def _clustered_paths(
    table: Table, predicates: Sequence[Predicate]
) -> List[_Path]:
    """The clustered scan, then the clustered seek on a PK prefix if any."""
    pk = table.schema.primary_key
    paths = [_Path(_CLUSTERED_SCAN, None, pk)]
    prefix = _seek_prefix(pk, predicates)
    if prefix is not None:
        eq_pos, range_pos, seek = prefix
        paths.append(
            _Path(
                _CLUSTERED_SEEK, None, pk[len(eq_pos):], eq_pos, range_pos,
                residual_pos=tuple(
                    i for i, p in enumerate(predicates) if p not in seek
                ),
                param_seekable=_binds_param(predicates, eq_pos),
            )
        )
    return paths


def _table_paths(
    table: Table,
    predicates: Sequence[Predicate],
    needed_columns: Tuple[str, ...],
) -> List[_Path]:
    """Every access path over the table's existing structures, in plan
    search order: clustered scan and seek, then each index's seek and
    covering scan."""
    paths = _clustered_paths(table, predicates)
    pk = table.schema.primary_key
    for index in table.indexes.values():
        paths.extend(
            _index_paths(pk, index.definition, predicates, needed_columns)
        )
    return paths


def _index_paths(
    pk: Tuple[str, ...],
    definition: IndexDefinition,
    predicates: Sequence[Predicate],
    needed_columns: Tuple[str, ...],
) -> List[_Path]:
    """The seek and the covering scan one index offers, in that order."""
    index_columns = {*definition.key_columns, *definition.included_columns, *pk}
    covers = index_columns.issuperset(needed_columns)
    paths = []
    prefix = _seek_prefix(definition.key_columns, predicates)
    if prefix is not None:
        eq_pos, range_pos, seek = prefix
        leftover = [i for i, p in enumerate(predicates) if p not in seek]
        lookup = tuple(
            i for i in leftover if predicates[i].column not in index_columns
        )
        paths.append(
            _Path(
                _INDEX_SEEK, definition, definition.key_columns[len(eq_pos):],
                eq_pos, range_pos,
                residual_pos=tuple(
                    i for i in leftover if predicates[i].column in index_columns
                ),
                lookup_pos=lookup,
                covering=covers and not lookup,
                param_seekable=_binds_param(predicates, eq_pos),
            )
        )
    if covers and all(p.column in index_columns for p in predicates):
        paths.append(
            _Path(_INDEX_SCAN, definition, definition.key_columns)
        )
    return paths


def _binds_param(predicates: Sequence[Predicate], positions) -> bool:
    return any(predicates[i].value is PARAM for i in positions)


class _Access:
    """One statement's read of one table through one predicate list: each
    predicate's selectivity factor, the live row count and clustered
    shape, and the output estimate the candidates are priced off."""

    __slots__ = (
        "analysis", "table", "predicates", "factors", "rows", "cview",
        "selectivity_all", "out_rows",
    )

    def __init__(
        self, analysis: _PredicateAnalysis, predicates: Tuple[Predicate, ...]
    ) -> None:
        table = analysis.table
        self.analysis = analysis
        self.table = table
        self.predicates = predicates
        self.factors = [analysis.factor(p) for p in predicates]
        self.rows = rows = table.row_count
        self.cview = table.clustered_stats_view()
        self.selectivity_all = sel = CostModel.combine_selectivities(
            rows, self.factors
        )
        self.out_rows = max(0.0, sel * rows) if predicates else float(rows)

    def selectivity(self, positions: Sequence[int]) -> float:
        """Combined selectivity of the predicates at ``positions``, in
        that order."""
        factors = self.factors
        return CostModel.combine_selectivities(
            self.rows, [factors[i] for i in positions]
        )


@dataclasses.dataclass(eq=False, slots=True)
class _AccessCandidate:
    """One access path priced for one statement.  Its plan node is built
    on first request, so only a winning candidate pays for one."""

    path: _Path
    access: _Access
    out_rows: float
    cost: float
    #: An index seek's own cost and output estimate, before any lookup.
    seek_cost: float = 0.0
    seek_rows: float = 0.0
    _node: Optional[PlanNode] = None

    def node(self) -> PlanNode:
        if self._node is None:
            self._node = self._build()
        return self._node

    def _build(self) -> PlanNode:
        path = self.path
        predicates = self.access.predicates
        table = self.access.table.name
        kind = path.kind
        if kind == _CLUSTERED_SCAN:
            return ClusteredScanNode(
                est_rows=self.out_rows,
                est_cost=self.cost,
                table=table,
                residual=predicates,
            )
        if kind == _INDEX_SCAN:
            return IndexScanNode(
                est_rows=self.out_rows,
                est_cost=self.cost,
                table=table,
                index_name=path.index_name,
                residual=predicates,
                hypothetical=path.definition.hypothetical,
            )
        eq_preds = tuple(predicates[i] for i in path.eq_pos)
        range_pred = (
            predicates[path.range_pos] if path.range_pos is not None else None
        )
        residual = tuple(predicates[i] for i in path.residual_pos)
        if kind == _CLUSTERED_SEEK:
            return ClusteredSeekNode(
                est_rows=self.out_rows,
                est_cost=self.cost,
                table=table,
                eq_predicates=eq_preds,
                range_predicate=range_pred,
                residual=residual,
            )
        seek = IndexSeekNode(
            est_rows=self.seek_rows,
            est_cost=self.seek_cost,
            table=table,
            index_name=path.index_name,
            eq_predicates=eq_preds,
            range_predicate=range_pred,
            residual=residual,
            covering=path.covering,
            hypothetical=path.definition.hypothetical,
        )
        if path.covering:
            return seek
        return KeyLookupNode(
            est_rows=self.out_rows,
            est_cost=self.cost,
            child=seek,
            table=table,
            residual=tuple(predicates[i] for i in path.lookup_pos),
        )


@dataclasses.dataclass(eq=False)
class _JoinContext:
    """Outer-candidate-independent join planning state (one per
    statement, and one per configuration that improves the inner side)."""

    join: object
    right_rows: float
    distinct: float
    #: The inner side read per probe (the join key bound to PARAM) and
    #: as the hash build side.
    nl: _Access
    hash: _Access
    #: Best per-probe parameterized seek, or None if the inner side only
    #: scans.
    nl_inner: Optional[_AccessCandidate]
    #: Best build-side access for a hash join.
    hash_inner: _AccessCandidate


@dataclasses.dataclass
class BatchPricingStats:
    """Monotone counters for what-if batch traffic (per engine)."""

    #: What-if batches created (one per statement batch).
    batches: int = 0
    #: Configurations priced through a batch.
    configurations: int = 0
    #: Batches that found their caller's held substrate current.
    substrate_hits: int = 0
    #: Batches that had to build the statement substrate.
    substrate_misses: int = 0
    #: Always 0: there is no second planner to fall back to.  The field
    #: stays because ``benchmarks/e2e`` reads it by name.
    scalar_fallbacks: int = 0


@dataclasses.dataclass(eq=False)
class HeldSubstrate:
    """One statement's what-if substrate, held by the caller that keeps
    asking about the statement and dropped with it; ``stamp`` is the
    referenced tables' versions it was built at."""

    query: object
    stamp: tuple = ()
    substrate: object = None


class Optimizer:
    """Plans queries against a database's tables."""

    def __init__(self, tables: Dict[str, Table], cost_model: CostModel) -> None:
        self._tables = tables
        self._cost_model = cost_model
        #: Plan skeletons: statement shape -> (the referenced tables'
        #: versions, skeleton); see :meth:`_skeleton`.
        self._skeletons: Dict[Hashable, tuple] = {}
        #: Counters for what-if batch traffic.
        self.batch_stats = BatchPricingStats()
        #: The statement shaped last, and its shape (see :meth:`shape`).
        self._shaped: tuple = (None, None)

    # ------------------------------------------------------------------
    # Entry points

    def optimize(self, query, mi_sink: Optional[MiSink] = None) -> PlanNode:
        """Plan an executed statement: the cheapest estimated plan over
        existing indexes.

        The statement's substrate is built over its template's skeleton,
        priced with no hypothetical index and dropped (the same statement
        at the same table versions will not recur), and the plan's MI
        candidates go to ``mi_sink``.
        """
        with profile("optimizer_plan_search"):
            substrate = self._skeleton(query).substrate(self, query)
            plan = substrate.price(())
            if mi_sink is not None:
                substrate.emit_missing_indexes(
                    lambda emission: mi_sink(*emission)
                )
        return plan

    def whatif_substrate(self, held: HeldSubstrate):
        """``held``'s statement substrate: the one it holds while every
        referenced table's ``(schema, stats, data)`` versions are those
        it was built at, else a new one built over the skeleton and held
        in its place.

        This is the one place whole substrates are reused.  A stale
        substrate is never priced: sampled statistics built mid-session,
        DML between analysis windows and index DDL all move a version.
        """
        query = held.query
        stamp = tuple(
            (table.schema_version, table.stats_version, table.data_version)
            for table in map(self._tables.get, self._referenced_tables(query))
            if table is not None  # planning raises UnknownTableError
        )
        if held.substrate is not None and held.stamp == stamp:
            self.batch_stats.substrate_hits += 1
            return held.substrate
        self.batch_stats.substrate_misses += 1
        held.substrate = self._skeleton(query).substrate(self, query)
        held.stamp = stamp
        return held.substrate

    def shape(self, query) -> Optional[tuple]:
        """:func:`statement_shape` of ``query``, kept for the statement
        asked about last: the engine shapes a statement for its Query
        Store identity just before it plans it."""
        last, shape = self._shaped
        if query is not last:
            shape = statement_shape(query)
            self._shaped = (query, shape)
        return shape

    def _skeleton(self, query):
        """The skeleton for the statement's shape at the referenced
        tables' current index sets and statistics: found in the store,
        else built from this statement (and stored when it fits every
        statement of the shape).  The store keeps one skeleton per
        shape; a version mismatch rebuilds it in place.

        ``data_version`` is deliberately not part of the match: nothing
        in a skeleton depends on row counts or tree shapes, which every
        substrate reads live.
        """
        shape = self.shape(query)
        if shape is None:
            raise OptimizeError(f"cannot optimize {type(query).__name__}")
        table = self._table(query.table)
        versions = (table.schema_version, table.stats_version)
        join = getattr(query, "join", None)
        if join is not None:
            right = self._table(join.table)
            versions += (right.schema_version, right.stats_version)
        try:
            item = self._skeletons.get(shape)
        except TypeError:  # an unhashable column list: plan it uncached
            return _build_skeleton(self, query)
        if item is not None and item[0] == versions:
            return item[1]
        skeleton = _build_skeleton(self, query)
        if skeleton.reusable:
            self._skeletons[shape] = (versions, skeleton)
        return skeleton

    @staticmethod
    def _referenced_tables(query) -> Tuple[str, ...]:
        join = getattr(query, "join", None)
        if join is not None:
            return (query.table, join.table)
        return (query.table,)

    # ------------------------------------------------------------------
    # Helpers

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"table {name!r} does not exist") from None

    # ------------------------------------------------------------------
    # Pricing

    def _price(
        self,
        access: _Access,
        path: _Path,
        view: Optional[IndexStatsView] = None,
    ) -> _AccessCandidate:
        """Price one path for one statement.  ``view`` is a hypothetical
        index's estimated shape; existing structures are read live."""
        model = self._cost_model
        rows = access.rows
        kind = path.kind
        if view is None:
            view = (
                access.cview
                if path.definition is None
                else access.table.indexes[path.index_name].stats_view()
            )
        if kind == _CLUSTERED_SCAN or kind == _INDEX_SCAN:
            cost = model.scan_cost(view.leaf_pages, rows)
            return _AccessCandidate(path, access, access.out_rows, cost)
        seek_sel = access.selectivity(path.seek_pos)
        matched = seek_sel * rows
        pages = max(1.0, seek_sel * view.leaf_pages)
        residual = path.residual_pos
        cost = model.seek_cost(view.height, pages, matched)
        cost += matched * ROW_CPU * len(residual)
        if kind == _CLUSTERED_SEEK:
            return _AccessCandidate(path, access, access.out_rows, cost)
        rows_after_index = (
            matched * access.selectivity(residual) if residual else matched
        )
        if path.covering:
            return _AccessCandidate(
                path, access, rows_after_index, cost, cost, rows_after_index
            )
        lookup = model.lookup_cost(rows_after_index, access.cview.height)
        return _AccessCandidate(
            path, access, access.out_rows, cost + lookup, cost, access.out_rows
        )

    def _price_all(
        self,
        access: _Access,
        paths: Sequence[_Path],
        view: Optional[IndexStatsView] = None,
    ) -> List[_AccessCandidate]:
        """Price ``paths``: over existing structures, or over the one
        hypothetical index whose estimated shape is ``view``."""
        price = self._price
        return [price(access, path, view) for path in paths]


# ----------------------------------------------------------------------
# Missing-index emission


class _MiShape:
    """The literal-free half of MI emission for one table read.

    MI semantics (Section 5.2): equality predicate columns become
    EQUALITY columns, range predicate columns become INEQUALITY columns,
    other referenced columns become INCLUDE columns.  No join/group-by/
    order-by awareness and no maintenance costing.  ``ideal_path`` is the
    ideal index's seek.  The baseline is the cheapest existing access for
    the MI column set: the plan search's own candidates at positions
    ``reuse`` (clustered paths do not depend on the columns read, nor
    does a secondary path whose covering comes out the same), and the
    paths in ``extra`` priced for the MI column set alone.
    """

    __slots__ = (
        "eq_cols", "ineq_cols", "ideal", "ideal_path", "reuse", "extra",
        "_view",
    )

    def __init__(self, eq_cols, ineq_cols, ideal, ideal_path, reuse, extra):
        self.eq_cols = eq_cols
        self.ineq_cols = ineq_cols
        self.ideal = ideal
        self.ideal_path = ideal_path
        self.reuse = reuse
        self.extra = extra
        #: The ideal index's estimated shape at the last row count seen
        #: (a function of the row count alone).
        self._view: Optional[IndexStatsView] = None

    @classmethod
    def build(
        cls,
        table: Table,
        predicates: Tuple[Predicate, ...],
        referenced: Tuple[str, ...],
        paths: Optional[Sequence[_Path]],
    ) -> Optional["_MiShape"]:
        """The shape, or None when the read can never emit.  ``paths``
        are the plan search's existing paths; None means the caller
        supplies the baseline."""
        if not predicates:
            return None
        eq_cols = tuple(
            dict.fromkeys(p.column for p in predicates if p.is_equality)
        )
        ineq_cols = tuple(
            dict.fromkeys(
                p.column
                for p in predicates
                if p.is_range and p.column not in eq_cols
            )
        )
        if not eq_cols and not ineq_cols:
            return None
        key_cols = eq_cols + ineq_cols[:1]
        include_cols = tuple(
            dict.fromkeys(
                tuple(c for c in referenced if c not in key_cols)
                + ineq_cols[1:]
            )
        )
        ideal = IndexDefinition(
            name="_mi_ideal",
            table=table.name,
            key_columns=key_cols,
            included_columns=tuple(c for c in include_cols if c not in key_cols),
            hypothetical=True,
        )
        try:
            table.hypothetical_stats_view(ideal)
        except UnknownColumnError:
            return None  # a column the table does not have: no index to suggest
        pk = table.schema.primary_key
        seek = [
            path
            for path in _index_paths(pk, ideal, predicates, referenced)
            if path.kind == _INDEX_SEEK
        ]
        if not seek:
            return None
        reuse: List[int] = []
        extra: List[_Path] = []
        if paths is not None:
            reuse = [i for i, path in enumerate(paths) if path.definition is None]
            for index in table.indexes.values():
                for path in _index_paths(
                    pk, index.definition, predicates, referenced
                ):
                    same = [i for i, p in enumerate(paths) if p == path]
                    if same:
                        reuse.append(same[0])
                    else:
                        extra.append(path)
        return cls(eq_cols, ineq_cols, ideal, seek[0], tuple(reuse), extra)

    def emit(
        self,
        opt: Optimizer,
        access: _Access,
        existing: Sequence[_AccessCandidate],
        record: Callable[[tuple], None],
        existing_cost: Optional[float] = None,
    ) -> None:
        """Compare the statement's ideal index to the best access over
        existing structures only; report if it is better by the
        threshold.  ``existing_cost`` overrides the baseline (the join's
        build side)."""
        if access.rows == 0:
            return
        view = self._view
        if view is None or view.rows != access.rows:
            view = self._view = access.table.hypothetical_stats_view(self.ideal)
        candidate = opt._price(access, self.ideal_path, view)
        best_existing = existing_cost
        if best_existing is None:
            costs = [existing[i].cost for i in self.reuse]
            if self.extra:
                costs += [c.cost for c in opt._price_all(access, self.extra)]
            best_existing = min(costs)
        if candidate.cost >= best_existing * (1.0 - MI_REPORT_THRESHOLD):
            return
        impact = 100.0 * (1.0 - candidate.cost / best_existing)
        record(
            (
                access.table.name,
                self.eq_cols,
                self.ineq_cols,
                self.ideal.included_columns,
                best_existing,
                impact,
            )
        )


# ----------------------------------------------------------------------
# Skeletons and substrates
#
# DTA enumeration and MI impact verification price the *same statement*
# against many hypothetical configurations, and statement execution
# prices it against none.  Everything except the configuration's own
# access-path candidates is the same in all of these: the predicate
# analysis, the base (existing-structure) candidates, the join context,
# and the completion of each base candidate through join, aggregate,
# sort, and top.  A substrate computes that part once; ``price(extras)``
# costs only the candidates the extras contribute — memoized per index
# definition, since each is a deterministic function of the frozen
# definition at this substrate's table versions — and takes the first
# strict minimum over base candidates followed by extras in the order
# given.  Base candidates come first, so on a cost tie an existing
# structure beats a hypothetical one.
#
# The substrate's literal-free half is its skeleton, shared by every
# statement of a shape.


def _first_min(results, best=None):
    """First strict minimum of ``(candidate, cost, ctx)`` triples,
    continuing ``best``."""
    for result in results:
        if best is None or result[1] < best[1]:
            best = result
    return best


class _SelectSkeleton:
    """The literal-free plan space of one SELECT shape."""

    def __init__(self, opt: Optimizer, query: SelectQuery) -> None:
        table = opt._table(query.table)
        predicates = query.predicates
        self.needed = query.referenced_columns()
        self.paths = _table_paths(table, predicates, self.needed)
        hint = query.index_hint
        #: Positions of the paths an index hint leaves (None: no hint).
        self.base = None if hint is None else tuple(
            i for i, path in enumerate(self.paths) if path.index_name == hint
        )
        # MI's analysis is local, "predominantly in the leaf node of a
        # plan" (Section 5.1.1): the include list captures the plan
        # leaf's output — selected and filtered columns — but NOT columns
        # needed by upstream joins, aggregations, or sorts.  Both
        # baselines ignore an index hint.
        leaf_columns = tuple(
            dict.fromkeys(
                tuple(query.select_columns) + tuple(p.column for p in predicates)
            )
        )
        self.mi = _MiShape.build(table, predicates, leaf_columns, self.paths)
        self.order_wanted = tuple(i.column for i in query.order_by)
        # Access paths deliver ascending order only, so any descending
        # item forces a Sort regardless of column match.
        self.order_ascending = all(i.ascending for i in query.order_by)
        #: Whether a plan costs what its access path costs: no join,
        #: aggregate or ORDER BY (TOP moves only the row estimate).
        self.access_only = (
            query.join is None and not query.group_by
            and not query.aggregates and not query.order_by
        )
        self.join = (
            _JoinSkeleton(opt, query, table) if query.join is not None else None
        )
        self.reusable = not _repeats(
            [(p.column, p.op) for p in predicates]
        ) and (self.join is None or self.join.reusable)

    def substrate(self, opt: Optimizer, query: SelectQuery) -> "_SelectSubstrate":
        return _SelectSubstrate(opt, self, query)


class _JoinSkeleton:
    """The literal-free inner side of a SELECT's equi-join."""

    def __init__(self, opt: Optimizer, query: SelectQuery, outer: Table) -> None:
        join = query.join
        right = opt._table(join.table)
        self.self_join = right is outer
        self.right_needed = tuple(
            dict.fromkeys(
                (join.right_column,)
                + tuple(p.column for p in join.predicates)
                + tuple(join.select_columns)
            )
        )
        # Nested loop: parameterized seek on the inner side.  A nested
        # loop over a full inner scan per probe is almost never
        # competitive, so only seeks bound to the join key qualify and the
        # planner falls back to hash join otherwise.
        self.param = Predicate(join.right_column, Op.EQ, PARAM)
        nl_preds = (self.param,) + tuple(join.predicates)
        self.nl_paths = [
            path
            for path in _table_paths(right, nl_preds, self.right_needed)
            if path.param_seekable
        ]
        # Hash join: scan both sides, build on inner.
        hash_preds = tuple(join.predicates)
        self.hash_paths = _table_paths(right, hash_preds, self.right_needed)
        # The inner side's leaf read is the hash build side's: the same
        # predicates and the same columns.
        self.mi = _MiShape.build(right, hash_preds, self.right_needed, None)
        self.reusable = not _repeats([(p.column, p.op) for p in nl_preds])


class _SelectSubstrate:
    """Plan space of one SELECT."""

    def __init__(
        self, opt: Optimizer, skeleton: _SelectSkeleton, query: SelectQuery
    ) -> None:
        self._opt = opt
        self._skel = skeleton
        self._query = query
        table = opt._table(query.table)
        self._table = table
        self._outer = _Access(
            _PredicateAnalysis(opt._cost_model, table), query.predicates
        )
        self._existing = opt._price_all(self._outer, skeleton.paths)
        self._base_candidates = (
            self._existing if skeleton.base is None
            else [self._existing[i] for i in skeleton.base]
        )
        self._base_ctx: Optional[_JoinContext] = None
        if skeleton.join is not None:
            self._base_ctx = self._join_context()
        self._groups = 1.0
        for column in query.group_by:
            self._groups *= _distinct_estimate(table, column)
        #: Cheapest finished base plan; None only when an index hint
        #: names no existing index (an extra may still carry the name).
        self._base_best = _first_min(
            [self._finished(c, self._base_ctx) for c in self._base_candidates]
        )
        self._plans: Dict[tuple, PlanNode] = {}
        self._outer_memo: Dict[IndexDefinition, list] = {}
        self._finished_memo: Dict[IndexDefinition, list] = {}
        self._inner_memo: Dict[IndexDefinition, tuple] = {}
        self._ctx_memo: Dict[tuple, _JoinContext] = {}

    def _join_context(self) -> _JoinContext:
        """Inner-side planning shared by every outer access candidate.

        The inner side's best per-probe seek and best build-side access do
        not depend on the outer candidate, so they are computed once per
        SELECT rather than once per candidate.  A self-join shares the
        outer side's predicate analysis.
        """
        opt = self._opt
        join = self._query.join
        skel = self._skel.join
        right = opt._table(join.table)
        analysis = (
            self._outer.analysis
            if skel.self_join
            else _PredicateAnalysis(opt._cost_model, right)
        )
        nl = _Access(analysis, (skel.param,) + tuple(join.predicates))
        hash_ = _Access(analysis, tuple(join.predicates))
        return _JoinContext(
            join,
            hash_.selectivity_all * hash_.rows,
            _distinct_estimate(right, join.right_column),
            nl,
            hash_,
            min(
                opt._price_all(nl, skel.nl_paths),
                key=lambda c: c.cost,
                default=None,
            ),
            min(opt._price_all(hash_, skel.hash_paths), key=lambda c: c.cost),
        )

    def _finished(self, candidate: _AccessCandidate, ctx):
        """``(candidate, cost, ctx)``: the candidate completed into a
        full plan under the join context ``ctx``."""
        if self._skel.access_only:
            return candidate, candidate.cost, ctx
        return candidate, self._finish(candidate, ctx, False)[1], ctx

    def _finish(
        self,
        candidate: _AccessCandidate,
        ctx: Optional[_JoinContext],
        build: bool,
    ) -> Tuple[Optional[PlanNode], float]:
        """Complete one access candidate into a full plan's cost, and
        into its nodes when ``build``."""
        query = self._query
        model = self._opt._cost_model
        plan = candidate.node() if build else None
        rows = candidate.out_rows
        order = candidate.path.output_order
        cost = candidate.cost

        if ctx is not None:
            # Join output cardinality via the containment assumption.
            join_rows = max(
                1.0, rows * ctx.right_rows / max(1.0, ctx.distinct)
            )
            nl_cost = None
            if ctx.nl_inner is not None:
                nl_cost = cost + rows * ctx.nl_inner.cost
            hash_cost = (
                cost
                + ctx.hash_inner.cost
                + model.hash_cost(ctx.right_rows, rows)
            )
            if nl_cost is not None and nl_cost <= hash_cost:
                cost = nl_cost
                if build:
                    plan = NestedLoopJoinNode(
                        est_rows=join_rows,
                        est_cost=cost,
                        outer=plan,
                        inner=ctx.nl_inner.node(),
                        join=ctx.join,
                    )
            else:
                cost = hash_cost
                order = ()
                if build:
                    plan = HashJoinNode(
                        est_rows=join_rows,
                        est_cost=cost,
                        outer=plan,
                        inner=ctx.hash_inner.node(),
                        join=ctx.join,
                    )
            rows = join_rows

        group_by = query.group_by
        if group_by or query.aggregates:
            groups = min(rows, max(1.0, self._groups)) if group_by else 1.0
            if group_by and _order_satisfied(order, group_by):
                cost += model.aggregate_cost(rows, hashed=False)
                node_type = StreamAggregateNode
                order = group_by
            else:
                cost += model.aggregate_cost(rows, hashed=True)
                node_type = HashAggregateNode
                order = ()
            rows = groups
            if build:
                plan = node_type(
                    est_rows=rows,
                    est_cost=cost,
                    child=plan,
                    group_by=group_by,
                    aggregates=query.aggregates,
                )

        skel = self._skel
        if query.order_by and not (
            skel.order_ascending and _order_satisfied(order, skel.order_wanted)
        ):
            cost += model.sort_cost(rows)
            if build:
                plan = SortNode(
                    est_rows=rows,
                    est_cost=cost,
                    child=plan,
                    order_by=query.order_by,
                )

        if query.limit is not None:
            rows = min(rows, float(query.limit))
            if build:
                plan = TopNode(
                    est_rows=rows, est_cost=cost, child=plan, limit=query.limit
                )
        return plan, cost

    def price(self, extras: Tuple[IndexDefinition, ...]) -> PlanNode:
        candidate, _cost, ctx = self._search(extras)
        key = (candidate, ctx)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._finish(candidate, ctx, True)[0]
        return plan

    def cost(self, extras: Tuple[IndexDefinition, ...]) -> float:
        return self._search(extras)[1]

    def _search(self, extras: Tuple[IndexDefinition, ...]):
        """The winning ``(candidate, cost, ctx)`` under ``extras``."""
        best = self._price_extras(extras) if extras else self._base_best
        if best is None:
            raise ExecutionError(
                f"query hints index {self._query.index_hint!r} which does "
                f"not exist on table {self._table.name!r}"
            )
        return best

    def emit_missing_indexes(self, record: Callable[[tuple], None]) -> None:
        """MI candidates for the outer table and the join's inner table."""
        mi = self._skel.mi
        if mi is not None:
            mi.emit(self._opt, self._outer, self._existing, record)
        ctx = self._base_ctx
        if ctx is not None and self._skel.join.mi is not None:
            self._skel.join.mi.emit(
                self._opt, ctx.hash, (), record, ctx.hash_inner.cost
            )

    def contributes(self, definition: IndexDefinition) -> bool:
        """Whether the definition offers this statement an outer or a
        join-inner access candidate; if not, ``price`` is the same with
        and without it."""
        outer, inner = self._sides(definition)
        if outer and self._outer_candidates(definition):
            return True
        return inner and any(self._inner_candidates(definition))

    def _sides(self, definition: IndexDefinition) -> Tuple[bool, bool]:
        """Whether the outer access and the join's inner side can see it."""
        query = self._query
        hint = query.index_hint
        outer = definition.table == self._table.name and (
            hint is None or hint == definition.name
        )
        inner = query.join is not None and definition.table == query.join.table
        return outer, inner

    def _price_extras(self, extras: Tuple[IndexDefinition, ...]):
        outer_defs: List[IndexDefinition] = []
        inner_defs: List[IndexDefinition] = []
        for definition in extras:
            outer, inner = self._sides(definition)
            if outer:
                outer_defs.append(definition)
            if inner:
                inner_defs.append(definition)
        ctx = self._base_ctx
        if inner_defs:
            ctx = self._extended_ctx(tuple(inner_defs))
        if ctx is self._base_ctx:
            best = self._base_best
            for definition in outer_defs:
                best = _first_min(self._finished_outer(definition), best)
            return best
        # The configuration improved the join's inner side, which changes
        # every candidate's completion: re-finish each under the new
        # context (candidate enumeration itself is still reused).
        best = _first_min(
            self._finished(c, ctx) for c in self._base_candidates
        )
        for definition in outer_defs:
            best = _first_min(
                (
                    self._finished(c, ctx)
                    for c in self._outer_candidates(definition)
                ),
                best,
            )
        return best

    # -- per-definition memos ------------------------------------------

    def _outer_candidates(self, definition: IndexDefinition) -> list:
        cached = self._outer_memo.get(definition)
        if cached is None:
            table = self._table
            paths = _index_paths(
                table.schema.primary_key, definition, self._query.predicates,
                self._skel.needed,
            )
            cached = self._outer_memo[definition] = self._opt._price_all(
                self._outer, paths, _hypothetical_view(table, definition, paths)
            )
        return cached

    def _finished_outer(self, definition: IndexDefinition) -> list:
        cached = self._finished_memo.get(definition)
        if cached is None:
            cached = self._finished_memo[definition] = [
                self._finished(candidate, self._base_ctx)
                for candidate in self._outer_candidates(definition)
            ]
        return cached

    def _inner_candidates(self, definition: IndexDefinition) -> tuple:
        """(per-probe seeks, build-side accesses) the definition offers."""
        cached = self._inner_memo.get(definition)
        if cached is None:
            opt = self._opt
            ctx = self._base_ctx
            right = ctx.hash.table
            pk = right.schema.primary_key
            needed = self._skel.join.right_needed
            nl_paths = [
                path
                for path in _index_paths(
                    pk, definition, ctx.nl.predicates, needed
                )
                if path.param_seekable
            ]
            hash_paths = _index_paths(
                pk, definition, ctx.hash.predicates, needed
            )
            view = _hypothetical_view(
                right, definition, nl_paths or hash_paths
            )
            cached = self._inner_memo[definition] = (
                opt._price_all(ctx.nl, nl_paths, view),
                opt._price_all(ctx.hash, hash_paths, view),
            )
        return cached

    def _extended_ctx(self, inner_defs: tuple) -> _JoinContext:
        ctx = self._ctx_memo.get(inner_defs)
        if ctx is not None:
            return ctx
        base = self._base_ctx
        nl = base.nl_inner
        hash_best = base.hash_inner
        # First-minimum merge: an extra only wins with a strictly lower cost.
        for definition in inner_defs:
            nl_cands, hash_cands = self._inner_candidates(definition)
            for candidate in nl_cands:
                if nl is None or candidate.cost < nl.cost:
                    nl = candidate
            for candidate in hash_cands:
                if candidate.cost < hash_best.cost:
                    hash_best = candidate
        if nl is base.nl_inner and hash_best is base.hash_inner:
            ctx = base  # unchanged: lets price() reuse finished plans
        else:
            ctx = dataclasses.replace(base, nl_inner=nl, hash_inner=hash_best)
        self._ctx_memo[inner_defs] = ctx
        return ctx


class _InsertSkeleton:
    """The indexes an INSERT shape maintains."""

    reusable = True

    def __init__(self, opt: Optimizer, query: InsertQuery) -> None:
        table = opt._table(query.table)
        self.maintained = tuple(table.indexes)

    def substrate(self, opt: Optimizer, query: InsertQuery) -> "_InsertSubstrate":
        return _InsertSubstrate(opt, self, query)


class _InsertSubstrate:
    """Maintenance-cost prefix for an INSERT."""

    def __init__(
        self, opt: Optimizer, skeleton: _InsertSkeleton, query: InsertQuery
    ) -> None:
        self._opt = opt
        self._query = query
        table = opt._table(query.table)
        self._table = table
        model = opt._cost_model
        self._rows = float(len(query.rows))
        # Left-to-right accumulation: clustered tree first, then existing
        # indexes; extras append in price().
        cost = model.maintenance_cost(
            table.clustered_stats_view().height, self._rows
        )
        for name in skeleton.maintained:
            cost += model.maintenance_cost(
                table.indexes[name].stats_view().height, self._rows
            )
        self._base_cost = cost
        self._base_names = skeleton.maintained
        self._extra_memo: Dict[IndexDefinition, float] = {}

    def emit_missing_indexes(self, record: Callable[[tuple], None]) -> None:
        """An INSERT reads no rows, so it misses no index."""

    def contributes(self, definition: IndexDefinition) -> bool:
        """Whether the INSERT must maintain the definition."""
        return definition.table == self._table.name

    def price(self, extras: Tuple[IndexDefinition, ...]) -> PlanNode:
        names = self._base_names + tuple(
            definition.name for definition in extras
            if self.contributes(definition)
        )
        return InsertPlanNode(
            est_rows=self._rows,
            est_cost=self.cost(extras),
            table=self._table.name,
            row_count=len(self._query.rows),
            maintained_indexes=names,
        )

    def cost(self, extras: Tuple[IndexDefinition, ...]) -> float:
        """The maintenance sum, left to right (the one search)."""
        cost = self._base_cost
        for definition in extras:
            if not self.contributes(definition):
                continue
            maint = self._extra_memo.get(definition)
            if maint is None:
                view = self._table.hypothetical_stats_view(definition)
                maint = self._extra_memo[definition] = (
                    self._opt._cost_model.maintenance_cost(
                        view.height, self._rows
                    )
                )
            cost += maint
        return cost


class _DmlSkeleton:
    """The literal-free plan space of an UPDATE or DELETE shape."""

    def __init__(self, opt: Optimizer, query) -> None:
        table = opt._table(query.table)
        predicates = query.predicates
        self.needed = tuple(table.schema.column_names)
        self.paths = _table_paths(table, predicates, self.needed)
        #: UPDATE maintains only indexes its SET list touches, and pays a
        #: delete plus an insert in each; DELETE maintains every index.
        self.changed = (
            query.assigned_columns if isinstance(query, UpdateQuery) else None
        )
        self.maintained = tuple(
            name
            for name, index in table.indexes.items()
            if _maintains(table, index.definition, self.changed)
        )
        self.mi = _MiShape.build(
            table, predicates, tuple(p.column for p in predicates), self.paths
        )
        self.reusable = not _repeats([(p.column, p.op) for p in predicates])

    def substrate(self, opt: Optimizer, query) -> "_DmlSubstrate":
        return _DmlSubstrate(opt, self, query)


class _DmlSubstrate:
    """Access-path + maintenance substrate shared by UPDATE and DELETE.

    Unlike INSERT, the maintenance row count is the *winning* access
    candidate's output estimate, which can change per configuration, so
    maintenance terms are summed per price() from memoized tree heights.
    """

    def __init__(self, opt: Optimizer, skeleton: _DmlSkeleton, query) -> None:
        self._opt = opt
        self._skel = skeleton
        self._query = query
        table = opt._table(query.table)
        self._table = table
        self._outer = _Access(
            _PredicateAnalysis(opt._cost_model, table), query.predicates
        )
        self._existing = opt._price_all(self._outer, skeleton.paths)
        self._base_best = min(self._existing, key=lambda c: c.cost)
        self._factor = 1 if skeleton.changed is None else 2
        self._base_maintained = tuple(
            (name, table.indexes[name].stats_view().height)
            for name in skeleton.maintained
        )
        self._cview_height = table.clustered_stats_view().height
        #: definition -> (access candidates, maintained tree height or
        #: None when the statement does not write the index), or () when
        #: the definition neither serves nor is maintained by the
        #: statement.
        self._extra_memo: Dict[IndexDefinition, tuple] = {}

    def _extra(self, definition: IndexDefinition) -> tuple:
        cached = self._extra_memo.get(definition)
        if cached is None:
            cached = self._extra_memo[definition] = self._compute_extra(
                definition
            )
        return cached

    def _compute_extra(self, definition: IndexDefinition) -> tuple:
        table = self._table
        if definition.table != table.name:
            return ()
        paths = _index_paths(
            table.schema.primary_key, definition, self._query.predicates,
            self._skel.needed,
        )
        maintained = _maintains(table, definition, self._skel.changed)
        view = _hypothetical_view(table, definition, paths or maintained)
        if view is None:
            return ()
        candidates = self._opt._price_all(self._outer, paths, view)
        return candidates, view.height if maintained else None

    def emit_missing_indexes(self, record: Callable[[tuple], None]) -> None:
        """MI candidates for the read that locates the rows."""
        mi = self._skel.mi
        if mi is not None:
            mi.emit(self._opt, self._outer, self._existing, record)

    def contributes(self, definition: IndexDefinition) -> bool:
        """Whether the definition offers an access path to the rows or
        must be maintained by the write."""
        return bool(self._extra(definition))

    def price(self, extras: Tuple[IndexDefinition, ...]) -> PlanNode:
        best, cost, maintained = self._search(extras)
        names = tuple(name for name, _height in self._base_maintained) + tuple(
            definition.name for definition, _height in maintained
        )
        if self._skel.changed is not None:
            return UpdatePlanNode(
                est_rows=best.out_rows,
                est_cost=cost,
                child=best.node(),
                table=self._table.name,
                assignments=self._query.assignments,
                maintained_indexes=names,
            )
        return DeletePlanNode(
            est_rows=best.out_rows,
            est_cost=cost,
            child=best.node(),
            table=self._table.name,
            maintained_indexes=names,
        )

    def cost(self, extras: Tuple[IndexDefinition, ...]) -> float:
        return self._search(extras)[1]

    def _search(self, extras: Tuple[IndexDefinition, ...]):
        """``(winning access candidate, cost, maintained extras)``: the
        cost is the candidate's plus, in order, the clustered tree's, the
        existing indexes' and the extras' maintenance at its row
        estimate; the maintained extras are ``(definition, height)``."""
        model = self._opt._cost_model
        best = self._base_best
        maintained = []
        for definition in extras:
            extra = self._extra(definition)
            if not extra:
                continue
            candidates, height = extra
            for candidate in candidates:
                if candidate.cost < best.cost:
                    best = candidate
            if height is not None:
                maintained.append((definition, height))
        rows = best.out_rows
        factor = self._factor
        cost = best.cost + model.maintenance_cost(self._cview_height, rows)
        for _name, height in self._base_maintained:
            cost += factor * model.maintenance_cost(height, rows)
        for _definition, height in maintained:
            cost += factor * model.maintenance_cost(height, rows)
        return best, cost, maintained


def _maintains(
    table: Table,
    definition: IndexDefinition,
    changed_columns: Optional[Sequence[str]],
) -> bool:
    """Whether a statement changing ``changed_columns`` (None: whole rows)
    must maintain the index."""
    if changed_columns is None:
        return True
    relevant = set(definition.all_columns) | set(table.schema.primary_key)
    return any(c in relevant for c in changed_columns)


def _build_skeleton(opt: Optimizer, query):
    if isinstance(query, SelectQuery):
        return _SelectSkeleton(opt, query)
    if isinstance(query, InsertQuery):
        return _InsertSkeleton(opt, query)
    return _DmlSkeleton(opt, query)


# ----------------------------------------------------------------------
# Small helpers


def _hypothetical_view(
    table: Table, definition: IndexDefinition, wanted
) -> Optional[IndexStatsView]:
    """The hypothetical index's estimated shape when ``wanted`` (it
    offers a path, or a write maintains it), else None.  Its columns are
    validated either way, so an unknown column raises
    :class:`UnknownColumnError` whether or not the shape is needed."""
    if wanted:
        return table.hypothetical_stats_view(definition)
    table.hypothetical_widths(definition)
    return None


def _seek_prefix(
    key_columns: Tuple[str, ...], predicates: Sequence[Predicate]
):
    """``(equality prefix, range position, seek predicates)`` a seek on
    ``key_columns`` can use, or None when it can use none; the prefix
    and range are positions in ``predicates``.

    The prefix is the first equality predicate on each leading key column
    in turn; the range predicate is the first one on the key column after
    it, if any; the seek predicates are both, in that order.
    """
    equalities: Dict[str, int] = {}
    ranges: Dict[str, int] = {}
    for i, predicate in enumerate(predicates):
        if predicate.is_equality:
            equalities.setdefault(predicate.column, i)
        elif predicate.is_range:
            ranges.setdefault(predicate.column, i)
    eq_pos: List[int] = []
    for column in key_columns:
        if column not in equalities:
            break
        eq_pos.append(equalities[column])
    range_pos = None
    if len(eq_pos) < len(key_columns):
        range_pos = ranges.get(key_columns[len(eq_pos)])
    if not eq_pos and range_pos is None:
        return None
    prefix = tuple(eq_pos)
    positions = prefix + ((range_pos,) if range_pos is not None else ())
    return prefix, range_pos, tuple(predicates[i] for i in positions)


def _order_satisfied(
    available: Tuple[str, ...], wanted: Tuple[str, ...]
) -> bool:
    """True if ``available`` ordering covers ``wanted`` as a prefix."""
    if not wanted:
        return True
    if len(wanted) > len(available):
        return False
    return tuple(available[: len(wanted)]) == tuple(wanted)


def _distinct_estimate(table: Table, column: str) -> float:
    stats = table.statistics.get(column)
    if stats is not None and stats.distinct_count:
        return float(stats.distinct_count)
    return max(1.0, table.row_count / 10.0)
