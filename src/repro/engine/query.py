"""Query AST.

The engine does not parse SQL; workloads build structured query objects,
and replay and tuning reuse those objects rather than text.  The AST covers
the shapes the paper's recommenders care about: sargable equality and range
predicates, a single equi-join, GROUP BY with aggregates, ORDER BY, TOP,
and the three DML forms.

Every query exposes a stable ``template_key`` — the structural fingerprint
with parameter values stripped — which Query Store uses as the query
identity (the paper tunes *templates*, Section 5.3.2).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional, Sequence, Tuple

from repro.rng import stable_hash


class Op(enum.Enum):
    """Comparison operators supported in WHERE clauses."""

    EQ = "="
    NEQ = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "BETWEEN"

    @property
    def is_equality(self) -> bool:
        return self is Op.EQ

    @property
    def is_range(self) -> bool:
        return self in (Op.LT, Op.LE, Op.GT, Op.GE, Op.BETWEEN)


@dataclasses.dataclass(frozen=True)
class Predicate:
    """A sargable predicate ``column op value`` (or BETWEEN value AND value2)."""

    column: str
    op: Op
    value: object
    value2: object = None

    def __post_init__(self) -> None:
        if self.op is Op.BETWEEN and self.value2 is None:
            raise ValueError("BETWEEN requires value2")

    @property
    def is_equality(self) -> bool:
        return self.op.is_equality

    @property
    def is_range(self) -> bool:
        return self.op.is_range

    def matches(self, row_value: object) -> bool:
        """Evaluate the predicate against a concrete value (SQL NULL = no)."""
        if row_value is None:
            return False
        if self.op is Op.EQ:
            return row_value == self.value
        if self.op is Op.NEQ:
            return row_value != self.value
        try:
            if self.op is Op.LT:
                return row_value < self.value
            if self.op is Op.LE:
                return row_value <= self.value
            if self.op is Op.GT:
                return row_value > self.value
            if self.op is Op.GE:
                return row_value >= self.value
            if self.op is Op.BETWEEN:
                return self.value <= row_value <= self.value2
        except TypeError:
            return False
        raise AssertionError(f"unhandled op {self.op}")

    def range_bounds(self) -> Tuple[Optional[object], Optional[object], bool, bool]:
        """(low, high, low_inclusive, high_inclusive) for range predicates."""
        if self.op is Op.LT:
            return None, self.value, True, False
        if self.op is Op.LE:
            return None, self.value, True, True
        if self.op is Op.GT:
            return self.value, None, False, True
        if self.op is Op.GE:
            return self.value, None, True, True
        if self.op is Op.BETWEEN:
            return self.value, self.value2, True, True
        raise ValueError(f"{self.op} is not a range operator")


@dataclasses.dataclass(frozen=True)
class OrderItem:
    """One ORDER BY item."""

    column: str
    ascending: bool = True


class AggFunc(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


@dataclasses.dataclass(frozen=True)
class Aggregate:
    """An aggregate expression; ``column`` is None for COUNT(*)."""

    func: AggFunc
    column: Optional[str] = None

    def label(self) -> str:
        target = self.column if self.column else "*"
        return f"{self.func.value}({target})"


@dataclasses.dataclass(frozen=True)
class JoinSpec:
    """A single equi-join to a second table.

    ``left_column`` is on the outer (FROM) table, ``right_column`` on the
    joined table.  ``predicates`` apply to the joined table and
    ``select_columns`` are projected from it.
    """

    table: str
    left_column: str
    right_column: str
    predicates: Tuple[Predicate, ...] = ()
    select_columns: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class SelectQuery:
    """A single-block SELECT over one table with an optional equi-join."""

    table: str
    select_columns: Tuple[str, ...] = ()
    predicates: Tuple[Predicate, ...] = ()
    join: Optional[JoinSpec] = None
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[Aggregate, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    #: Optional index hint: force use of the named index (Section 5.4 —
    #: hinted indexes must never be dropped by the service).
    index_hint: Optional[str] = None

    @property
    def kind(self) -> str:
        return "SELECT"

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates) or bool(self.group_by)

    def referenced_columns(self) -> Tuple[str, ...]:
        """Columns of the *outer* table this query touches, in stable order."""
        seen: Dict[str, None] = {}
        for column in self.select_columns:
            seen.setdefault(column)
        for predicate in self.predicates:
            seen.setdefault(predicate.column)
        if self.join is not None:
            seen.setdefault(self.join.left_column)
        for column in self.group_by:
            seen.setdefault(column)
        for item in self.order_by:
            seen.setdefault(item.column)
        for aggregate in self.aggregates:
            if aggregate.column is not None:
                seen.setdefault(aggregate.column)
        return tuple(seen)

    def template_key(self) -> int:
        """Structural fingerprint ignoring parameter values."""
        parts = [
            "SELECT",
            self.table,
            ",".join(self.select_columns),
            ";".join(f"{p.column}{p.op.value}" for p in self.predicates),
            _join_part(self.join),
            ",".join(self.group_by),
            ",".join(a.label() for a in self.aggregates),
            ",".join(
                f"{o.column}{'+' if o.ascending else '-'}" for o in self.order_by
            ),
            "TOP" if self.limit is not None else "",
            self.index_hint or "",
        ]
        return stable_hash(*parts)


def _join_part(join: Optional[JoinSpec]) -> str:
    if join is None:
        return ""
    preds = ";".join(f"{p.column}{p.op.value}" for p in join.predicates)
    return (
        f"JOIN {join.table} ON {join.left_column}={join.right_column} "
        f"[{preds}] SEL[{','.join(join.select_columns)}]"
    )


@dataclasses.dataclass(frozen=True)
class InsertQuery:
    """INSERT of one or more fully specified rows."""

    table: str
    rows: Tuple[Tuple[object, ...], ...]
    #: BULK INSERT flavor: cannot be optimized by the what-if API until DTA
    #: rewrites it into an equivalent INSERT (Section 5.3.2).
    bulk: bool = False

    @property
    def kind(self) -> str:
        return "INSERT"

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        return ()

    def template_key(self) -> int:
        return stable_hash("INSERT", self.table, "BULK" if self.bulk else "")


@dataclasses.dataclass(frozen=True)
class UpdateQuery:
    """UPDATE ... SET assignments WHERE predicates."""

    table: str
    assignments: Tuple[Tuple[str, object], ...]
    predicates: Tuple[Predicate, ...] = ()

    @property
    def kind(self) -> str:
        return "UPDATE"

    @property
    def assigned_columns(self) -> Tuple[str, ...]:
        return tuple(column for column, _value in self.assignments)

    def template_key(self) -> int:
        return stable_hash(
            "UPDATE",
            self.table,
            ",".join(self.assigned_columns),
            ";".join(f"{p.column}{p.op.value}" for p in self.predicates),
        )


@dataclasses.dataclass(frozen=True)
class DeleteQuery:
    """DELETE FROM table WHERE predicates."""

    table: str
    predicates: Tuple[Predicate, ...] = ()

    @property
    def kind(self) -> str:
        return "DELETE"

    def template_key(self) -> int:
        return stable_hash(
            "DELETE",
            self.table,
            ";".join(f"{p.column}{p.op.value}" for p in self.predicates),
        )


Query = object  # typing alias documented for readers; no runtime checks


def equality_predicates(predicates: Sequence[Predicate]) -> Tuple[Predicate, ...]:
    """The equality predicates, in input order."""
    return tuple(p for p in predicates if p.is_equality)


def range_predicates(predicates: Sequence[Predicate]) -> Tuple[Predicate, ...]:
    """The range (inequality) predicates, in input order."""
    return tuple(p for p in predicates if p.is_range)
