"""Physical plan operators.

Plans are immutable trees produced by the optimizer and interpreted by the
executor.  Each node carries the optimizer's row and cost estimates so the
recommenders can reason about them, and each plan exposes:

- ``signature()`` — a stable structural string; its hash is the plan id
  Query Store tracks (the validator's "did the plan change?" check);
- ``referenced_indexes()`` — the secondary indexes the plan touches, which
  the validator uses to scope before/after comparisons to queries whose
  plan actually uses the new index (Section 6).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.engine.query import Aggregate, JoinSpec, OrderItem, Predicate
from repro.rng import stable_hash


class _ParamMarker:
    """Sentinel for a join-parameterized predicate value."""

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return "<PARAM>"


#: Placeholder value inside an inner-side seek predicate of a nested-loop
#: join; the executor substitutes the outer row's join value.
PARAM = _ParamMarker()


@dataclasses.dataclass(frozen=True)
class PlanNode:
    """Base class: estimated output rows and estimated total subtree cost."""

    est_rows: float
    est_cost: float

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def signature(self) -> str:
        raise NotImplementedError

    def referenced_indexes(self) -> Tuple[str, ...]:
        names: List[str] = []
        for child in self.children():
            names.extend(child.referenced_indexes())
        return tuple(dict.fromkeys(names))

    def plan_id(self) -> int:
        return stable_hash("plan", self.signature())

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# ----------------------------------------------------------------------
# Access paths


@dataclasses.dataclass(frozen=True)
class ClusteredScanNode(PlanNode):
    """Full scan of the clustered index with residual predicates."""

    table: str = ""
    residual: Tuple[Predicate, ...] = ()

    def signature(self) -> str:
        return f"ClusteredScan[{self.table}]"


@dataclasses.dataclass(frozen=True)
class ClusteredSeekNode(PlanNode):
    """Seek on a primary-key prefix of the clustered index."""

    table: str = ""
    eq_predicates: Tuple[Predicate, ...] = ()
    range_predicate: Optional[Predicate] = None
    residual: Tuple[Predicate, ...] = ()

    def signature(self) -> str:
        return f"ClusteredSeek[{self.table}]"


@dataclasses.dataclass(frozen=True)
class IndexSeekNode(PlanNode):
    """Seek on a secondary index: equality prefix + optional range."""

    table: str = ""
    index_name: str = ""
    eq_predicates: Tuple[Predicate, ...] = ()
    range_predicate: Optional[Predicate] = None
    #: Residual predicates evaluable from index columns alone.
    residual: Tuple[Predicate, ...] = ()
    #: True if the index supplies every column the query needs.
    covering: bool = True
    hypothetical: bool = False

    def signature(self) -> str:
        return f"IndexSeek[{self.index_name}]"

    def referenced_indexes(self) -> Tuple[str, ...]:
        return (self.index_name,)


@dataclasses.dataclass(frozen=True)
class IndexScanNode(PlanNode):
    """Leaf-level scan of a (narrower, covering) secondary index."""

    table: str = ""
    index_name: str = ""
    residual: Tuple[Predicate, ...] = ()
    hypothetical: bool = False

    def signature(self) -> str:
        return f"IndexScan[{self.index_name}]"

    def referenced_indexes(self) -> Tuple[str, ...]:
        return (self.index_name,)


@dataclasses.dataclass(frozen=True)
class KeyLookupNode(PlanNode):
    """Fetch full rows through the clustered index for a non-covering seek."""

    child: Optional[PlanNode] = None
    table: str = ""
    #: Predicates that need columns outside the child's index.
    residual: Tuple[Predicate, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,) if self.child is not None else ()

    def signature(self) -> str:
        inner = self.child.signature() if self.child is not None else "?"
        return f"{inner}->KeyLookup[{self.table}]"


# ----------------------------------------------------------------------
# Relational operators


@dataclasses.dataclass(frozen=True)
class SortNode(PlanNode):
    """Full sort of the child's output by the ORDER BY keys."""

    child: Optional[PlanNode] = None
    order_by: Tuple[OrderItem, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def signature(self) -> str:
        keys = ",".join(
            item.column + ("" if item.ascending else " DESC")
            for item in self.order_by
        )
        return f"Sort({keys})<-{self.child.signature()}"


@dataclasses.dataclass(frozen=True)
class TopNode(PlanNode):
    """TOP N: stops consuming the child after ``limit`` rows."""

    child: Optional[PlanNode] = None
    limit: int = 0

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def signature(self) -> str:
        return f"Top({self.limit})<-{self.child.signature()}"


@dataclasses.dataclass(frozen=True)
class StreamAggregateNode(PlanNode):
    """Aggregation over input already ordered by the group-by columns."""

    child: Optional[PlanNode] = None
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[Aggregate, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def signature(self) -> str:
        return f"StreamAgg({','.join(self.group_by)})<-{self.child.signature()}"


@dataclasses.dataclass(frozen=True)
class HashAggregateNode(PlanNode):
    """Hash aggregation for inputs with no useful ordering."""

    child: Optional[PlanNode] = None
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[Aggregate, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def signature(self) -> str:
        return f"HashAgg({','.join(self.group_by)})<-{self.child.signature()}"


@dataclasses.dataclass(frozen=True)
class NestedLoopJoinNode(PlanNode):
    """NLJ: for each outer row, execute the parameterized inner access.

    ``inner`` contains a seek predicate whose value is :data:`PARAM`; the
    executor binds it to the outer row's ``join.left_column`` value.
    """

    outer: Optional[PlanNode] = None
    inner: Optional[PlanNode] = None
    join: Optional[JoinSpec] = None

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.outer, self.inner)

    def signature(self) -> str:
        return (
            f"NLJoin({self.outer.signature()},{self.inner.signature()})"
        )


@dataclasses.dataclass(frozen=True)
class HashJoinNode(PlanNode):
    """Hash join: build on the inner (right) side, probe with the outer."""

    outer: Optional[PlanNode] = None
    inner: Optional[PlanNode] = None
    join: Optional[JoinSpec] = None

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.outer, self.inner)

    def signature(self) -> str:
        return (
            f"HashJoin({self.outer.signature()},{self.inner.signature()})"
        )


# ----------------------------------------------------------------------
# DML plans


@dataclasses.dataclass(frozen=True)
class InsertPlanNode(PlanNode):
    """INSERT: clustered write plus maintenance of every index."""

    table: str = ""
    row_count: int = 0
    maintained_indexes: Tuple[str, ...] = ()

    def signature(self) -> str:
        maintained = ",".join(sorted(self.maintained_indexes))
        return f"Insert[{self.table}|{maintained}]"

    def referenced_indexes(self) -> Tuple[str, ...]:
        return self.maintained_indexes


@dataclasses.dataclass(frozen=True)
class UpdatePlanNode(PlanNode):
    """UPDATE: locate rows via the child, maintain affected indexes."""

    child: Optional[PlanNode] = None
    table: str = ""
    assignments: Tuple[Tuple[str, object], ...] = ()
    maintained_indexes: Tuple[str, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def signature(self) -> str:
        maintained = ",".join(sorted(self.maintained_indexes))
        return f"Update[{self.table}|{maintained}]<-{self.child.signature()}"

    def referenced_indexes(self) -> Tuple[str, ...]:
        child_refs = self.child.referenced_indexes() if self.child else ()
        return tuple(dict.fromkeys(child_refs + self.maintained_indexes))


@dataclasses.dataclass(frozen=True)
class DeletePlanNode(PlanNode):
    """DELETE: locate rows via the child, remove from every index."""

    child: Optional[PlanNode] = None
    table: str = ""
    maintained_indexes: Tuple[str, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def signature(self) -> str:
        maintained = ",".join(sorted(self.maintained_indexes))
        return f"Delete[{self.table}|{maintained}]<-{self.child.signature()}"

    def referenced_indexes(self) -> Tuple[str, ...]:
        child_refs = self.child.referenced_indexes() if self.child else ()
        return tuple(dict.fromkeys(child_refs + self.maintained_indexes))
