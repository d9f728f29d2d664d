"""A from-scratch single-node relational engine simulator.

This subpackage is the substrate the auto-indexing service runs against.
It models the SQL Server surfaces the paper's service consumes:

- paged heap / B+ tree storage with logical-read accounting (:mod:`btree`,
  :mod:`heap`, :mod:`table`);
- a cost-based optimizer with histogram cardinality estimation, a
  controllable estimation-error model, and a what-if (hypothetical index)
  API (:mod:`optimizer`, :mod:`cost_model`);
- the Missing Indexes DMV (:mod:`missing_index`);
- Query Store interval runtime statistics (:mod:`query_store`);
- index usage statistics (:mod:`usage_stats`);
- a FIFO lock manager with managed lock priorities (:mod:`locks`);
- resource governance for tuning sessions (:mod:`resource_governor`);
- the control plane's online index build and low-priority drop
  (:mod:`ddl`).

The public entry point is :class:`repro.engine.engine.SqlEngine`.
"""

from repro.engine.engine import Database, SqlEngine
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import SqlType
from repro.engine.query import (
    Aggregate,
    DeleteQuery,
    InsertQuery,
    JoinSpec,
    Op,
    OrderItem,
    Predicate,
    SelectQuery,
    UpdateQuery,
)

__all__ = [
    "Aggregate",
    "Column",
    "Database",
    "DeleteQuery",
    "IndexDefinition",
    "InsertQuery",
    "JoinSpec",
    "Op",
    "OrderItem",
    "Predicate",
    "SelectQuery",
    "SqlEngine",
    "SqlType",
    "TableSchema",
    "UpdateQuery",
]
