"""Plan execution: an interpreted and a vectorized path behind one facade.

Package layout:

- :mod:`repro.engine.exec.metering` — shared work counters and the
  finished :class:`ExecutionMetrics` (the metering-equivalence contract);
- :mod:`repro.engine.exec.interp` — the reference row-at-a-time
  interpreter, plus the value-semantics helpers both paths share;
- :mod:`repro.engine.exec.columns` — the per-table columnar projection
  cache, patched with the rows each DML changed and rebuilt on index DDL;
- :mod:`repro.engine.exec.vector` — batch operators (mask scans,
  sorted-pass key lookups, rank-code grouping, lexsort, argpartition
  TOP-N);
- :mod:`repro.engine.exec.dispatch` — the :class:`Executor` facade that
  picks a path per SELECT from plan shape and table size, and runs DML
  on its one grouped-maintenance path.
"""

from repro.engine.exec.columns import ColumnarCache
from repro.engine.exec.dispatch import Executor
from repro.engine.exec.interp import (
    InterpExecutor,
    aggregate_values,
    compute_aggregate,
    stable_sum,
)
from repro.engine.exec.metering import (
    ExecutionMetrics,
    Meterings,
    sort_meter_rows,
)

__all__ = [
    "ColumnarCache",
    "ExecutionMetrics",
    "Executor",
    "InterpExecutor",
    "Meterings",
    "aggregate_values",
    "compute_aggregate",
    "sort_meter_rows",
    "stable_sum",
]
