"""Shared metering: raw work counters and finished execution metrics.

Both execution paths — the row-at-a-time interpreter and the vectorized
batch operators — charge their work into the same :class:`Meterings`
object using the same formulas.  That is the **metering-equivalence
contract**: for any plan both paths must leave byte-identical counter
values behind, so :class:`ExecutionMetrics` (and everything downstream
of it: MI emission, Query Store intervals, validation verdicts, the
deterministic parallel merge) cannot tell which path executed a
statement.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

from repro.engine.btree import PageMeter
from repro.engine.table import Table


@dataclasses.dataclass
class ExecutionMetrics:
    """Actual resource consumption of one statement execution."""

    cpu_time_ms: float = 0.0
    duration_ms: float = 0.0
    logical_reads: int = 0
    rows_returned: int = 0

    def scaled(self, factor: float) -> "ExecutionMetrics":
        return ExecutionMetrics(
            cpu_time_ms=self.cpu_time_ms * factor,
            duration_ms=self.duration_ms * factor,
            logical_reads=int(self.logical_reads * factor),
            rows_returned=self.rows_returned,
        )


class Meterings:
    """Accumulates raw work counters during one execution."""

    def __init__(self) -> None:
        self.page_meter = PageMeter()
        self.rows_processed = 0
        self.sort_rows = 0
        self.hash_rows = 0
        self.maintained_entries = 0
        #: Per-table column subset that row dictionaries must carry; None
        #: means all columns (DML paths need full rows).
        self.needed: Optional[Dict[str, Tuple[str, ...]]] = None

    def columns_for(self, table: Table) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """(names, positions) of the columns to materialize for a table."""
        schema = table.schema
        if self.needed is None or table.name not in self.needed:
            names = tuple(schema.column_names)
            return names, tuple(range(len(names)))
        names = self.needed[table.name]
        return names, tuple(schema.position(name) for name in names)


def hash_join_meter_rows(side_rows: int) -> int:
    """Hash-work charge for one side of a hash join.

    The interpreter charges one ``hash_rows`` unit per row it feeds the
    build table and one per row it probes with; the batch path charges
    the same totals for each side at once.  Rows are the *post-residual*
    stream out of the side's access path, not the raw table rows.
    """
    return max(0, side_rows)


def key_lookup_pages(lookups: int, height: int) -> int:
    """Page charge for ``lookups`` key lookups whose rows sit past the
    first position of their clustered leaves.

    The interpreter fetches each row with its own one-entry seek
    (``Table.fetch_by_pk``): a root-to-leaf descent, ``height`` pages,
    and no leaf hop, since such a key is reached on its own leaf (see
    :meth:`~repro.engine.btree.BPlusTree.fetch_sorted`).  The batch
    operator charges those lookups here at once; a key at position 0,
    which may pay hops, takes its real walk on both paths.
    """
    return lookups * height


def insert_meter_entries(rows: int, index_count: int) -> int:
    """``maintained_entries`` charge for inserting ``rows`` rows.

    Each row writes one clustered entry plus one entry per secondary
    index.  The one DML path calls this with the statement's affected
    row count; a one-row write is ``rows=1``.
    """
    return rows * (1 + index_count)


def delete_meter_entries(rows: int, index_count: int) -> int:
    """``maintained_entries`` charge for deleting ``rows`` rows.

    Symmetric with :func:`insert_meter_entries`: one clustered entry
    plus one per secondary index, per row.
    """
    return rows * (1 + index_count)


def update_meter_entries(rows: int, affected_index_count: int) -> int:
    """``maintained_entries`` charge for updating ``rows`` target rows.

    One clustered entry per row plus a delete+insert pair per *affected*
    index — an index whose columns intersect the assignment list.  The
    charge is per target row regardless of whether the assignment
    actually changed the row (matching SQL Server, which still logs the
    no-op row), while page charges apply only to genuinely changed rows.
    """
    return rows * (1 + 2 * affected_index_count)


def sort_meter_rows(rows: int, limit: Optional[int] = None) -> int:
    """Sort-work charge for sorting ``rows`` input rows.

    A full sort charges ``rows * log2(rows + 1)``.  With a TOP ``limit``
    pushed into the sort, only a bounded heap (interpreter) or a
    partition selection (vector path) is needed, so the charge drops to
    ``rows * log2(limit + 1)``.  Both paths call this one helper so the
    charge stays identical however the rows were actually ordered.
    """
    if rows <= 0:
        return 0
    effective = rows if limit is None else min(rows, max(0, limit))
    return max(0, int(rows * math.log2(effective + 1)))
