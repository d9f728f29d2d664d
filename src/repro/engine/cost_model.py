"""Optimizer cost model and the estimation-error mechanism.

Two cost systems coexist, deliberately:

- **Estimated cost** (abstract optimizer units) is what the optimizer and
  the what-if API compute from histograms.  A deterministic per
  (database, table, column, operator-kind) multiplicative error — modeling
  the optimizer's blindness to correlation, skew, and stale statistics —
  perturbs the histogram selectivities.  This is the paper's challenge #3:
  indexes estimated to help can actually hurt.
- **Actual cost** (milliseconds of CPU, logical page reads) is metered by
  the executor from the pages and rows it really touches.

Because the error is keyed deterministically, the same query template is
mis-estimated the same way every time, so the mistake is stable enough for
Query Store statistics and the validator to catch — exactly the
production situation the paper's validation component addresses.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.engine.plans import PARAM
from repro.engine.query import Predicate
from repro.engine.table import Table
from repro.rng import stable_hash


#: Cost of one sequentially read page.  The constants are calibrated to
#: the executor's actual-cost scale (ms-equivalents) so that the
#: optimizer's *systematic* model matches execution and mis-estimation
#: comes from cardinality errors, as in a real optimizer.
SEQ_PAGE = 0.045
#: Cost of one randomly read page (seek traversals, key lookups).
RAND_PAGE = 0.11
#: CPU cost per processed row.
ROW_CPU = 0.002
#: Extra per-row CPU for sorting (times log2 of the row count).
SORT_ROW_CPU = 0.0016
#: Extra per-row CPU for hashing (build + probe).
HASH_ROW_CPU = 0.003
#: Divisor of a severe under-estimate's selectivity (the optimizer then
#: seeks far more rows than predicted).  Callers vary how often, not how.
SEVERE_ERROR_FACTOR = 14.0


@dataclasses.dataclass
class CostModelSettings:
    """The estimation error callers vary."""

    #: Std-dev of the log-normal estimation error (0 = perfect estimates).
    error_sigma: float = 0.85
    #: Probability that a (table, column) pair is severely mis-estimated,
    #: modeling correlated predicates / out-of-model skew.  Calibrated so
    #: the closed-loop service reverts ~10% of automated actions
    #: (Section 8.1 reports ~11%).
    severe_error_rate: float = 0.10


class CostModel:
    """Selectivity and cost estimation with injected estimation error."""

    def __init__(
        self, db_seed: int, settings: Optional[CostModelSettings] = None
    ) -> None:
        self.db_seed = db_seed
        self.settings = settings or CostModelSettings()
        self._error_memo: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Estimation error

    def error_multiplier(self, table: str, column: str, op_kind: str) -> float:
        """Deterministic multiplicative error on a predicate's selectivity.

        Values < 1 under-estimate (dangerous: over-eager seek plans);
        values > 1 over-estimate (indexes look less useful than they are).

        A constant per database: memoized on everything the computation
        reads besides ``db_seed`` and module constants, so it costs its
        two hashes once, not once per predicate per planning.
        """
        settings = self.settings
        key = (
            table, column, op_kind, settings.error_sigma,
            settings.severe_error_rate,
        )
        multiplier = self._error_memo.get(key)
        if multiplier is None:
            multiplier = self._error_memo[key] = self._compute_error_multiplier(
                table, column, op_kind
            )
        return multiplier

    def _compute_error_multiplier(
        self, table: str, column: str, op_kind: str
    ) -> float:
        sigma = self.settings.error_sigma
        multiplier = 1.0
        if sigma > 0:
            h = stable_hash(self.db_seed, "esterr", table, column, op_kind)
            unit = (h % (1 << 30)) / float(1 << 30)
            # Box-Muller-free approximation of a standard normal via the
            # inverse-CDF of a logistic, adequate for an error model.
            unit = min(max(unit, 1e-9), 1 - 1e-9)
            z = math.log(unit / (1.0 - unit)) / 1.702
            multiplier = math.exp(sigma * z)
        if self.settings.severe_error_rate > 0:
            severe = stable_hash(self.db_seed, "severe", table, column)
            draw = (severe % (1 << 20)) / float(1 << 20)
            if draw < self.settings.severe_error_rate:
                multiplier /= SEVERE_ERROR_FACTOR
        if multiplier == 1.0:
            return 1.0
        return min(50.0, max(0.02, multiplier))

    # ------------------------------------------------------------------
    # Selectivity

    def predicate_selectivity(self, table: Table, predicate: Predicate) -> float:
        """Estimated selectivity of one predicate, error included."""
        stats = table.statistics.get(predicate.column)
        if predicate.value is PARAM:
            # Join-parameterized equality: estimated at the column density.
            if stats is not None and stats.density:
                return _clamp_selectivity(stats.density, table.row_count)
            return _clamp_selectivity(
                _DEFAULT_SELECTIVITY["eq"], table.row_count
            )
        kind = _op_kind(predicate)
        if stats is None:
            base = _DEFAULT_SELECTIVITY[kind]
        elif kind == "eq":
            base = stats.selectivity_eq(predicate.value)
        elif kind == "range":
            low, high, low_inc, high_inc = predicate.range_bounds()
            base = stats.selectivity_range(low, high, low_inc, high_inc)
        else:  # NEQ
            base = max(0.0, 1.0 - stats.selectivity_eq(predicate.value))
        error = self.error_multiplier(table.name, predicate.column, kind)
        return _clamp_selectivity(base * error, table.row_count)

    def combined_selectivity(
        self, table: Table, predicates: Sequence[Predicate]
    ) -> float:
        """Independence-assumption product of predicate selectivities."""
        return self.combine_selectivities(
            table.row_count,
            [self.predicate_selectivity(table, p) for p in predicates],
        )

    @staticmethod
    def combine_selectivities(row_count: int, factors: Iterable[float]) -> float:
        """The product of per-predicate ``factors`` in the order given,
        clamped to a table of ``row_count`` rows: the one combination
        rule, shared with the optimizer's per-statement memo of those
        factors."""
        selectivity = 1.0
        for factor in factors:
            selectivity *= factor
        return _clamp_selectivity(selectivity, row_count)

    # ------------------------------------------------------------------
    # Cost formulas (all return abstract optimizer units)

    def scan_cost(self, pages: int, rows: int) -> float:
        return pages * SEQ_PAGE + rows * ROW_CPU

    def seek_cost(
        self, height: int, leaf_pages_touched: float, rows_out: float
    ) -> float:
        io = height * RAND_PAGE
        io += max(0.0, leaf_pages_touched - 1) * SEQ_PAGE
        return io + rows_out * ROW_CPU

    def lookup_cost(self, rows: float, clustered_height: int) -> float:
        return rows * clustered_height * RAND_PAGE * 0.5 + rows * ROW_CPU

    def sort_cost(self, rows: float) -> float:
        if rows <= 1:
            return 0.0
        return rows * math.log2(rows + 1) * SORT_ROW_CPU

    def hash_cost(self, build_rows: float, probe_rows: float) -> float:
        return (build_rows + probe_rows) * HASH_ROW_CPU

    def aggregate_cost(self, rows: float, hashed: bool) -> float:
        per_row = HASH_ROW_CPU if hashed else ROW_CPU
        return rows * per_row

    def maintenance_cost(self, index_height: int, rows: float) -> float:
        """Estimated cost of maintaining one index for ``rows`` modifications.

        Mirrors the executor's actual charge: roughly one leaf write per
        modified index entry (upper tree levels are cached).
        """
        return rows * (RAND_PAGE + ROW_CPU)


@dataclasses.dataclass
class ExecutionCostSettings:
    """Where the executor takes its vectorized path.  The constants
    converting metered work into *actual* execution metrics, and their
    run-to-run noise, live in :mod:`repro.engine.exec.dispatch`."""

    #: Rows a scanned table needs before a SELECT the vectorized path
    #: supports is worth the projection build (0 vectorizes every such
    #: plan, ``sys.maxsize`` none).  Rows and metrics are byte-identical
    #: either way; this only changes how fast the host executes them.
    vector_min_rows: int = 256


def _op_kind(predicate: Predicate) -> str:
    if predicate.is_equality:
        return "eq"
    if predicate.is_range:
        return "range"
    return "neq"


_DEFAULT_SELECTIVITY = {"eq": 0.01, "range": 0.25, "neq": 0.9}


def _clamp_selectivity(selectivity: float, row_count: int) -> float:
    floor = 1.0 / row_count if row_count else 0.0
    return min(1.0, max(floor, selectivity)) if row_count else 0.0


def estimate_rows(selectivity: float, row_count: int) -> float:
    """Estimated row count for a selectivity over a table."""
    return selectivity * row_count


__all__: Tuple[str, ...] = (
    "CostModel",
    "CostModelSettings",
    "ExecutionCostSettings",
    "estimate_rows",
)
