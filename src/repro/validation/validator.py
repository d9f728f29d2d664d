"""The validator (Section 6): compare execution statistics around an index
change, detect significant regressions, and decide whether to revert.

Key design points taken from the paper:

- **Logical metrics first.** CPU time and logical reads are representative
  of plan quality and less noisy than duration or physical IO.
- **Plan-change scoping.** Only statements that executed both before and
  after the change *and* whose plan changed because of the index are
  considered: after a CREATE the new plan must reference the index; after
  a DROP the old plan must have referenced it.
- **Welch t-test.** Query Store supplies count/mean/stddev per plan; the
  test (unequal variances) decides statistical significance despite
  production noise.
- **Two trigger modes.** ``CONSERVATIVE`` reverts when any statement that
  consumes a significant share of the database's resources regresses;
  ``AGGREGATE`` reverts only when the execution-weighted net effect over
  all affected statements is a regression (which may leave individual
  statements regressed).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.engine import SqlEngine
from repro.engine.query_store import MetricAggregate, RuntimeStats
from repro.validation.stats_tests import WelchResult, welch_t_test


class ValidationMode(enum.Enum):
    """Revert-trigger mode (Section 6's two alternatives)."""

    CONSERVATIVE = "conservative"
    AGGREGATE = "aggregate"


class Verdict(enum.Enum):
    """Judgement for one statement or for the whole index change."""

    IMPROVED = "improved"
    REGRESSED = "regressed"
    NEUTRAL = "neutral"


@dataclasses.dataclass
class ValidationSettings:
    """Validator thresholds."""

    mode: ValidationMode = ValidationMode.CONSERVATIVE
    #: Significance level of the Welch t-test.
    alpha: float = 0.05
    #: Minimum relative worsening of a logical metric to call regression.
    regression_threshold: float = 0.25
    #: Minimum relative improvement to call a statement improved.
    improvement_threshold: float = 0.10
    #: CONSERVATIVE mode: only statements consuming at least this share of
    #: the database's resources (before-window) can trigger a revert.
    min_resource_share: float = 0.02
    #: AGGREGATE mode: net weighted change that triggers a revert.
    aggregate_regression_threshold: float = 0.10
    #: Metrics examined, in order of authority.
    metrics: Tuple[str, ...] = ("cpu_time_ms", "logical_reads")
    #: Minimum executions on each side for a statement to be judged.
    min_executions: int = 3


@dataclasses.dataclass
class StatementVerdict:
    """Validation result for one statement."""

    query_id: int
    verdict: Verdict
    resource_share: float
    tests: Dict[str, WelchResult]
    executions_before: int
    executions_after: int

    # The raw Welch evidence, surfaced so audit events and ``repro
    # explain`` can show the numbers that drove the verdict (not just
    # the enum).  ``cpu_time_ms`` is the authoritative metric.

    @property
    def primary_metric(self) -> Optional[str]:
        if "cpu_time_ms" in self.tests:
            return "cpu_time_ms"
        return next(iter(self.tests), None)

    @property
    def primary_test(self) -> Optional[WelchResult]:
        metric = self.primary_metric
        return self.tests[metric] if metric is not None else None

    @property
    def t_statistic(self) -> Optional[float]:
        test = self.primary_test
        return test.t_statistic if test is not None else None

    @property
    def degrees_of_freedom(self) -> Optional[float]:
        test = self.primary_test
        return test.degrees_of_freedom if test is not None else None

    @property
    def p_value(self) -> Optional[float]:
        test = self.primary_test
        return test.p_value if test is not None else None

    def to_payload(self) -> dict:
        """JSON-serializable evidence for the audit stream."""
        return {
            "query_id": self.query_id,
            "verdict": self.verdict.value,
            "resource_share": self.resource_share,
            "executions_before": self.executions_before,
            "executions_after": self.executions_after,
            "tests": {
                metric: result.to_payload()
                for metric, result in self.tests.items()
            },
        }


@dataclasses.dataclass
class ValidationOutcome:
    """Validation result for one index change."""

    index_name: str
    action: str  # "create" | "drop"
    verdict: Verdict
    should_revert: bool
    statements: List[StatementVerdict]
    #: Execution-weighted relative CPU change across affected statements.
    aggregate_change: float
    observed_statements: int
    details: str = ""

    @property
    def improved_count(self) -> int:
        return sum(1 for s in self.statements if s.verdict is Verdict.IMPROVED)

    @property
    def regressed_count(self) -> int:
        return sum(1 for s in self.statements if s.verdict is Verdict.REGRESSED)

    def to_payload(self) -> dict:
        """JSON-serializable evidence for the audit stream."""
        return {
            "index_name": self.index_name,
            "action": self.action,
            "verdict": self.verdict.value,
            "should_revert": self.should_revert,
            "aggregate_change": self.aggregate_change,
            "observed_statements": self.observed_statements,
            "details": self.details,
            "statements": [s.to_payload() for s in self.statements],
        }


def _merge_by_query(
    window: Dict[Tuple[int, int], RuntimeStats]
) -> Dict[int, Dict[str, object]]:
    """Collapse per-(query, plan) stats into per-query summaries."""
    merged: Dict[int, Dict[str, object]] = {}
    for (query_id, plan_id), stats in window.items():
        entry = merged.setdefault(
            query_id,
            {
                "plans": set(),
                "executions": 0,
                "metrics": {name: MetricAggregate() for name in stats.metrics},
            },
        )
        entry["plans"].add(plan_id)
        entry["executions"] += stats.executions
        for name, aggregate in stats.metrics.items():
            entry["metrics"][name] = entry["metrics"][name].merge(aggregate)
    return merged


class Validator:
    """Validates one index change against Query Store windows."""

    def __init__(
        self, engine: SqlEngine, settings: Optional[ValidationSettings] = None
    ) -> None:
        self.engine = engine
        self.settings = settings or ValidationSettings()

    # ------------------------------------------------------------------

    def validate(
        self,
        index_name: str,
        action: str,
        before: Tuple[float, float],
        after: Tuple[float, float],
    ) -> ValidationOutcome:
        """Judge an index change given before/after time windows."""
        statements = self.judge_windows(
            before,
            after,
            lambda plans_before, plans_after: self._plan_changed_due_to_index(
                index_name, action, plans_before, plans_after
            ),
        )
        return self.decide(index_name, action, statements)

    def judge_windows(
        self,
        before: Tuple[float, float],
        after: Tuple[float, float],
        in_scope: Optional[Callable[[set, set], bool]] = None,
    ) -> List[StatementVerdict]:
        """One verdict per statement executed often enough in both
        windows and, when ``in_scope`` is given, whose (before plans,
        after plans) it accepts."""
        settings = self.settings
        qs = self.engine.query_store
        before_stats = _merge_by_query(qs.aggregate(before[0], before[1]))
        after_stats = _merge_by_query(qs.aggregate(after[0], after[1]))
        total_before_cpu = sum(
            entry["metrics"]["cpu_time_ms"].total for entry in before_stats.values()
        )
        statements: List[StatementVerdict] = []
        for query_id, entry_after in after_stats.items():
            entry_before = before_stats.get(query_id)
            if entry_before is None:
                continue
            if (
                entry_before["executions"] < settings.min_executions
                or entry_after["executions"] < settings.min_executions
            ):
                continue
            if in_scope is not None and not in_scope(
                entry_before["plans"], entry_after["plans"]
            ):
                continue
            tests = {}
            for metric in settings.metrics:
                agg_before: MetricAggregate = entry_before["metrics"][metric]
                agg_after: MetricAggregate = entry_after["metrics"][metric]
                tests[metric] = welch_t_test(
                    agg_before.mean,
                    agg_before.stddev,
                    agg_before.count,
                    agg_after.mean,
                    agg_after.stddev,
                    agg_after.count,
                )
            share = (
                entry_before["metrics"]["cpu_time_ms"].total / total_before_cpu
                if total_before_cpu > 0
                else 0.0
            )
            statements.append(
                StatementVerdict(
                    query_id=query_id,
                    verdict=self._statement_verdict(tests),
                    resource_share=share,
                    tests=tests,
                    executions_before=entry_before["executions"],
                    executions_after=entry_after["executions"],
                )
            )
        return statements

    # ------------------------------------------------------------------

    def _plan_changed_due_to_index(
        self, index_name: str, action: str, plans_before: set, plans_after: set
    ) -> bool:
        qs = self.engine.query_store
        if plans_before == plans_after:
            return False
        if action == "create":
            return any(
                index_name in (qs.plan_info(p).referenced_indexes if qs.plan_info(p) else ())
                for p in plans_after
            )
        return any(
            index_name in (qs.plan_info(p).referenced_indexes if qs.plan_info(p) else ())
            for p in plans_before
        )

    def _statement_verdict(self, tests: Dict[str, WelchResult]) -> Verdict:
        settings = self.settings
        regressed = False
        improved = False
        for metric in settings.metrics:
            result = tests[metric]
            if not result.significant(settings.alpha):
                continue
            change = result.relative_change
            if change > settings.regression_threshold:
                regressed = True
            elif change < -settings.improvement_threshold:
                improved = True
        # CPU is the authoritative metric when the two disagree; logical
        # reads almost always agree with it since both are plan-driven.
        if regressed and not improved:
            return Verdict.REGRESSED
        if regressed and improved:
            cpu = tests.get("cpu_time_ms")
            if cpu is not None and cpu.significant(settings.alpha):
                return (
                    Verdict.REGRESSED
                    if cpu.relative_change > settings.regression_threshold
                    else Verdict.IMPROVED
                )
            return Verdict.NEUTRAL
        if improved:
            return Verdict.IMPROVED
        return Verdict.NEUTRAL

    def decide(
        self, index_name: str, action: str, statements: List[StatementVerdict]
    ) -> ValidationOutcome:
        """The change's outcome from its statements' verdicts, under the
        mode's revert trigger."""
        settings = self.settings
        # Execution-weighted aggregate change (fixed-count comparison: means
        # weighted by before-executions, so differing counts don't bias).
        weighted_before = 0.0
        weighted_after = 0.0
        for statement in statements:
            cpu = statement.tests.get("cpu_time_ms")
            if cpu is None:
                continue
            weight = statement.executions_before
            weighted_before += cpu.mean_before * weight
            weighted_after += cpu.mean_after * weight
        aggregate_change = (
            (weighted_after - weighted_before) / weighted_before
            if weighted_before > 0
            else 0.0
        )
        if settings.mode is ValidationMode.CONSERVATIVE:
            triggers = [
                s
                for s in statements
                if s.verdict is Verdict.REGRESSED
                and s.resource_share >= settings.min_resource_share
            ]
            should_revert = bool(triggers)
            details = (
                f"{len(triggers)} significant statement regression(s)"
                if triggers
                else ""
            )
        else:
            should_revert = (
                aggregate_change > settings.aggregate_regression_threshold
            )
            details = f"aggregate change {aggregate_change:+.1%}"
        improved = sum(1 for s in statements if s.verdict is Verdict.IMPROVED)
        regressed = sum(1 for s in statements if s.verdict is Verdict.REGRESSED)
        if should_revert or (regressed > improved and aggregate_change > 0):
            verdict = Verdict.REGRESSED
        elif improved > 0 and aggregate_change < 0:
            verdict = Verdict.IMPROVED
        else:
            verdict = Verdict.NEUTRAL
        return ValidationOutcome(
            index_name=index_name,
            action=action,
            verdict=verdict,
            should_revert=should_revert,
            statements=statements,
            aggregate_change=aggregate_change,
            observed_statements=len(statements),
            details=details,
        )
