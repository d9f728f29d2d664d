"""Span recorder for the traced run, installed from outside the program.

Nothing under ``src/`` knows about this file.  The traced child wraps the
layers' public callables (class attributes, replaced at runtime and put
back by :meth:`Recorder.uninstall`) and keeps every span in memory; the
per-layer table and the Chrome/Perfetto ``trace_event`` file are written
once, when the run ends.  The arithmetic — self time, the percentile
rule, coverage — lives in pure functions at the bottom so the tests can
check it without running the program.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: (name, start, end, parent index or -1, root index).
Span = Tuple[str, float, float, int, int]

ROOT = "root"
#: Spans whose self time is loop overhead no layer owns.
UNATTRIBUTED = (ROOT, "loop.fleet_run", "loop.workload_run")
#: Percentiles a latency may be reported at, lowest first.
PERCENTILE_LADDER = (50, 75, 90, 95, 99)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_SAMPLES_BEYOND = 10


class Recorder:
    """In-memory spans plus the wrappers that produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording

    def wrap(
        self,
        fn: Callable,
        name: str,
        name_of: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` bracketed by a span.  ``name_of(*args)`` picks the span
        name per call; ``after(result, *args)`` reads counts at the same
        boundary."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][4] if stack else index
            span = [name_of(*args) if name_of else name, 0.0, 0.0, parent, root]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn: Callable[[], None]) -> None:
        """Run one unit of client work under its own root span."""
        self.wrap(fn, ROOT)()

    def patch(self, owner: object, attribute: str, name: str, **options) -> None:
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, **options))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


class Tally:
    """Counts read at span boundaries (things the program returns to its
    caller but keeps no counter of)."""

    def __init__(self) -> None:
        self.logical_reads = 0.0
        self.rows_returned = 0
        self.sim_cpu_ms = 0.0
        self.mi_recommendations = 0
        self.cost_cache_hits = 0
        self.cost_cache_calls = 0

    def executed(self, result, *_args) -> None:
        metrics = result[1]
        self.logical_reads += metrics.logical_reads
        self.rows_returned += metrics.rows_returned
        self.sim_cpu_ms += metrics.cpu_time_ms

    def mi_recommended(self, result, *_args) -> None:
        self.mi_recommendations += len(result)

    def session_ran(self, _result, session) -> None:
        stats = session.whatif.stats
        self.cost_cache_hits += stats.cache_hits
        self.cost_cache_calls += stats.calls


def empty_span_cost(calls: int = 20_000) -> float:
    """Measured seconds one span around an empty call costs."""
    empty = Recorder().wrap(lambda: None, "probe")
    started = time.perf_counter()
    for _ in range(calls):
        empty()
    return (time.perf_counter() - started) / calls


def _exec_span_name(_executor, _plan, query) -> str:
    return "exec.select" if query.kind == "SELECT" else "exec.dml"


def install(recorder: Recorder, tally: Tally) -> None:
    """Wrap every layer boundary the per-layer table names."""
    from repro.controlplane.control_plane import ControlPlane
    from repro.controlplane.services.implement_service import (
        ImplementationService,
    )
    from repro.controlplane.services.recommend_service import (
        RecommendationService,
    )
    from repro.controlplane.services.validate_service import ValidationService
    from repro.engine.engine import SqlEngine, WhatIfBatch
    from repro.engine.exec.dispatch import Executor
    from repro.engine.optimizer import Optimizer
    from repro.engine.query_store import QueryStore
    from repro.engine.table import Table
    from repro.fleet import Fleet
    from repro.observability.alerts import AlertWatchdog
    from repro.observability.timeseries import TelemetryHistory
    from repro.recommender.classifier import LowImpactClassifier
    from repro.recommender.drop_recommender import DropRecommender
    from repro.recommender.dta.session import DtaSession
    from repro.recommender.mi_recommender import MiRecommender
    from repro.validation.validator import Validator
    from repro.workload.generator import Workload
    from repro.workload.templates import QueryTemplate

    patch = recorder.patch
    patch(Fleet, "run_workloads", "loop.fleet_run")
    patch(Workload, "run", "loop.workload_run")
    patch(Workload, "sample_template", "workload.sample")
    patch(QueryTemplate, "sample", "workload.sample")
    patch(SqlEngine, "execute", "engine.facade")
    patch(Optimizer, "optimize", "optimizer.plan")
    patch(Executor, "execute", "exec", name_of=_exec_span_name,
          after=tally.executed)
    patch(QueryStore, "record", "query_store.record")
    patch(Table, "create_index", "storage.index_build")
    patch(Table, "drop_index", "storage.index_build")
    patch(WhatIfBatch, "price", "whatif.price")
    patch(SqlEngine, "whatif_optimize", "whatif.price")
    patch(DtaSession, "run", "dta.session", after=tally.session_ran)
    patch(MiRecommender, "take_snapshot", "mi.snapshot")
    patch(MiRecommender, "recommend", "mi.recommend",
          after=tally.mi_recommended)
    patch(DropRecommender, "recommend", "drop.recommend")
    patch(ControlPlane, "process", "controlplane.process")
    for method in ("snapshot", "analyze", "analyze_drops"):
        patch(RecommendationService, method, "controlplane.recommend")
    for method in ("begin", "drive", "drive_revert"):
        patch(ImplementationService, method, "implement")
    patch(ValidationService, "drive", "validate")
    patch(Validator, "validate", "validate.test")
    patch(TelemetryHistory, "observe_tick", "observability.history")
    patch(AlertWatchdog, "evaluate", "observability.watchdog")
    patch(LowImpactClassifier, "fit", "service.retrain")


# ----------------------------------------------------------------------
# Pure arithmetic


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _name, start, end, _parent, _root in spans]
    for _name, start, end, parent, _root in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds and inclusive seconds.

    Inclusive time counts a span only when no ancestor carries the same
    name, so recursion is not counted twice.
    """
    table: Dict[str, Dict[str, float]] = {}
    own = self_times(spans)
    for index, (name, start, end, parent, _root) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total_s"] += end - start
    return table


def unattributed_share(table: Dict[str, Dict[str, float]]) -> float:
    """Self time of the root and loop spans over the traced total."""
    total = table.get(ROOT, {}).get("total_s", 0.0)
    if total <= 0:
        return 0.0
    loose = sum(table[name]["self_s"] for name in UNATTRIBUTED if name in table)
    return loose / total


def durations_of(spans: Iterable[Span], name: str) -> List[float]:
    return [end - start for n, start, end, _p, _r in spans if n == name]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest value with at least ``pct``
    percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)  # ceil
    return ordered[max(0, int(rank) - 1)]


def highest_supported_percentile(count: int) -> int:
    """The highest rung of :data:`PERCENTILE_LADDER` that still leaves
    :data:`MIN_SAMPLES_BEYOND` samples beyond it; 50 when none does."""
    supported = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        if count * (100 - pct) / 100.0 >= MIN_SAMPLES_BEYOND:
            supported = pct
    return supported


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    spans: Sequence[Span],
    tally: "Tally",
    counts: Dict[str, float],
    scale: float,
    db_days: float,
    span_cost_s: float,
) -> Dict[str, float]:
    """Every per-layer metric a single process can measure.

    ``counts`` are program-counter differences over the timed region,
    ``scale`` turns measured seconds into reference-speed seconds, and
    ``span_cost_s`` is the measured cost of one empty span.  A layer the
    workload never enters reports 0.
    """
    table = layer_table(spans)

    def self_s(*names: str) -> float:
        return scale * sum(table[n]["self_s"] for n in names if n in table)

    def total_s(name: str) -> float:
        return scale * table.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def count(name: str) -> float:
        return counts.get(name, 0.0)

    statements = durations_of(spans, "engine.facade")
    traced_s = total_s(ROOT)
    plane_s = total_s("controlplane.process")
    executed = count("exec.stmts_vector") + count("exec.stmts_interp")
    overhead_s = scale * span_cost_s * len(spans)
    return {
        "workload.sample_s": self_s("workload.sample"),
        "workload.stmts": count("workload.stmts"),
        "engine.facade_self_s": self_s("engine.facade"),
        "engine.stmt_p50_us": (
            scale * 1e6 * percentile(statements, 50) if statements else 0.0
        ),
        "engine.stmt_p99_us": (
            scale * 1e6 * percentile(statements, 99) if statements else 0.0
        ),
        "engine.sim_cpu_ms_per_stmt": _ratio(
            tally.sim_cpu_ms, calls("exec.select") + calls("exec.dml")
        ),
        "query_store.record_s": self_s("query_store.record"),
        "query_store.records": calls("query_store.record"),
        "optimizer.plan_s": self_s("optimizer.plan"),
        "optimizer.calls": calls("optimizer.plan"),
        "plan_cache.hit_rate": _ratio(
            count("plan_cache.hits"),
            count("plan_cache.hits") + count("plan_cache.misses"),
        ),
        "plan_cache.evictions": count("plan_cache.evictions"),
        "exec.select_s": self_s("exec.select"),
        "exec.dml_s": self_s("exec.dml"),
        "exec.stmts_vector": count("exec.stmts_vector"),
        "exec.stmts_interp": count("exec.stmts_interp"),
        "exec.fallback_share": _ratio(count("exec.stmts_interp"), executed),
        "exec.logical_reads_per_row": _ratio(
            tally.logical_reads, tally.rows_returned
        ),
        "column_cache.hit_rate": _ratio(
            count("column_cache.hits"),
            count("column_cache.hits") + count("column_cache.misses"),
        ),
        "column_cache.invalidations": count("column_cache.invalidations"),
        "storage.index_build_s": self_s("storage.index_build"),
        "storage.index_builds": calls("storage.index_build"),
        "whatif.price_s": self_s("whatif.price"),
        "whatif.calls": count("whatif.calls"),
        "whatif.configs_per_batch": _ratio(
            count("whatif.configurations"), count("whatif.batches")
        ),
        "whatif.substrate_hit_rate": _ratio(
            count("whatif.substrate_hits"),
            count("whatif.substrate_hits") + count("whatif.substrate_misses"),
        ),
        "whatif.scalar_fallbacks": count("whatif.scalar_fallbacks"),
        "dta.session_s": self_s("dta.session"),
        "dta.sessions": calls("dta.session"),
        "dta.cost_cache_hit_rate": _ratio(
            tally.cost_cache_hits,
            tally.cost_cache_hits + tally.cost_cache_calls,
        ),
        "mi.snapshot_s": self_s("mi.snapshot"),
        "mi.recommend_s": self_s("mi.recommend"),
        "mi.recommendations": tally.mi_recommendations,
        "drop.recommend_s": self_s("drop.recommend"),
        "controlplane.self_s": self_s(
            "controlplane.process", "controlplane.recommend"
        ),
        "controlplane.tuning_cpu_ratio": _ratio(plane_s, traced_s - plane_s),
        "controlplane.tuning_cpu_s_per_db_day": _ratio(plane_s, db_days),
        "implement.s": self_s("implement"),
        "implement.builds": count("implement.builds"),
        "validate.s": self_s("validate", "validate.test"),
        "validate.validations": calls("validate.test"),
        "validate.reverts": count("validate.reverts"),
        "recommender.analysis_deferred": count("recommender.analysis_deferred"),
        "observability.history_s": self_s("observability.history"),
        "observability.watchdog_s": self_s("observability.watchdog"),
        "observability.audit_events": count("observability.audit_events"),
        "service.retrain_s": self_s("service.retrain"),
        "trace.unattributed_share": unattributed_share(table),
        "trace.overhead_ratio": _ratio(traced_s, traced_s - overhead_s) or 1.0,
    }


def trace_events(spans: Sequence[Span], origin: Optional[float] = None) -> dict:
    """Chrome/Perfetto ``trace_event`` JSON: one complete ("X") event per
    span, timestamps in microseconds from the first span."""
    if origin is None:
        origin = min((start for _n, start, _e, _p, _r in spans), default=0.0)
    events = [
        {
            "name": name,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"root": root},
        }
        for name, start, end, _parent, root in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(path: str, spans: Sequence[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace_events(spans), handle)
