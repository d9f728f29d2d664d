"""Span-based tracing of the control plane's state machines.

The paper's engineers debug stuck state machines by following one
recommendation's journey through the micro-services (Sections 3, 4, 8).
A :class:`Tracer` reproduces that view: every recommendation gets a root
span, every state it occupies (Recommend -> Implement -> Validate ->
Revert/Complete) gets a child span, and every DTA/MI tuning session gets
its own span — all timestamped in *simulated* minutes so traces are
deterministic.

Spans are recorded into a :class:`SpanRecorder`, queryable by database
or kind, which the ``repro telemetry`` dashboard uses to render span
trees and the top-N slowest tuning sessions.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.observability.compliance import ensure_compliant

#: Every span kind the repo emits, linted by
#: ``scripts/check_observability_names.py`` the same way metric names
#: are: a ``tracer.start("...")`` call site with a literal kind must use
#: a name declared here.
SPAN_KIND_CATALOG: Dict[str, str] = {
    "recommendation": "Root span: one recommendation's full lifecycle.",
    "recommend": "The record's stay in the ACTIVE (recommended) state.",
    "implement": "The record's stay in the IMPLEMENTING state.",
    "validate": "The record's stay in the VALIDATING state.",
    "revert": "The record's stay in the REVERTING state.",
    "retry": "The record's stay in the RETRY state.",
    "dta_session": "One DTA tuning session over a managed database.",
    "analysis": "One recommender analysis pass (MI or DTA source).",
}


@dataclasses.dataclass
class Span:
    """One timed unit of state-machine or tuning work.

    Spans carry **dual clocks**: ``start``/``end`` are simulated minutes
    (deterministic, what the state-machine assertions and the merge
    compare), while ``wall_start``/``wall_end`` are real
    ``perf_counter`` seconds captured as a side channel so the trace
    exporter and :meth:`SpanRecorder.slowest` can rank by the host's
    actual time.  Wall values never participate in determinism checks —
    they differ run to run by construction.
    """

    span_id: int
    kind: str
    database: str
    start: float  # simulated minutes
    parent_id: Optional[int] = None
    end: Optional[float] = None
    outcome: str = ""
    attributes: Dict[str, object] = dataclasses.field(default_factory=dict)
    wall_start: Optional[float] = None  # perf_counter seconds
    wall_end: Optional[float] = None

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        """Simulated minutes from start to end; None while still open."""
        return None if self.end is None else self.end - self.start

    @property
    def wall_duration(self) -> Optional[float]:
        """Real seconds from start to end; None unless both were captured."""
        if self.wall_start is None or self.wall_end is None:
            return None
        return self.wall_end - self.wall_start


class SpanRecorder:
    """Store of finished and in-flight spans with query helpers.

    Retention is bounded by ``max_spans``: when the store exceeds the
    cap, the oldest *finished* root trees — a root plus all its
    descendants, every span closed — are evicted whole, oldest root
    first, until the store is back at or under the cap.  Trees with any
    open span are never evicted (the tracer still holds them), so the
    store can transiently exceed the cap while everything in it is live.
    """

    def __init__(self, max_spans: Optional[int] = 50_000) -> None:
        if max_spans is not None and max_spans < 1:
            raise TelemetryError("max_spans must be at least 1 (or None)")
        self.max_spans = max_spans
        self._spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._children: Dict[int, List[int]] = {}

    def record(self, span: Span) -> None:
        self._spans.append(span)
        self._by_id[span.span_id] = span
        if span.parent_id is not None:
            self._children.setdefault(span.parent_id, []).append(span.span_id)
        if self.max_spans is not None and len(self._spans) > self.max_spans:
            self._evict()

    def _tree_ids(self, span_id: int) -> List[int]:
        ids = [span_id]
        for child in self._children.get(span_id, ()):
            ids.extend(self._tree_ids(child))
        return ids

    def _evict(self) -> None:
        """Drop oldest finished root trees until at/under the cap."""
        overflow = len(self._spans) - self.max_spans
        evicted: set = set()
        for span in self._spans:
            if overflow <= 0:
                break
            if span.parent_id is not None:
                continue
            tree = self._tree_ids(span.span_id)
            if any(self._by_id[i].open for i in tree):
                continue
            evicted.update(tree)
            overflow -= len(tree)
        if not evicted:
            return
        self._spans = [s for s in self._spans if s.span_id not in evicted]
        for span_id in evicted:
            del self._by_id[span_id]
            self._children.pop(span_id, None)

    # ------------------------------------------------------------------
    # Queries

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def spans(
        self,
        kind: Optional[str] = None,
        database: Optional[str] = None,
        open_only: bool = False,
    ) -> List[Span]:
        out = []
        for span in self._spans:
            if kind is not None and span.kind != kind:
                continue
            if database is not None and span.database != database:
                continue
            if open_only and not span.open:
                continue
            out.append(span)
        return out

    def roots(self, database: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self._spans
            if s.parent_id is None
            and (database is None or s.database == database)
        ]

    def children(self, span_id: int) -> List[Span]:
        return [self._by_id[i] for i in self._children.get(span_id, ())]

    def tree(self, span_id: int) -> Tuple[Span, List]:
        """(span, [subtrees]) rooted at ``span_id``."""
        span = self._by_id[span_id]
        return span, [self.tree(child) for child in self._children.get(span_id, ())]

    def slowest(
        self,
        kinds: Tuple[str, ...],
        n: int = 5,
        database: Optional[str] = None,
        clock: str = "sim",
    ) -> List[Span]:
        """Top-``n`` closed spans of the given kinds by duration.

        ``clock="sim"`` ranks by simulated minutes (deterministic, the
        default); ``clock="wall"`` ranks by captured real seconds —
        spans without wall timestamps rank last.
        """
        if clock not in ("sim", "wall"):
            raise TelemetryError(f"clock must be 'sim' or 'wall', not {clock!r}")
        closed = [
            s
            for s in self._spans
            if s.kind in kinds
            and s.end is not None
            and (database is None or s.database == database)
        ]
        if clock == "wall":
            closed.sort(key=lambda s: (-(s.wall_duration or 0.0), s.span_id))
        else:
            closed.sort(key=lambda s: (-(s.duration or 0.0), s.span_id))
        return closed[:n]

    def __len__(self) -> int:
        return len(self._spans)


class Tracer:
    """Creates and closes spans against a :class:`SpanRecorder`.

    Simulated timestamps are passed explicitly by the caller (the control
    plane already has ``now`` in hand everywhere), keeping the tracer free
    of clock dependencies.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self._ids = itertools.count(1)

    def start(
        self,
        kind: str,
        database: str,
        at: float,
        parent: Optional[Span] = None,
        **attributes,
    ) -> Span:
        ensure_compliant(attributes, f"attributes of span {kind!r}")
        span = Span(
            span_id=next(self._ids),
            kind=kind,
            database=database,
            start=at,
            parent_id=parent.span_id if parent is not None else None,
            attributes=dict(attributes),
            wall_start=time.perf_counter(),
        )
        self.recorder.record(span)
        return span

    def end(self, span: Span, at: float, outcome: str = "ok", **attributes) -> Span:
        if span.end is not None:
            raise TelemetryError(
                f"span {span.span_id} ({span.kind}) closed twice"
            )
        if at < span.start:
            raise TelemetryError(
                f"span {span.span_id} would end before it started"
            )
        ensure_compliant(attributes, f"attributes of span {span.kind!r}")
        span.end = at
        span.outcome = outcome
        span.wall_end = time.perf_counter()
        span.attributes.update(attributes)
        return span
