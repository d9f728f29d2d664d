"""Span-based tracing of the control plane's tuning work.

Every recommender analysis pass and every DTA tuning session gets one
flat span, timestamped in *simulated* minutes so traces are
deterministic, with the host's wall clock captured alongside.  A
recommendation's lifecycle is not traced here: its phase durations are
a view of the audit chain (:mod:`repro.observability.explain`).

Spans are recorded into a :class:`SpanRecorder`, queryable by database
or kind, which the ``repro telemetry`` dashboard uses to rank the top-N
slowest tuning sessions.
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
    "dta_session": "One DTA tuning session over a managed database.",
    "analysis": "One recommender analysis pass (MI or DTA source).",
}


@dataclasses.dataclass
class Span:
    """One timed unit of tuning work.

    Spans carry **dual clocks**: ``start``/``end`` are simulated minutes
    (deterministic, what the determinism checks and the merge compare),
    while ``wall_start``/``wall_end`` are real ``perf_counter`` seconds
    captured as a side channel so the trace exporter and
    :meth:`SpanRecorder.slowest` can rank by the host's actual time.
    Wall values never participate in determinism checks — they differ
    run to run by construction.
    """

    span_id: int
    kind: str
    database: str
    start: float  # simulated minutes
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


#: Retention cap of every :class:`SpanRecorder`.
MAX_SPANS = 50_000


class SpanRecorder:
    """Store of finished and in-flight spans with query helpers.

    Retention is bounded by :data:`MAX_SPANS`: when the store exceeds
    the cap, the oldest *closed* spans are evicted until it is back at
    or under the cap.  Open spans are never evicted (the tracer still
    holds them), so the store can transiently exceed the cap while
    everything in it is live.
    """

    def __init__(self) -> None:
        self._spans: List[Span] = []

    def record(self, span: Span) -> None:
        self._spans.append(span)
        if len(self._spans) > MAX_SPANS:
            self._evict()

    def _evict(self) -> None:
        """Drop the oldest closed spans until at/under the cap."""
        overflow = len(self._spans) - MAX_SPANS
        kept: List[Span] = []
        for span in self._spans:
            if overflow > 0 and not span.open:
                overflow -= 1
            else:
                kept.append(span)
        self._spans = kept

    # ------------------------------------------------------------------
    # Queries

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
        **attributes,
    ) -> Span:
        ensure_compliant(attributes, f"attributes of span {kind!r}")
        span = Span(
            span_id=next(self._ids),
            kind=kind,
            database=database,
            start=at,
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
