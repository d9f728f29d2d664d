"""Tracer/SpanRecorder: lifecycle, double-close, queries, and retention."""

from __future__ import annotations

import pytest

import repro.observability.spans as spans
from repro.errors import TelemetryError
from repro.observability import SpanRecorder, Telemetry, Tracer


@pytest.fixture
def tracer():
    return Tracer(SpanRecorder())


class TestSpanLifecycle:
    def test_start_and_end(self, tracer):
        span = tracer.start("implement", "db1", at=10.0, rec_id=1)
        assert span.open and span.duration is None
        tracer.end(span, at=40.0, outcome="validating")
        assert not span.open
        assert span.duration == 30.0
        assert span.outcome == "validating"
        assert span.attributes["rec_id"] == 1

    def test_double_close_raises(self, tracer):
        span = tracer.start("implement", "db1", at=0.0)
        tracer.end(span, at=1.0)
        with pytest.raises(TelemetryError):
            tracer.end(span, at=2.0)

    def test_end_before_start_raises(self, tracer):
        span = tracer.start("implement", "db1", at=10.0)
        with pytest.raises(TelemetryError):
            tracer.end(span, at=5.0)

    def test_end_merges_attributes(self, tracer):
        span = tracer.start("dta_session", "db1", at=0.0, tier="standard")
        tracer.end(span, at=5.0, outcome="completed", whatif_calls=42)
        assert span.attributes == {"tier": "standard", "whatif_calls": 42}


class TestQueries:
    def test_spans_are_flat_and_kept_in_start_order(self, tracer):
        first = tracer.start("analysis", "db1", at=0.0)
        second = tracer.start("dta_session", "db1", at=5.0)
        third = tracer.start("analysis", "db2", at=6.0)
        tracer.end(second, at=7.0)
        assert [s.span_id for s in (first, second, third)] == [1, 2, 3]
        assert tracer.recorder.spans() == [first, second, third]
        assert len(tracer.recorder) == 3

    def test_query_by_kind_database_open(self, tracer):
        a = tracer.start("analysis", "db1", at=0.0)
        b = tracer.start("analysis", "db2", at=0.0)
        tracer.start("dta_session", "db1", at=0.0)
        tracer.end(a, at=1.0)
        assert len(tracer.recorder.spans(kind="analysis")) == 2
        assert tracer.recorder.spans(database="db1", kind="analysis") == [a]
        assert tracer.recorder.spans(kind="analysis", open_only=True) == [b]


class TestSlowest:
    def test_top_n_by_duration(self, tracer):
        durations = [5.0, 50.0, 20.0, 1.0]
        for i, duration in enumerate(durations):
            span = tracer.start("dta_session", f"db{i}", at=0.0)
            tracer.end(span, at=duration)
        open_span = tracer.start("dta_session", "db-open", at=0.0)
        top = tracer.recorder.slowest(("dta_session",), n=2)
        assert [s.duration for s in top] == [50.0, 20.0]
        assert open_span not in top

    def test_kinds_filter(self, tracer):
        a = tracer.start("analysis", "db1", at=0.0)
        tracer.end(a, at=2.0)
        b = tracer.start("other", "db1", at=0.0)
        tracer.end(b, at=99.0)
        top = tracer.recorder.slowest(("dta_session", "analysis"), n=5)
        assert top == [a]


class TestRetention:
    @pytest.fixture
    def cap(self, monkeypatch):
        monkeypatch.setattr(spans, "MAX_SPANS", 4)
        return 4

    def _finished(self, tracer, at, database="db1"):
        span = tracer.start("analysis", database, at=at)
        tracer.end(span, at=at + 1.0)
        return span

    def test_every_recorder_keeps_the_module_cap(self, cap):
        # The telemetry bundle's recorder, like any other, evicts at
        # MAX_SPANS: retention is not a per-recorder setting.
        tracer = Telemetry().tracer
        recorded = [self._finished(tracer, at=float(i)) for i in range(cap + 1)]
        assert tracer.recorder.spans() == recorded[1:]

    def test_under_the_cap_nothing_is_evicted(self, cap):
        tracer = Tracer(SpanRecorder())
        kept = [self._finished(tracer, at=float(i)) for i in range(cap)]
        assert tracer.recorder.spans() == kept

    def test_record_2x_cap_evicts_oldest_closed_spans(self, cap):
        # Record twice the cap: the store holds only the newest spans.
        recorder = SpanRecorder()
        tracer = Tracer(recorder)
        recorded = [self._finished(tracer, at=float(i)) for i in range(2 * cap)]
        assert len(recorder) == cap
        assert recorder.spans() == recorded[cap:]
        for span in recorded[:cap]:
            assert span not in recorder.spans()

    def test_open_spans_are_never_evicted(self, cap):
        recorder = SpanRecorder()
        tracer = Tracer(recorder)
        open_spans = [
            tracer.start("dta_session", "db1", at=float(i)) for i in range(cap)
        ]
        # The open spans already fill the cap; closed spans flow through
        # and are evicted, the open ones stay.
        for i in range(5):
            self._finished(tracer, at=10.0 + i)
        assert recorder.spans(open_only=True) == open_spans
        # A transient overshoot is allowed while nothing is evictable:
        # the open spans plus the newest closed span exceed the cap.
        assert len(recorder) == cap + 1
        assert all(s.open or s.start == 14.0 for s in recorder.spans())

    def test_closing_an_open_span_makes_it_evictable(self, cap):
        recorder = SpanRecorder()
        tracer = Tracer(recorder)
        old = tracer.start("dta_session", "db1", at=0.0)
        for i in range(cap - 1):
            self._finished(tracer, at=10.0 + i)
        tracer.end(old, at=50.0)
        # Eviction runs on record(): the next span pushes the now-closed
        # old span (the oldest) out.
        newest = self._finished(tracer, at=60.0)
        assert old not in recorder.spans()
        assert recorder.spans()[-1] is newest
        assert len(recorder) == cap
