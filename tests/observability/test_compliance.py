"""No customer data in telemetry, at any nesting depth (Section 1.2)."""

from __future__ import annotations

import pytest

from repro.observability import AuditLog, MetricsRegistry, Tracer, find_forbidden_keys
from repro.observability.compliance import ensure_compliant


class TestFindForbiddenKeys:
    def test_top_level(self):
        assert find_forbidden_keys({"query_text": "SELECT 1"}) == ["query_text"]

    def test_nested_dict(self):
        found = find_forbidden_keys({"stats": {"inner": {"literal": 5}}})
        assert found == ["stats.inner.literal"]

    def test_dict_inside_list(self):
        found = find_forbidden_keys({"rows": [{"ok": 1}, {"text": "secret"}]})
        assert found == ["rows[1].text"]

    def test_list_inside_tuple(self):
        found = find_forbidden_keys({"batch": ({"parameters": []},)})
        assert found == ["batch[0].parameters"]

    def test_clean_payload(self):
        payload = {"rec_id": 3, "stats": [{"cpu_ms": 1.0}], "note": "ok"}
        assert find_forbidden_keys(payload) == []
        ensure_compliant(payload)  # does not raise


class TestAuditPayloadCompliance:
    def test_top_level_key_rejected(self):
        log = AuditLog()
        with pytest.raises(ValueError):
            log.emit(0.0, "candidate_rejected", "db1", query_text="SELECT secret")

    def test_nested_key_rejected(self):
        log = AuditLog()
        with pytest.raises(ValueError):
            log.emit(0.0, "candidate_rejected", "db1", details={"query_text": "SELECT secret"})

    def test_key_inside_list_rejected(self):
        log = AuditLog()
        with pytest.raises(ValueError):
            log.emit(0.0, "candidate_rejected", "db1", statements=[{"literal": 42}])


class TestMetricLabelCompliance:
    def test_forbidden_label_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("events_total", text="SELECT secret")


class TestSpanAttributeCompliance:
    def test_forbidden_attribute_rejected_at_start(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.start("analysis", "db1", at=0.0, query_text="SELECT 1")

    def test_forbidden_nested_attribute_rejected_at_end(self):
        tracer = Tracer()
        span = tracer.start("analysis", "db1", at=0.0)
        with pytest.raises(ValueError):
            tracer.end(span, at=1.0, result={"statements": [{"text": "x"}]})
        # The failed close must not have closed the span.
        assert span.open
