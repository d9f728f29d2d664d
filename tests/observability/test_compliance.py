"""No customer data in telemetry, at any nesting depth (Section 1.2)."""

from __future__ import annotations

import pytest

from repro.observability import AuditLog, MetricsRegistry, find_forbidden_keys
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
    @pytest.mark.parametrize(
        "kind, name",
        [
            ("counter", "events_total"),
            ("gauge", "records_in_state"),
            ("histogram", "tuning_session_duration_minutes"),
        ],
    )
    def test_forbidden_label_name_rejected(self, kind, name):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            getattr(registry, kind)(name, text="SELECT secret")
        # The rejected series is never materialized.
        assert registry.all_series() == []
