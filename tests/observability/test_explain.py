"""Acceptance: ``repro explain`` reconstructs a revert, end to end.

Runs the seeded create->validate->revert scenario once through a real
ControlPlane and asserts the full decision-provenance story:

- the audit chain carries every lifecycle event with its evidence
  (what-if estimates, build timings, Welch t-test statistics, trigger
  statements);
- the rendered timeline joins the chain's evidence, the phase timings
  derived from it, and fleet context chronologically;
- the anomaly detector flags the revert-rate jump at the revert, and
  the watchdog pages on nothing (one revert is too short a burn);
- the JSONL dump replays into the same rendered timeline offline.
"""

from __future__ import annotations

import pytest

from repro.controlplane import RecommendationState
from repro.experiment.regression import run_regression_scenario
from repro.observability import AuditLog, render_dashboard, render_explain
from repro.observability.alerts import FLEET_SCOPE
from repro.observability.explain import build_timeline, decision_index, render_index


@pytest.fixture(scope="module")
def scenario():
    return run_regression_scenario()


#: The evidence events a full create->validate->revert chain must carry,
#: in causal order.
LIFECYCLE_EVENTS = [
    "recommendation_registered",
    "implementation_started",
    "implementation_completed",
    "validation_completed",
    "revert_decided",
    "revert_completed",
]


class TestScenario:
    def test_ends_reverted(self, scenario):
        assert scenario.final_state is RecommendationState.REVERTED
        record = scenario.plane.store.get(scenario.rec_id)
        assert record.state is RecommendationState.REVERTED
        # The index really is gone from the engine again.
        table = scenario.engine.database.table("events")
        assert all(not ix.auto_created for ix in table.indexes.values())

    def test_audit_chain_is_complete_and_causally_linked(self, scenario):
        chain = scenario.plane.audit.chain(scenario.rec_id)
        kinds = [e.event_type for e in chain]
        assert [k for k in kinds if k in LIFECYCLE_EVENTS] == LIFECYCLE_EVENTS
        # The state-machine spine: active -> implementing -> validating
        # -> reverting -> reverted.
        spine = [
            e.payload["to_state"] for e in chain if e.event_type == "state_changed"
        ]
        assert spine == ["implementing", "validating", "reverting", "reverted"]
        # parent_seq links every event to its predecessor in the chain.
        assert chain[0].parent_seq is None
        for prev, event in zip(chain, chain[1:]):
            assert event.parent_seq == prev.seq

    def test_evidence_payloads(self, scenario):
        audit = scenario.plane.audit
        (registered,) = audit.events(event_type="recommendation_registered")
        assert registered.payload["estimated_improvement_pct"] > 0
        assert registered.payload["key_columns"] == ["e_kind"]
        (completed,) = audit.events(event_type="implementation_completed")
        assert completed.payload["rows_built"] > 0
        assert completed.payload["build_cpu_ms"] > 0
        (validated,) = audit.events(event_type="validation_completed")
        assert validated.payload["verdict"] == "regressed"
        regressed = [
            s for s in validated.payload["statements"]
            if s["verdict"] == "regressed"
        ]
        assert regressed
        test = regressed[0]["tests"]["cpu_time_ms"]
        # The Welch evidence is complete and points the right way.
        assert test["mean_after"] > test["mean_before"]
        assert test["p_value"] < 0.05
        assert test["degrees_of_freedom"] > 0
        (decided,) = audit.events(event_type="revert_decided")
        assert decided.payload["trigger_query_ids"] == [
            s["query_id"] for s in regressed
        ]
        (reverted,) = audit.events(event_type="revert_completed")
        assert reverted.payload["method"] == "low_priority_drop"


class TestExplainRendering:
    def test_timeline_joins_all_three_sources(self, scenario):
        entries = build_timeline(
            scenario.plane.audit, scenario.database, scenario.rec_id
        )
        sources = {entry.source for entry in entries}
        assert sources == {"audit", "span", "fleet"}
        assert [e.at for e in entries] == sorted(e.at for e in entries)

    def test_fleet_scope_events_join_by_time(self, scenario):
        # Fleet-scope events carry no rec_id, so they join the timeline
        # by time as ambient [fleet] context: the scenario's own
        # anomalies, and an alert raised while this record is alive.
        audit = AuditLog.replay(scenario.plane.audit.to_jsonl())
        chain = audit.chain(scenario.rec_id)
        first, last = chain[0].at, chain[-1].at
        audit.emit(
            (first + last) / 2.0, "alert_raised", FLEET_SCOPE,
            rule="slo_revert_rate", value=2.0, samples=16, threshold=1.0,
            direction="above",
        )
        entries = build_timeline(audit, scenario.database, scenario.rec_id)
        fleet = [e for e in entries if e.source == "fleet"]
        assert fleet, "expected fleet-scope context entries"
        assert all(e.title.startswith("[fleet]") for e in fleet)
        assert any("alert_raised" in e.title for e in fleet)
        assert any("telemetry_anomaly" in e.title for e in fleet)
        assert all(first <= e.at <= last for e in fleet)
        text = "\n".join(
            render_explain(audit, scenario.database, scenario.rec_id)
        )
        assert "[fleet] alert_raised" in text

    def test_rendered_explain_tells_the_whole_story(self, scenario):
        text = "\n".join(
            render_explain(
                scenario.plane.audit, scenario.database, scenario.rec_id
            )
        )
        for kind in LIFECYCLE_EVENTS:
            assert kind in text
        # Welch numbers are shown inline, per statement and metric.
        assert "t=" in text and "dof=" in text and "p=" in text
        assert "cpu_time_ms: mean" in text
        assert "triggering statements:" in text
        assert (
            "state_changed  from_state=reverting note=reverted "
            "to_state=reverted" in text
        )
        # One phase line per state visited, derived from the chain.
        phases = [
            line.split("[span] ", 1)[1]
            for line in text.splitlines()
            if "[span] " in line
        ]
        assert phases == [
            "recommend 42.0m -> implementing",
            "implement 3.0m -> validating",
            "validate 150.0m -> reverting",
            "revert 0.0m -> reverted",
        ]

    def test_decision_index_lists_the_reverted_chain(self, scenario):
        (row,) = decision_index(scenario.plane.audit, scenario.database)
        assert row["rec_id"] == scenario.rec_id
        assert row["state"] == "reverted"
        assert row["action"] == "create" and row["source"] == "MI"
        text = "\n".join(render_index(scenario.plane.audit, scenario.database))
        assert "reverted" in text

    def test_jsonl_replay_reconstructs_the_timeline_offline(self, scenario):
        replayed = AuditLog.replay(scenario.plane.audit.to_jsonl())
        assert replayed.state_counts() == {"reverted": 1}
        offline = render_explain(replayed, scenario.database, scenario.rec_id)
        text = "\n".join(offline)
        assert "revert_decided" in text and "p=" in text
        # The replay explains exactly like the live run, line for line.
        assert offline == render_explain(
            scenario.plane.audit, scenario.database, scenario.rec_id
        )


class TestWatchdogOnScenario:
    def test_no_slo_pages_on_the_scenario(self, scenario):
        # One revert is too short a burn for slo_revert_rate, and no
        # other objective is near its ceiling: nothing pages.
        assert scenario.watchdog.active() == []
        raised = [
            e.payload["rule"]
            for e in scenario.plane.audit.events(event_type="alert_raised")
        ]
        assert raised == []

    def test_revert_rate_jump_is_an_anomaly_at_the_revert(self, scenario):
        # Fast detection of the revert is the anomaly detector's job.
        entries = build_timeline(
            scenario.plane.audit, scenario.database, scenario.rec_id
        )
        (decided,) = [e for e in entries if "revert_decided" in e.title]
        anomalies = [
            e for e in entries
            if e.title.startswith("[fleet] telemetry_anomaly")
            and "series=revert_rate" in e.title
        ]
        assert [e.at for e in anomalies] == [decided.at]

    def test_dashboard_shows_no_firing_alert(self, scenario):
        telemetry = scenario.plane.telemetry
        text = "\n".join(
            render_dashboard(
                telemetry.registry,
                watchdog=scenario.watchdog,
            )
        )
        assert "alerts:\n  (none firing)" in text
        assert "FIRING" not in text


class TestExecutorPanel:
    def test_fallback_breakdown_lists_nonzero_reasons_in_order(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge(
            "executor_vector_dispatch_total", database="db", path="vector"
        ).set(10)
        registry.gauge(
            "executor_vector_dispatch_total", database="db", path="interp"
        ).set(7)
        registry.gauge("executor_batch_rows", database="db").set(1234)
        registry.gauge(
            "executor_fallback_threshold_total", database="db"
        ).set(4)
        registry.gauge("executor_fallback_literal_total", database="db").set(3)
        text = "\n".join(render_dashboard(registry))
        assert "vectorized executor:" in text
        assert "fallbacks:       threshold 4, literal 3" in text

    def test_no_fallback_line_when_nothing_fell_back(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge(
            "executor_vector_dispatch_total", database="db", path="vector"
        ).set(10)
        text = "\n".join(render_dashboard(registry))
        assert "vectorized executor:" in text
        assert "fallbacks:" not in text


class TestTuningSessionPanel:
    """The panel reads ``tuning_session_duration_minutes`` only, so a
    replayed registry renders it exactly like the live run."""

    def test_one_line_per_source_with_count_quantiles_and_max(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for minutes in (1.7, 2.5, 4.6, 95.0):
            registry.histogram(
                "tuning_session_duration_minutes", source="DTA"
            ).observe(minutes)
        registry.histogram(
            "tuning_session_duration_minutes", source="MI"
        ).observe(0.0)
        lines = render_dashboard(registry)
        start = lines.index("tuning session duration:")
        assert lines[start + 1:start + 4] == [
            "  DTA  count     4  p50     3.9 m  p95     1.5 h  max     1.6 h",
            "  MI   count     1  p50     0.0 m  p95     0.0 m  max     0.0 m",
            "engine hot paths:",
        ]

    def test_empty_registry_says_no_sessions(self):
        from repro.observability.metrics import MetricsRegistry

        lines = render_dashboard(MetricsRegistry())
        start = lines.index("tuning session duration:")
        assert lines[start + 1] == "  (no tuning sessions recorded)"
