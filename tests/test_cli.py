"""CLI tests (direct invocation of the argparse entry points)."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "data"

#: The fixed invocation behind the telemetry golden snapshot.  Small on
#: purpose: one database, one simulated day, pinned seed.
TELEMETRY_GOLDEN_ARGS = [
    "telemetry", "--dbs", "1", "--days", "1", "--seed", "3",
    "--format", "json",
]


#: Region-service metrics that read the host's wall clock.
WALL_CLOCK_METRICS = frozenset(
    {
        "fleet_phase_seconds",
        "fleet_shard_busy",
        "fleet_tick_attribution_ratio",
        "fleet_tick_skew_seconds",
        "fleet_tick_wall_seconds",
    }
)


def telemetry_payload(out: str) -> dict:
    return json.loads(out[out.index("{"):])


def without_wall_clock(payload: dict) -> dict:
    """The payload minus every host-dependent value: hot-path wall time,
    the wall-clock ``fleet_*`` metrics and wall-flagged history series."""
    for row in payload.get("hot_paths", []):
        row.pop("real_ms", None)
    payload["metrics"] = [
        metric for metric in payload["metrics"]
        if metric["name"] not in WALL_CLOCK_METRICS
    ]
    history = payload["history"]
    history["series"] = [s for s in history["series"] if not s["wall"]]
    return payload


def run_telemetry_golden_args(capsys) -> dict:
    """Run ``repro telemetry --format json`` at the golden's arguments."""
    assert main(TELEMETRY_GOLDEN_ARGS) == 0
    return telemetry_payload(capsys.readouterr().out)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig6_args(self):
        args = build_parser().parse_args(
            ["fig6", "--tier", "premium", "--dbs", "2", "--seed", "7"]
        )
        assert args.tier == "premium"
        assert args.dbs == 2
        assert args.seed == 7

    def test_ops_defaults(self):
        args = build_parser().parse_args(["ops"])
        assert args.days == 4
        assert args.tier == "standard"

    def test_telemetry_args(self):
        args = build_parser().parse_args(
            ["telemetry", "--days", "2", "--format", "prom"]
        )
        assert args.days == 2
        assert args.format == "prom"
        assert build_parser().parse_args(["telemetry"]).format == "dashboard"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "--format", "xml"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "--top", "3"])

    def test_slo_args(self):
        args = build_parser().parse_args(
            ["slo", "--days", "2", "--format", "json", "--fail-on-alert"]
        )
        assert args.days == 2
        assert args.format == "json"
        assert args.fail_on_alert
        assert build_parser().parse_args(["slo"]).format == "report"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["slo", "--format", "xml"])


class TestCommands:
    def test_ops_runs(self, capsys):
        assert main(["ops", "--dbs", "1", "--days", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "running the closed loop" in out
        assert "create recommendations" in out

    def test_telemetry_dashboard_runs(self, capsys):
        assert main(
            ["telemetry", "--dbs", "1", "--days", "1", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet telemetry" in out
        assert "engine hot paths" in out

    def test_telemetry_json_runs(self, capsys):
        import json

        assert main(
            ["telemetry", "--dbs", "1", "--days", "1", "--seed", "3",
             "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["schema"] == "repro-telemetry-v3"
        assert payload["metrics"]
        assert "spans" not in payload and "hot_paths" in payload

    @pytest.mark.slow
    def test_fig6_runs(self, capsys):
        assert main(["fig6", "--dbs", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "winner=" in out


class TestTelemetryGolden:
    """``repro telemetry --format json`` is byte-stable under a pinned
    seed: same simulator, same history, same payload.

    The golden pins everything except what reads the host clock:
    hot-path wall time, the region service's wall-clock ``fleet_*``
    metrics and its wall-flagged history series.  When a simulator
    change legitimately shifts the payload, regenerate with
    ``PYTHONPATH=src python tests/test_cli.py`` and review the diff like
    any other golden update.
    """

    GOLDEN = GOLDEN_DIR / "telemetry_golden.json"

    def test_matches_golden_snapshot(self, capsys):
        payload = without_wall_clock(run_telemetry_golden_args(capsys))
        golden = json.loads(self.GOLDEN.read_text())
        assert payload["schema"] == golden["schema"]
        assert payload == golden

    def test_only_tick_wall_time_is_a_wall_series(self, capsys):
        # Wall time is sampled into its own flagged series, so dropping
        # that one series leaves a history reproducible anywhere.
        history = run_telemetry_golden_args(capsys)["history"]
        assert history["schema"] == "repro-history-v2"
        assert history["last_tick"] >= 0
        assert [s["name"] for s in history["series"] if s["wall"]] == [
            "tick_wall_seconds"
        ]


class TestSloCommand:
    def test_replay_reports_from_dumped_history(self, capsys, tmp_path):
        from repro.observability.timeseries import TimeSeriesStore

        store = TimeSeriesStore()
        for tick in range(300):
            store.observe("revert_rate", tick, 0.9)
            store.observe("validation_failure_rate", tick, 0.1)
            store.observe("time_to_implement_minutes", tick, 10.0)
        history = tmp_path / "history.jsonl"
        store.dump(str(history))

        # Alerting alone does not change the exit code without
        # --fail-on-alert; the report is informational.
        assert main(["slo", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "slo_revert_rate" in out
        assert "ALERTING" in out
        assert "burn-rate alerts: slo_revert_rate" in out

    def test_replay_reports_from_a_v1_dump(self, capsys):
        # Written by the tiered (schema v1) store; the report is the one
        # that store's own `repro slo --history` printed.
        history = GOLDEN_DIR / "history_v1.jsonl"
        assert main(["slo", "--history", str(history)]) == 0
        captured = capsys.readouterr()
        assert "replayed 2 history series" in captured.err
        assert (
            "  slo_revert_rate                      0.9000/0.7200      "
            "       3.00/2.40      <= 0.3      ALERTING"
        ) in captured.out
        assert "burn-rate alerts: slo_revert_rate" in captured.out

    def test_fail_on_alert_exits_nonzero(self, capsys, tmp_path):
        from repro.observability.timeseries import TimeSeriesStore

        store = TimeSeriesStore()
        for tick in range(300):
            store.observe("revert_rate", tick, 0.9)
        history = tmp_path / "history.jsonl"
        store.dump(str(history))
        assert main(
            ["slo", "--history", str(history), "--fail-on-alert"]
        ) == 1
        assert "ALERTING" in capsys.readouterr().out

    def test_json_format_and_status_dump(self, capsys, tmp_path):
        from repro.observability.slo import SLO_CATALOG, replay_statuses
        from repro.observability.timeseries import TimeSeriesStore

        store = TimeSeriesStore()
        for tick in range(64):
            store.observe("revert_rate", tick, 0.0)
        history = tmp_path / "history.jsonl"
        store.dump(str(history))
        slo_out = tmp_path / "slo.jsonl"
        assert main(
            ["slo", "--history", str(history), "--format", "json",
             "--slo-out", str(slo_out)]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("["):out.rindex("]") + 1])
        assert {row["name"] for row in payload} == set(SLO_CATALOG)
        statuses = replay_statuses(slo_out.read_text())
        assert [s.name for s in statuses] == sorted(SLO_CATALOG)


def _regenerate_golden() -> None:  # pragma: no cover - manual tool
    """Regenerate the telemetry golden (run from the repo root)."""
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(TELEMETRY_GOLDEN_ARGS) == 0
    payload = without_wall_clock(telemetry_payload(buffer.getvalue()))
    GOLDEN_DIR.mkdir(exist_ok=True)
    target = GOLDEN_DIR / "telemetry_golden.json"
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate_golden()
