"""Command-line interface.

Six subcommands mirror the repo's main entry points:

- ``repro demo`` — the quickstart flow on one generated database;
- ``repro ops --days N --dbs K`` — a closed-loop service run with the
  Section 8.1-style operational report;
- ``repro run --dbs K --workers N`` — the fleet-parallel closed loop:
  databases sharded across N workers (process-backed by default), each
  tick merged deterministically, so the output matches a serial run
  byte for byte under the same seed;
- ``repro fig6 --tier premium --dbs K`` — the Figure 6 experiment for one
  tier;
- ``repro telemetry --days N --dbs K`` — a closed-loop run rendered as
  the live-style fleet dashboard (state-machine counts, firing alerts,
  revert rate, history sparklines, slowest tuning sessions, engine hot
  paths), with ``--format json`` / ``--format prom`` machine-readable
  exports;
- ``repro slo --days N --dbs K`` — the SLO burn-rate report over the
  run's telemetry history (multi-window burn per objective), with
  ``--history-out``/``--history`` JSONL dump/replay of the time-series
  store, ``--slo-out`` for the status records, ``--regression-demo``
  for the seeded revert-rate regression, and ``--fail-on-alert`` for
  CI gating;
- ``repro explain <db> [rec-id]`` — the decision-provenance timeline for
  one recommendation (its audit chain and the phase timings derived
  from it), from a fresh closed-loop run, a replayed ``--audit`` JSONL
  dump, or the seeded ``--regression-demo`` create->validate->revert
  scenario;
- ``repro profile --dbs K --workers N`` — a short fleet-parallel run
  with per-tick phase timing on both sides of the process pipe,
  printing the critical-path table (where the wall-clock goes, the
  attribution-coverage figure, a serial-fraction/Amdahl estimate) and
  optionally writing a Chrome/Perfetto ``trace_event`` JSON timeline
  (``--trace-out``).

``repro ops`` and ``repro telemetry`` accept ``--audit-out FILE`` to dump
the run's audit stream as JSONL for later ``repro explain --audit``.

Invoke as ``python -m repro <command>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
)
from repro.experiment.compare import ComparisonSettings, compare_fleet
from repro.fleet import Fleet, FleetSpec
from repro.observability import (
    AuditLog,
    json_text,
    prometheus_text,
    render_dashboard,
    render_explain,
)
from repro.observability.explain import render_index
from repro.parallel.settings import BACKENDS
from repro.reporting import operational_report
from repro.service import ServiceSettings, build_service


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--tier",
        choices=("basic", "standard", "premium"),
        default="standard",
    )
    parser.add_argument("--dbs", type=int, default=4, help="fleet size")


def _add_fleet(
    parser: argparse.ArgumentParser, statement_cap: bool = True
) -> None:
    """The sharded-fleet flags; ``repro slo`` runs at the default cadence
    and so takes no statement cap."""
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard workers (0 = serial in-process execution)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="auto",
        help="execution backend (auto = process when --workers > 1)",
    )
    if statement_cap:
        parser.add_argument(
            "--max-statements",
            type=int,
            default=80,
            help="statement cap per database per step",
        )


def _fleet_recipe(args: argparse.Namespace) -> dict:
    """``build_service`` / ``build_fleet_service`` arguments for the fleet
    every closed-loop command runs: auto-create on, a 2 h snapshot / 8 h
    analysis / 6 h validation cadence that fits a few simulated days, and
    a statement cap (``--max-statements`` where the command has it)."""
    return dict(
        n_databases=args.dbs,
        tier=args.tier,
        seed=args.seed,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(
            max_statements_per_step=getattr(args, "max_statements", 80)
        ),
        default_config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
    )


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the quickstart example end to end."""
    # The quickstart example is a self-contained script; load and reuse
    # its main() so the CLI and the example cannot drift apart.
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if not path.exists():
        print("examples/quickstart.py not found (installed without examples)")
        return 1
    spec = importlib.util.spec_from_file_location("quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return 0


def cmd_ops(args: argparse.Namespace) -> int:
    """Closed-loop run over a fleet, ending with the operational report."""
    service = build_service(**_fleet_recipe(args))
    print(f"running the closed loop: {args.dbs} {args.tier} databases, "
          f"{args.days} simulated days")
    for day in range(args.days):
        service.run(hours=24)
        counts = service.store.count_by_state()
        summary = ", ".join(
            f"{state.value}={count}"
            for state, count in sorted(counts.items(), key=lambda i: i[0].value)
        )
        print(f"  day {day + 1}: {summary or '(quiet)'}")
    print()
    for line in operational_report(service).lines():
        print(line)
    _maybe_dump_audit(service.audit, args)
    return 0


def _maybe_dump_audit(audit: AuditLog, args: argparse.Namespace) -> None:
    if getattr(args, "audit_out", None):
        count = audit.dump(args.audit_out)
        print(f"wrote {count} audit events to {args.audit_out}")


def cmd_run(args: argparse.Namespace) -> int:
    """Fleet-parallel closed-loop run (sharded workers, merged output)."""
    from repro.parallel import build_fleet_service

    service = build_fleet_service(
        workers=args.workers,
        backend=args.backend,
        instrument=not args.no_profile,
        **_fleet_recipe(args),
    )
    print(
        f"running the fleet-parallel loop: {args.dbs} {args.tier} databases "
        f"across {len(service.payloads)} {service.backend} worker(s), "
        f"{args.days} simulated days"
    )
    try:
        for day in range(args.days):
            service.run(hours=24)
            counts = service.store.count_by_state()
            summary = ", ".join(
                f"{state.value}={count}"
                for state, count in sorted(
                    counts.items(), key=lambda i: i[0].value
                )
            )
            print(f"  day {day + 1}: {summary or '(quiet)'}")
        print()
        registry = service.telemetry.registry
        wall = service.tick_wall_total
        busy = sum(
            series.metric.value
            for series in registry.series_for("fleet_shard_busy")
        )
        print(f"databases: {args.dbs}  shards: {len(service.payloads)}  "
              f"backend: {service.backend}")
        print(f"ticks: {registry.counter('fleet_ticks_total').value:.0f}  "
              f"wall: {wall:.2f}s  shard-busy: {busy:.2f}s")
        print(f"audit events: {len(service.telemetry.audit.events())}  "
              f"journal entries: {len(service.store.journal())}  "
              f"validations: {len(service.validation_history)}  "
              f"incidents: {len(service.incidents)}")
        firing = service.watchdog.active()
        print(f"firing alerts: {', '.join(a.rule for a in firing) or 'none'}")
        _maybe_dump_audit(service.audit, args)
    finally:
        service.close()
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Short fleet-parallel run with full critical-path attribution."""
    import json

    from repro.observability.trace_export import (
        render_critical_path,
        trace_event_json,
    )
    from repro.parallel import build_fleet_service

    service = build_fleet_service(
        workers=args.workers,
        backend=args.backend,
        instrument=not args.no_profile,
        **_fleet_recipe(args),
    )
    hours = args.ticks * service.settings.step_hours
    print(
        f"profiling the fleet-parallel loop: {args.dbs} {args.tier} "
        f"databases across {len(service.payloads)} {service.backend} "
        f"worker(s), {args.ticks} tick(s) ({hours:.0f} simulated hours)"
    )
    try:
        service.run(hours=hours)
        if args.no_profile:
            print(f"profiling disabled (--no-profile): "
                  f"{service.ticks_completed} tick(s), "
                  f"{service.tick_wall_total:.2f}s wall")
            return 0
        print()
        summary = service.attribution()
        for line in render_critical_path(
            summary,
            service.profiler.rows(),
            top_n=args.top,
            backend=service.backend,
            workers=len(service.payloads),
        ):
            print(line)
        dropped = service.phase_timer.dropped_events
        if dropped:
            print(f"  (trace buffer full: {dropped} event(s) dropped)")
        if args.trace_out:
            doc = trace_event_json(
                service.trace_events(),
                service.track_names(),
                metadata={
                    "databases": args.dbs,
                    "workers": len(service.payloads),
                    "backend": service.backend,
                    "ticks": summary["ticks"],
                    "seed": args.seed,
                    "attribution_coverage": summary["coverage"],
                },
            )
            with open(args.trace_out, "w") as fh:
                json.dump(doc, fh)
            print(f"  wrote {len(doc['traceEvents'])} trace events to "
                  f"{args.trace_out} (load in Perfetto / chrome://tracing)")
    finally:
        service.close()
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Closed-loop run rendered through the observability layer."""
    service = build_service(**_fleet_recipe(args))
    # Progress goes to stderr so `--format json` / `--format prom`
    # stdout stays machine-parseable.
    print(
        f"collecting fleet telemetry: {args.dbs} {args.tier} databases, "
        f"{args.days} simulated days",
        file=sys.stderr,
    )
    service.run(hours=args.days * 24)
    telemetry = service.telemetry
    if args.format == "json":
        print(
            json_text(
                telemetry.registry,
                telemetry.recorder,
                service.profiler,
                history=service.history,
            )
        )
    elif args.format == "prom":
        print(prometheus_text(telemetry.registry), end="")
    else:
        print()
        for line in render_dashboard(
            telemetry.registry,
            telemetry.recorder,
            service.profiler,
            top_n=args.top,
            watchdog=service.watchdog,
            history=service.history,
        ):
            print(line)
    _maybe_dump_audit(service.audit, args)
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """SLO burn-rate report over a run's telemetry history."""
    import json

    from repro.observability.slo import (
        dump_statuses,
        evaluate_catalog,
        render_slo_report,
    )
    from repro.observability.timeseries import TimeSeriesStore

    if args.history:
        store = TimeSeriesStore.replay(args.history)
        print(
            f"replayed {len(store.series_names())} history series "
            f"from {args.history} (last tick {store.last_tick()})",
            file=sys.stderr,
        )
    elif args.regression_demo:
        from repro.experiment.regression import run_regression_scenario

        print(
            "staging the seeded create->validate->revert scenario...",
            file=sys.stderr,
        )
        scenario = run_regression_scenario()
        # Hold the post-incident state for a while: the fleet's one
        # decided recommendation stays reverted, so the revert-rate
        # budget keeps burning until the long window concedes too —
        # exactly the multi-window confirmation the SLO machinery
        # requires before paging.
        for _ in range(160):
            scenario.plane.clock.advance(3.0)
            scenario.process()
        store = scenario.history.store
    else:
        from repro.parallel import build_fleet_service

        service = build_fleet_service(
            n_databases=args.dbs,
            workers=args.workers,
            backend=args.backend,
            tier=args.tier,
            seed=args.seed,
        )
        print(
            f"running the fleet loop at default cadence: {args.dbs} "
            f"{args.tier} databases across {len(service.payloads)} "
            f"{service.backend} worker(s), {args.days} simulated days",
            file=sys.stderr,
        )
        try:
            service.run(hours=args.days * 24)
            store = service.history.store
        finally:
            service.close()
    statuses = evaluate_catalog(store)
    if args.format == "json":
        print(
            json.dumps(
                [status.to_payload() for status in statuses],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for line in render_slo_report(statuses):
            print(line)
    if args.history_out:
        count = store.dump(args.history_out)
        print(f"wrote {count} history records to {args.history_out}")
    if args.slo_out:
        count = dump_statuses(statuses, args.slo_out)
        print(f"wrote {count} SLO status records to {args.slo_out}")
    alerting = [status.name for status in statuses if status.alerting]
    if alerting and args.fail_on_alert:
        print(f"burn-rate alert(s) firing: {', '.join(alerting)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct why one recommendation was created/validated/reverted."""
    if args.audit:
        audit = AuditLog.replay(args.audit)
        database = args.database
        if database is None:
            databases = sorted(
                {e.database for e in audit.events() if e.rec_id is not None}
            )
            if len(databases) != 1:
                print("--audit replay needs an explicit <database> "
                      f"(stream covers: {', '.join(databases) or 'none'})")
                return 1
            database = databases[0]
    elif args.regression_demo:
        from repro.experiment.regression import run_regression_scenario

        # The scenario is pinned to its own seed: the point is a
        # deterministic create->validate->revert chain, not a sweep.
        print("staging the seeded create->validate->revert scenario...")
        scenario = run_regression_scenario()
        audit = scenario.plane.audit
        database = args.database or scenario.database
        if args.rec_id is None:
            args.rec_id = str(scenario.rec_id)
        firing = scenario.watchdog.active()
        print(f"final state: {scenario.final_state.value}; firing alerts: "
              f"{', '.join(a.rule for a in firing) or 'none'}")
        print()
    else:
        if args.database is None:
            print("explain needs a <database> (or --regression-demo / --audit)")
            return 1
        database = args.database
        service = build_service(**_fleet_recipe(args))
        print(f"running the closed loop: {args.dbs} {args.tier} databases, "
              f"{args.days} simulated days")
        service.run(hours=args.days * 24)
        print()
        audit = service.audit
    if args.rec_id is None:
        for line in render_index(audit, database):
            print(line)
        print("(re-run with a rec-id for the full decision timeline)")
        return 0
    if args.rec_id == "latest":
        rec_ids = audit.rec_ids(database)
        if not rec_ids:
            print(f"no recommendation decisions recorded for {database}")
            return 1
        rec_id = rec_ids[-1]
    else:
        rec_id = int(args.rec_id)
    for line in render_explain(audit, database, rec_id):
        print(line)
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    """Run the Figure 6 recommender comparison for one tier."""
    fleet = Fleet(FleetSpec(n_databases=args.dbs, tier=args.tier, seed=args.seed))
    print(f"running the Figure 6 experiment on {args.dbs} {args.tier} databases "
          "(4 phases per database; this replays several days of traffic)")
    summary = compare_fleet(fleet, ComparisonSettings())
    for line in summary.table_rows():
        print(line)
    for result in summary.results:
        improvements = ", ".join(
            f"{arm}={value:.0f}%" for arm, value in result.improvements.items()
        )
        print(f"  {result.database}: winner={result.winner} ({improvements})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-indexing service reproduction (SIGMOD 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo", help="quickstart on one database")
    demo.set_defaults(func=cmd_demo)
    ops = sub.add_parser("ops", help="closed-loop run + operational report")
    _add_common(ops)
    ops.add_argument("--days", type=int, default=4)
    ops.add_argument(
        "--audit-out", help="dump the run's audit stream to this JSONL file"
    )
    ops.set_defaults(func=cmd_ops)
    run = sub.add_parser(
        "run", help="fleet-parallel closed-loop run (sharded workers)"
    )
    _add_common(run)
    run.add_argument("--days", type=int, default=4)
    _add_fleet(run)
    run.add_argument(
        "--audit-out", help="dump the run's audit stream to this JSONL file"
    )
    run.add_argument(
        "--no-profile",
        action="store_true",
        help="disable per-tick phase timing and trace collection",
    )
    run.set_defaults(func=cmd_run)
    prof = sub.add_parser(
        "profile",
        help="fleet critical-path profile (phase timing + Perfetto trace)",
    )
    _add_common(prof)
    prof.add_argument(
        "--ticks", type=int, default=8, help="fleet ticks to profile"
    )
    _add_fleet(prof)
    prof.add_argument(
        "--top", type=int, default=10, help="hot paths to list"
    )
    prof.add_argument(
        "--trace-out",
        help="write the Chrome/Perfetto trace_event JSON timeline here",
    )
    prof.add_argument(
        "--no-profile",
        action="store_true",
        help="run with instrumentation off (overhead A/B baseline)",
    )
    prof.set_defaults(func=cmd_profile)
    fig6 = sub.add_parser("fig6", help="the Figure 6 recommender comparison")
    _add_common(fig6)
    fig6.set_defaults(func=cmd_fig6)
    telemetry = sub.add_parser(
        "telemetry", help="closed-loop run + fleet telemetry dashboard"
    )
    _add_common(telemetry)
    telemetry.add_argument("--days", type=int, default=4)
    telemetry.add_argument(
        "--top", type=int, default=5, help="slowest tuning sessions to list"
    )
    telemetry.add_argument(
        "--format",
        choices=("dashboard", "json", "prom"),
        default="dashboard",
    )
    telemetry.add_argument(
        "--audit-out", help="dump the run's audit stream to this JSONL file"
    )
    telemetry.set_defaults(func=cmd_telemetry)
    slo = sub.add_parser(
        "slo", help="SLO burn-rate report over a run's telemetry history"
    )
    _add_common(slo)
    slo.add_argument("--days", type=int, default=4)
    _add_fleet(slo, statement_cap=False)
    slo.add_argument(
        "--format", choices=("report", "json"), default="report"
    )
    slo.add_argument(
        "--history",
        help="replay a history JSONL dump instead of running the loop",
    )
    slo.add_argument(
        "--history-out",
        help="dump the run's time-series store to this JSONL file",
    )
    slo.add_argument(
        "--slo-out",
        help="dump the evaluated SLO statuses to this JSONL file",
    )
    slo.add_argument(
        "--regression-demo",
        action="store_true",
        help="stage the seeded create->validate->revert scenario and "
        "report its burn rates",
    )
    slo.add_argument(
        "--fail-on-alert",
        action="store_true",
        help="exit non-zero if any burn-rate alert is firing (CI gate)",
    )
    slo.set_defaults(func=cmd_slo)
    explain = sub.add_parser(
        "explain",
        help="decision-provenance timeline for one recommendation",
    )
    _add_common(explain)
    explain.add_argument(
        "database", nargs="?", help="managed database name (e.g. db-standard-0)"
    )
    explain.add_argument(
        "rec_id",
        nargs="?",
        help="recommendation id, or 'latest' (omit for the decision index)",
    )
    explain.add_argument("--days", type=int, default=4)
    explain.add_argument(
        "--audit", help="replay a JSONL audit dump instead of running the loop"
    )
    explain.add_argument(
        "--regression-demo",
        action="store_true",
        help="stage the seeded create->validate->revert scenario and explain it",
    )
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
