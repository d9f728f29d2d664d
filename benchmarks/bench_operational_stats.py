"""§8.1: operational snapshot of the service.

Paper (October 2018 snapshot): recommendations are generated for *all*
databases; drop recommendations far outnumber create recommendations
(~3.4M vs ~250K); about a quarter of databases have auto-implementation
enabled; hundreds of thousands of queries improved by >2x in CPU or
logical reads; tens of thousands of databases cut aggregate CPU by >50%.

Expected shape here: every database receives recommendations; drop
recommendations outnumber creates once the long-horizon drop analysis has
run (many seeded user indexes are unused duplicates); a substantial count
of queries improves >2x; some databases improve >50% in aggregate.
"""

from __future__ import annotations

from benchmarks.conftest import emit, fleet_size
from repro.clock import DAYS, HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
)
from repro.experiment.emulate_user import seed_user_indexes
from repro.reporting import operational_report
from repro.rng import derive
from repro.service import ServiceSettings, build_service


def run_operational_loop():
    service = build_service(
        fleet_size(5),
        tier="standard",
        seed=71,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
            drop_analysis_period=2 * DAYS,
            # Long enough for the drop analysis horizon to engage.
            stuck_threshold=30 * DAYS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=80),
        default_config=AutoIndexingConfig(
            create_mode=AutoMode.AUTO, drop_mode=AutoMode.RECOMMEND_ONLY
        ),
    )
    # Give databases a tuning history (user indexes), some of which will
    # be duplicates/unused -> drop candidates.
    for profile in service.fleet:
        seed_user_indexes(
            profile,
            derive(71, "ops-user", profile.name),
            learn_hours=8,
            max_statements=300,
        )
        plane = service.database_plane(profile.name)
        plane.drops.settings.observation_days = 3.0
    service.run(hours=6 * 24)
    return service


def test_operational_stats(benchmark):
    service = benchmark.pedantic(run_operational_loop, rounds=1, iterations=1)
    report = operational_report(service, window_hours=24)
    emit(["== Operational snapshot (Section 8.1 style) =="] + [
        "  " + line for line in report.lines()
    ])
    databases_with_recs = {
        r.database for r in service.store.all_records()
    }
    assert len(databases_with_recs) == len(service.fleet), (
        "recommendations must be generated for every database"
    )
    assert report.create_recommendations > 0
    assert report.implemented > 0
    assert report.queries_improved_2x > 0, (
        "expected some queries with >2x CPU improvement"
    )
