"""Fleet, region service, and operational reporting tests."""

from __future__ import annotations

import pytest

from repro.clock import HOURS
from repro.controlplane import AutoIndexingConfig, AutoMode, ControlPlaneSettings
from repro.fleet import Fleet, FleetSpec
from repro.reporting import operational_report
from repro.service import ServiceSettings, build_service


@pytest.fixture(scope="module")
def small_service():
    service = build_service(
        n_databases=3,
        tier="standard",
        seed=17,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=70),
        default_config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
    )
    service.run(hours=48)
    return service


class TestFleet:
    def test_fleet_builds_diverse_databases(self):
        fleet = Fleet(FleetSpec(n_databases=4, tier="premium", seed=2))
        assert len(fleet) == 4
        archetypes = {p.archetype for p in fleet}
        assert archetypes  # at least one archetype drawn from the tier mix
        names = fleet.names()
        assert len(set(names)) == 4

    def test_fleet_deterministic(self):
        f1 = Fleet(FleetSpec(n_databases=2, tier="standard", seed=3))
        f2 = Fleet(FleetSpec(n_databases=2, tier="standard", seed=3))
        for name in f1.names():
            t1 = {t.name: t.row_count for t in f1.get(name).schema_spec.tables}
            t2 = {t.name: t.row_count for t in f2.get(name).schema_spec.tables}
            assert t1 == t2

    def test_run_workloads_advances_all_clocks(self):
        fleet = Fleet(FleetSpec(n_databases=3, tier="standard", seed=4))
        fleet.run_workloads(hours=2, max_statements_per_db=30)
        assert fleet.clock.now == pytest.approx(120.0)
        for profile in fleet:
            assert profile.engine.clock.now >= 120.0


class TestService:
    def test_closed_loop_recommends_and_reaches_terminal_states(
        self, small_service
    ):
        from repro.controlplane import RecommendationState

        databases_with_recs = {
            r.database for r in small_service.store.all_records()
        }
        assert databases_with_recs  # recommendations were generated
        records = small_service.store.all_records()
        assert records
        terminal = [
            r for r in records
            if r.state in (RecommendationState.SUCCESS, RecommendationState.REVERTED)
        ]
        assert terminal

    def test_config_change_disables_automation(self):
        service = build_service(n_databases=1, tier="standard", seed=31)
        name = service.database_names[0]
        service.set_config(
            name, AutoIndexingConfig(create_mode=AutoMode.OFF)
        )
        service.run(hours=24)
        from repro.controlplane import RecommendationState

        implemented = [
            r for r in service.store.all_records()
            if r.state not in (RecommendationState.ACTIVE, RecommendationState.EXPIRED)
        ]
        assert not implemented

    def test_in_process_reach_needs_the_serial_backend(self, small_service):
        """``fleet``, ``database_plane`` and ``request_implementation``
        reach the serial backend's own shards; the process backend's
        shards live in other processes, so it refuses."""
        # The fleet is the workers' own profiles, in name order.
        fleet = small_service.fleet
        assert [p.name for p in fleet] == sorted(small_service.database_names)
        for profile in fleet:
            plane = small_service.database_plane(profile.name)
            assert plane.engine is profile.engine

        service = build_service(
            n_databases=2,
            seed=17,
            control_settings=ControlPlaneSettings(
                snapshot_period=2 * HOURS, analysis_period=8 * HOURS
            ),
            service_settings=ServiceSettings(max_statements_per_step=70),
            default_config=AutoIndexingConfig(
                create_mode=AutoMode.RECOMMEND_ONLY
            ),
        )
        service.run(hours=16)
        from repro.controlplane import RecommendationState
        from repro.errors import PermanentError
        from repro.parallel import build_fleet_service

        # Merged rec ids map to the owning plane's local ids.
        active = service.store.records_for(state=RecommendationState.ACTIVE)
        assert active, "recommend-only mode leaves records ACTIVE"
        record = active[-1]
        service.request_implementation(record.rec_id)
        # The owning plane began the build; the merge shows it next tick.
        assert record.state is RecommendationState.ACTIVE
        service.run(hours=2)
        assert "implementation_started" in [
            event.event_type for event in service.audit.chain(record.rec_id)
        ]
        with pytest.raises(PermanentError):
            service.request_implementation(10_000)

        with build_fleet_service(1, workers=1, backend="process") as remote:
            name = remote.database_names[0]
            with pytest.raises(RuntimeError, match="serial backend"):
                remote.fleet
            with pytest.raises(RuntimeError, match="serial backend"):
                remote.set_config(name, AutoIndexingConfig())


class TestReporting:
    def test_operational_report_counts(self, small_service):
        report = operational_report(small_service, window_hours=12)
        assert report.create_recommendations >= report.implemented >= 0
        decided = report.validated_success + report.reverted
        if decided:
            assert report.revert_rate == pytest.approx(
                report.reverted / decided
            )
        assert report.databases_observed <= len(small_service.fleet)

    def test_report_lines_render(self, small_service):
        report = operational_report(small_service)
        lines = report.lines()
        assert any("reverted" in line for line in lines)
        assert any("create recommendations" in line for line in lines)
