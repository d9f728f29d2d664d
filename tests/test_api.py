"""Management API tests: settings inheritance, views, script-out."""

from __future__ import annotations

import pytest

from repro.api import ManagementApi
from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.service import ServiceSettings, build_service


@pytest.fixture(scope="module")
def api():
    service = build_service(
        n_databases=2,
        tier="standard",
        seed=83,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=70),
        default_config=AutoIndexingConfig(create_mode=AutoMode.RECOMMEND_ONLY),
    )
    api = ManagementApi(service)
    api.register_server(
        "server-1", AutoIndexingConfig(create_mode=AutoMode.RECOMMEND_ONLY)
    )
    for name in service.database_names:
        api.assign_database(name, "server-1")
    service.run(hours=36)
    return api


class TestSettingsInheritance:
    def test_databases_inherit_server_default(self, api):
        name = api.service.database_names[0]
        view = api.settings_view(name)
        assert "(inherited)" in view["CREATE INDEX"]
        assert view["CREATE INDEX"].startswith("recommend_only")

    def test_server_default_change_propagates(self, api):
        name = api.service.database_names[0]
        api.set_server_default(
            "server-1", AutoIndexingConfig(create_mode=AutoMode.OFF)
        )
        assert api.effective_config(name).create_mode is AutoMode.OFF
        # restore
        api.set_server_default(
            "server-1", AutoIndexingConfig(create_mode=AutoMode.RECOMMEND_ONLY)
        )

    def test_database_override_stops_inheritance(self, api):
        name = api.service.database_names[1]
        api.set_database_config(
            name, AutoIndexingConfig(create_mode=AutoMode.AUTO)
        )
        view = api.settings_view(name)
        assert "(inherited)" not in view["CREATE INDEX"]
        api.set_server_default(
            "server-1", AutoIndexingConfig(create_mode=AutoMode.OFF)
        )
        assert api.effective_config(name).create_mode is AutoMode.AUTO
        api.clear_database_override(name)
        assert api.effective_config(name).inherited
        api.set_server_default(
            "server-1", AutoIndexingConfig(create_mode=AutoMode.RECOMMEND_ONLY)
        )

    def test_unknown_server_rejected(self, api):
        with pytest.raises(KeyError):
            api.assign_database(api.service.database_names[0], "nope")


class TestViews:
    def test_current_recommendations_listed(self, api):
        found = []
        for name in api.service.database_names:
            found.extend(api.current_recommendations(name))
        assert found, "expected active recommendations in recommend-only mode"
        view = found[0]
        assert view.state == "active"
        assert view.render().startswith(f"#{view.rec_id}")

    def test_details_include_statements(self, api):
        for name in api.service.database_names:
            for view in api.current_recommendations(name):
                details = api.recommendation_details(view.rec_id)
                assert details["action"] in ("create", "drop")
                assert isinstance(details["impacted_statements"], list)
                return
        pytest.skip("no active recommendation to inspect")

    def test_script_out_is_tsql(self, api):
        for name in api.service.database_names:
            for view in api.current_recommendations(name):
                script = api.script_out(view.rec_id)
                assert script.startswith("CREATE NONCLUSTERED INDEX")
                assert script.endswith(";")
                return
        pytest.skip("no active recommendation to script")

    def test_unknown_rec_id_raises(self, api):
        with pytest.raises(KeyError):
            api.recommendation_details(10_000_000)

    def test_apply_then_history(self, api):
        name = api.service.database_names[0]
        recommendations = api.current_recommendations(name)
        if not recommendations:
            pytest.skip("nothing to apply")
        rec_id = recommendations[0].rec_id
        api.apply_recommendation(rec_id)
        api.service.run(hours=30)
        history = api.history(name)
        entry = next(h for h in history if h.rec_id == rec_id)
        assert entry.state in (
            RecommendationState.VALIDATING.value,
            RecommendationState.SUCCESS.value,
            RecommendationState.REVERTED.value,
        )
        assert any("implementing" in line for line in entry.timeline)
