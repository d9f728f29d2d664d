"""A tour of the management surface (the paper's Figures 1-3 as text).

Walks through what a customer sees in the portal: per-server defaults
inherited by databases, the current-recommendations blade with estimated
impact and size, the detail blade with impacted statements, the T-SQL
script-out, a user-initiated apply, and the history/transparency view
after validation.

Run:  python examples/portal_tour.py
"""

from __future__ import annotations

from repro.api import ManagementApi
from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
)
from repro.service import ServiceSettings, build_service


def main() -> None:
    service = build_service(
        n_databases=2,
        tier="standard",
        seed=77,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=80),
        default_config=AutoIndexingConfig(create_mode=AutoMode.RECOMMEND_ONLY),
    )
    api = ManagementApi(service)
    api.register_server(
        "contoso-server",
        AutoIndexingConfig(
            create_mode=AutoMode.RECOMMEND_ONLY, drop_mode=AutoMode.RECOMMEND_ONLY
        ),
    )
    for name in service.database_names:
        api.assign_database(name, "contoso-server")

    print("== Figure 1: settings (inherited from the logical server) ==")
    database = service.database_names[0]
    for option, state in api.settings_view(database).items():
        print(f"  {option:<14} {state}")

    print("\nrunning the workload for two simulated days…")
    service.run(hours=48)

    print("\n== Figure 2: current recommendations ==")
    recommendations = []
    for name in service.database_names:
        recommendations.extend(api.current_recommendations(name))
    for view in recommendations:
        print("  " + view.render())

    if recommendations:
        chosen = recommendations[0]
        print("\n== Figure 3: recommendation details ==")
        details = api.recommendation_details(chosen.rec_id)
        for key in ("index", "estimated_impact_pct", "estimated_size_bytes", "source"):
            print(f"  {key}: {details[key]}")
        print("  impacted statements:")
        for text in details["impacted_statements"][:4]:
            print(f"    {text}")

        print("\n== script-out (apply through your own tooling) ==")
        print("  " + api.script_out(chosen.rec_id))

        print("\napplying through the system instead (it will validate)…")
        api.apply_recommendation(chosen.rec_id)
        service.run(hours=30)

        print("\n== history / transparency view ==")
        for entry in api.history(details["database"]):
            if entry.rec_id != chosen.rec_id:
                continue
            print(f"  {entry.description}")
            for line in entry.timeline:
                print(f"    {line}")
            if entry.validation_summary:
                print(f"    validation: {entry.validation_summary}")


if __name__ == "__main__":
    main()
