"""A SaaS vendor's fleet under the fully automated service.

Models the pattern from the paper's introduction: a software vendor with
many similar (but not identical) databases enables auto-implementation for
the whole fleet and lets the closed loop run for a simulated week — index
recommendations are generated, implemented online, validated against
Query Store statistics, and reverted when they regress.  At the end the
operational report prints the Section 8.1-style statistics.

Run:  python examples/saas_fleet.py
"""

from __future__ import annotations

from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.reporting import operational_report
from repro.service import ServiceSettings, build_service


def main() -> None:
    service = build_service(
        n_databases=5,
        tier="standard",
        seed=23,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=8 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=80),
        default_config=AutoIndexingConfig(
            create_mode=AutoMode.AUTO,
            drop_mode=AutoMode.RECOMMEND_ONLY,
        ),
    )

    print(f"managing {len(service.fleet)} databases "
          f"({', '.join(sorted({p.archetype for p in service.fleet}))})")
    for day in range(7):
        service.run(hours=24)
        counts = service.store.count_by_state()
        summary = ", ".join(
            f"{state.value}={count}" for state, count in sorted(
                counts.items(), key=lambda item: item[0].value
            )
        )
        print(f"day {day + 1}: {summary or 'no recommendations yet'}")

    print("\n== recommendation history (transparency view) ==")
    for name in service.database_names:
        history = service.store.records_for(database=name)
        if not history:
            continue
        print(f"{name}:")
        for record in history:
            if record.state in (
                RecommendationState.SUCCESS,
                RecommendationState.REVERTED,
            ):
                print(
                    f"  #{record.rec_id} {record.recommendation.describe()}"
                )
                print(
                    f"      -> {record.state.value}  {record.validation_summary}"
                )

    print("\n== operational report (Section 8.1 style) ==")
    for line in operational_report(service, window_hours=24).lines():
        print(line)


if __name__ == "__main__":
    main()
