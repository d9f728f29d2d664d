"""§8.1: validation reverts ~11% of automated actions.

Paper: "In aggregate, ~11% of our automated actions are reverted due to
validation detecting regressions.  Since the MI-based recommender does not
account for index maintenance overheads, many reverts are due to writes
becoming more expensive.  For both recommenders, a significant fraction of
reverts are due to regressions in SELECT statements where optimizer's
errors result in query plans estimated to be cheaper but [that are] more
expensive when executed."

The second arm runs the same loop with the §10-style extension that
double-checks MI candidates with what-if calls before implementing.  It
implements fewer actions, but its revert *rate* does not improve — the
surviving mistakes are exactly the optimizer-misestimation cases that no
amount of additional estimation can catch.  That negative result is the
paper's core argument for execution-statistics-based validation.
"""

from __future__ import annotations

from benchmarks.conftest import emit, fleet_size
from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.recommender import MiRecommenderSettings
from repro.reporting import operational_report
from repro.service import ServiceSettings, build_service

PAPER_REVERT_RATE = 0.11


def run_closed_loop(verify_with_whatif: bool):
    service = build_service(
        fleet_size(6),
        tier="standard",
        seed=41,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=80),
        default_config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
        mi_settings=MiRecommenderSettings(verify_with_whatif=verify_with_whatif),
    )
    service.run(hours=6 * 24)
    return service


def run_both_variants():
    return {
        "paper pipeline": run_closed_loop(verify_with_whatif=False),
        "with what-if verification (§10 extension)": run_closed_loop(
            verify_with_whatif=True
        ),
    }


def test_revert_rate(benchmark):
    services = benchmark.pedantic(run_both_variants, rounds=1, iterations=1)
    lines = ["== Revert rate (Section 8.1) =="]
    reports = {}
    for label, service in services.items():
        report = operational_report(service)
        reports[label] = report
        lines.extend(
            [
                f"  {label}:",
                f"    implemented & decided: "
                f"{report.validated_success + report.reverted}",
                f"    reverted:              {report.reverted} "
                f"({report.revert_rate:.1%}; paper ~{PAPER_REVERT_RATE:.0%})",
                f"    … with write regressions:  "
                f"{report.reverts_with_write_regression}"
                f" / SELECT regressions: {report.reverts_with_select_regression}",
            ]
        )
    emit(lines)
    baseline = reports["paper pipeline"]
    decided = baseline.validated_success + baseline.reverted
    assert decided >= 5, "closed loop decided too few recommendations"
    # Shape: a clear minority of actions is reverted, but reverts do occur
    # across the fleet (the validator is load-bearing).
    assert baseline.revert_rate < 0.45
    verified = reports["with what-if verification (§10 extension)"]
    # The extension is more conservative (fewer actions) but estimation
    # cannot catch estimation-driven regressions: reverts persist.
    assert (
        verified.validated_success + verified.reverted
        <= baseline.validated_success + baseline.reverted
    )
    assert verified.reverted > 0
    states = services["paper pipeline"].store.count_by_state()
    assert states.get(RecommendationState.SUCCESS, 0) > 0
