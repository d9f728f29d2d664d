"""A seeded create->validate->revert scenario through the control plane.

The paper's core failure mode (Sections 6, 8.1), staged deterministically
end to end: a table with a heavily skewed column and stale sampled
statistics makes an index look like a clear win to the optimizer; the
control plane implements it; actual execution regresses; the validator's
Welch t-tests detect the regression; and the control plane reverts the
index.  Because the whole lifecycle runs through :class:`ControlPlane`,
every decision lands in the audit stream — this is the fixture behind
``repro explain --regression-demo``, the explain acceptance test, and the
watchdog alert test.  There is no region service around the one bare
plane, so the scenario samples its own telemetry history and runs its
own SLO watchdog after every plane pass.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.clock import HOURS, SimClock
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlane,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.engine import (
    Column,
    Database,
    IndexDefinition,
    InsertQuery,
    Op,
    Predicate,
    SelectQuery,
    SqlEngine,
    SqlType,
    TableSchema,
)
from repro.observability import AlertWatchdog
from repro.observability.timeseries import TelemetryHistory
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.validation import ValidationSettings


@dataclasses.dataclass
class RegressionScenario:
    """Everything the explain/alert consumers need from one run."""

    plane: ControlPlane
    history: TelemetryHistory
    watchdog: AlertWatchdog
    engine: SqlEngine
    database: str
    rec_id: int = 0
    final_state: RecommendationState = RecommendationState.ACTIVE

    def process(self) -> None:
        """One plane pass, then history sampling and the SLO watchdog at
        the same virtual time."""
        plane = self.plane
        now = plane.clock.now
        plane.process(now)
        self.history.observe_tick(
            plane.telemetry.registry, now, audit=plane.audit
        )
        self.watchdog.evaluate(now)


def _build_engine(clock: SimClock, seed: int) -> SqlEngine:
    db = Database("regress-demo", seed=seed)
    schema = TableSchema(
        "events",
        [
            Column("e_id", SqlType.BIGINT, nullable=False),
            Column("e_kind", SqlType.INT),
            Column("e_payload", SqlType.TEXT),
        ],
        primary_key=["e_id"],
    )
    table = db.create_table(schema)
    rng = np.random.default_rng(seed + 1)
    for i in range(6000):
        # e_kind is extremely skewed: almost every row is kind 0.
        kind = 0 if rng.random() < 0.97 else int(rng.integers(1, 50))
        table.insert((i, kind, f"payload-{i % 13}"))
    engine = SqlEngine(db, clock=clock)
    # Stale, sampled statistics make kind=0 look selective to the optimizer.
    table.build_statistics(
        sample_fraction=0.02, rng=np.random.default_rng(seed + 7)
    )
    return engine


def run_regression_scenario(
    seed: int = 3, database: str = "db-standard-0"
) -> RegressionScenario:
    """Stage the regression and drive it to its terminal state."""
    clock = SimClock()
    engine = _build_engine(clock, seed)
    plane = ControlPlane(
        clock,
        database,
        engine,
        tier="standard",
        config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
        settings=ControlPlaneSettings(validation_window=2 * HOURS),
        validation_settings=ValidationSettings(min_resource_share=0.01),
    )
    history = TelemetryHistory()
    scenario = RegressionScenario(
        plane=plane,
        history=history,
        watchdog=AlertWatchdog(
            plane.telemetry.registry, history.store, audit=plane.audit
        ),
        engine=engine,
        database=database,
    )

    hot = SelectQuery(
        "events", ("e_payload",), (Predicate("e_kind", Op.EQ, 0),)
    )

    def workload_round(i: int, start_id: int) -> None:
        """The app: frequent inserts plus a hot query on the skew."""
        engine.execute(hot)
        batch = tuple((start_id + i * 5 + j, 0, "x") for j in range(5))
        engine.execute(InsertQuery("events", batch))
        clock.advance(3.0)

    # Phase 1: observe the workload before any index change, long enough
    # to fill the validator's before-window.
    for i in range(45):
        workload_round(i, start_id=100_000)

    # The mis-estimated recommendation, with the optimizer's own what-if
    # numbers as its evidence (exactly what the MI/DTA sources would
    # attach).
    probe = IndexDefinition(
        "hyp", "events", ("e_kind",), ("e_payload",), hypothetical=True
    )
    estimated_before = engine.whatif_optimize(hot).est_cost
    estimated_after = engine.whatif_optimize(hot, [probe]).est_cost
    improvement = 100.0 * (1.0 - estimated_after / max(estimated_before, 1e-9))
    recommendation = IndexRecommendation(
        action=Action.CREATE,
        table="events",
        key_columns=("e_kind",),
        included_columns=("e_payload",),
        source="MI",
        estimated_improvement_pct=improvement,
        estimated_size_bytes=engine.database.table("events")
        .hypothetical_stats_view(probe)
        .size_bytes,
        details="seeded regression scenario",
        created_at=clock.now,
    )
    records = plane.register_recommendations([recommendation], clock.now)
    record = records[0]

    # Let the implementation land exactly on a Query Store interval
    # boundary so the validator's before/after windows see unmixed
    # plans: begin the build a few minutes before the boundary, then
    # let the next process() pass complete it at the boundary.
    interval = engine.query_store.interval_minutes
    boundary = (int(clock.now // interval) + 1) * interval
    clock.advance(boundary - 3.0 - clock.now)
    scenario.process()  # begins the online build
    clock.advance(3.0)
    scenario.process()  # completes it at the boundary

    # Phase 2: keep the workload running while the control plane carries
    # the record through implement -> validate -> revert.
    for i in range(160):
        if record.terminal:
            break
        scenario.process()
        workload_round(i, start_id=200_000)
    scenario.process()

    scenario.rec_id = record.rec_id
    scenario.final_state = record.state
    return scenario
