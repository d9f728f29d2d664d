"""Validation catching a bad index and reverting it (Section 6).

Constructs the paper's core failure mode deliberately: a table whose
workload is write-heavy plus a query the optimizer badly mis-estimates.
An index that *looks* great in optimizer estimates is implemented; actual
execution statistics regress; the validator's Welch t-tests detect it; and
the control plane automatically reverts the index.

Run:  python examples/regression_revert.py
"""

from __future__ import annotations

import numpy as np

from repro.clock import SimClock
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
from repro.validation import ValidationSettings, Validator


def build_engine() -> SqlEngine:
    db = Database("regress-demo", seed=3)
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
    rng = np.random.default_rng(1)
    for i in range(6000):
        # e_kind is extremely skewed: almost every row is kind 0.
        kind = 0 if rng.random() < 0.97 else int(rng.integers(1, 50))
        table.insert((i, kind, f"payload-{i % 13}"))
    engine = SqlEngine(db, clock=SimClock())
    # Stale, sampled statistics make kind=0 look selective to the optimizer.
    table.build_statistics(sample_fraction=0.02, rng=np.random.default_rng(9))
    return engine


def run_workload(engine: SqlEngine, start_id: int, rounds: int) -> None:
    """The app: frequent inserts plus a hot query on the skewed column."""
    hot = SelectQuery(
        "events", ("e_payload",), (Predicate("e_kind", Op.EQ, 0),)
    )
    for i in range(rounds):
        engine.execute(hot)
        batch = tuple(
            (start_id + i * 5 + j, 0, "x") for j in range(5)
        )
        engine.execute(InsertQuery("events", batch))
        engine.clock.advance(3.0)


def main() -> None:
    engine = build_engine()

    print("phase 1: observe the workload before the index change")
    run_workload(engine, start_id=100_000, rounds=40)
    before_window = (0.0, engine.now)

    index = IndexDefinition("ix_kind", "events", ("e_kind",), ("e_payload",))
    hot = SelectQuery("events", ("e_payload",), (Predicate("e_kind", Op.EQ, 0),))
    estimated_before = engine.whatif_optimize(hot).est_cost
    estimated_after = engine.whatif_optimize(hot, [
        IndexDefinition("hyp", "events", ("e_kind",), ("e_payload",), hypothetical=True)
    ]).est_cost
    print(
        f"optimizer estimate: {estimated_before:.1f} -> {estimated_after:.1f} "
        "(the index looks like a clear win)"
    )

    engine.create_index(index)
    implemented_at = engine.now
    print(f"\nimplemented {index.describe()}; phase 2: observe again")
    run_workload(engine, start_id=200_000, rounds=40)

    validator = Validator(engine, ValidationSettings(min_resource_share=0.01))
    outcome = validator.validate(
        "ix_kind", "create", before_window, (implemented_at, engine.now)
    )
    print("\n== validation outcome ==")
    print(f"verdict:            {outcome.verdict.value}")
    print(f"aggregate change:   {outcome.aggregate_change:+.1%}")
    print(f"statements judged:  {outcome.observed_statements}")
    for statement in outcome.statements:
        cpu = statement.tests["cpu_time_ms"]
        print(
            f"  query {statement.query_id % 10_000}: {statement.verdict.value:9s}"
            f" cpu {cpu.mean_before:.3f} -> {cpu.mean_after:.3f} ms"
            f" (p={cpu.p_value:.2e})"
        )
    if outcome.should_revert:
        engine.drop_index("events", "ix_kind")
        print("\nregression detected -> index automatically reverted, "
              "exactly as the validator component does in production")
    else:
        print("\nno significant regression; the index stays")


if __name__ == "__main__":
    main()
