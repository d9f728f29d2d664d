"""The estimated-vs-actual divergence mechanism (paper challenge #3).

An index that the optimizer *estimates* will help can make execution
worse.  These tests construct that situation deterministically: a
severely under-estimated predicate makes a seek+lookup plan look cheap,
while actual execution touches far more rows than predicted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    Column,
    Database,
    IndexDefinition,
    Op,
    Predicate,
    SelectQuery,
    SqlEngine,
    SqlType,
    TableSchema,
)
from repro.engine import cost_model
from repro.engine.cost_model import CostModel, CostModelSettings
from repro.engine.engine import EngineSettings
from repro.engine.exec import dispatch


@pytest.fixture(autouse=True)
def severe_and_noiseless(monkeypatch):
    """Severe errors 25x deep, and no run-to-run noise."""
    monkeypatch.setattr(cost_model, "SEVERE_ERROR_FACTOR", 25.0)
    monkeypatch.setattr(dispatch, "NOISE_SIGMA", 0.0)


def engine_with_forced_severe_error():
    """Find a seed where the hot column is severely under-estimated."""
    settings = CostModelSettings(error_sigma=0.0, severe_error_rate=0.9999)
    db = Database("diverge", seed=77)
    schema = TableSchema(
        "t",
        [
            Column("id", SqlType.BIGINT, nullable=False),
            Column("hot", SqlType.INT),
            Column("wide", SqlType.TEXT),
        ],
        primary_key=["id"],
    )
    table = db.create_table(schema)
    rng = np.random.default_rng(5)
    for i in range(5000):
        table.insert((i, int(rng.integers(0, 4)), "payload" * 4))
    engine = SqlEngine(db, settings=EngineSettings(cost_model=settings))
    engine.build_all_statistics()
    return engine


def test_severe_error_underestimates_selectivity():
    engine = engine_with_forced_severe_error()
    table = engine.database.table("t")
    predicate = Predicate("hot", Op.EQ, 1)
    estimated = engine.cost_model.combined_selectivity(table, (predicate,))
    truthful = CostModel(0, CostModelSettings(error_sigma=0.0, severe_error_rate=0.0))
    actual = truthful.combined_selectivity(table, (predicate,))
    assert estimated < actual / 5, (
        f"expected severe under-estimate: est={estimated:.4f} true={actual:.4f}"
    )


def test_estimated_winner_actually_loses():
    """The optimizer picks the seek plan; actual reads say scan was better."""
    engine = engine_with_forced_severe_error()
    query = SelectQuery("t", ("wide",), (Predicate("hot", Op.EQ, 1),))
    scan_result = engine.execute(query)

    engine.create_index(IndexDefinition("ix_hot", "t", ("hot",)))
    seek_result = engine.execute(query)
    # The optimizer chose the index (estimates say it wins)...
    assert "ix_hot" in seek_result.plan.referenced_indexes()
    assert seek_result.plan.est_cost < scan_result.plan.est_cost
    # ...but actual execution is worse: ~25% of rows via random lookups.
    assert seek_result.metrics.logical_reads > scan_result.metrics.logical_reads
    assert seek_result.metrics.cpu_time_ms > scan_result.metrics.cpu_time_ms


def test_results_still_correct_despite_bad_plan():
    engine = engine_with_forced_severe_error()
    query = SelectQuery("t", ("id",), (Predicate("hot", Op.EQ, 1),))
    before = {row["id"] for row in engine.execute(query).rows}
    engine.create_index(IndexDefinition("ix_hot", "t", ("hot",)))
    after = {row["id"] for row in engine.execute(query).rows}
    assert before == after
