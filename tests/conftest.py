"""Shared fixtures: a small orders/customers database used across suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clock import SimClock
from repro.engine import (
    Column,
    Database,
    SqlEngine,
    SqlType,
    TableSchema,
)
from repro.engine.exec import dispatch


def make_orders_schema() -> TableSchema:
    return TableSchema(
        "orders",
        [
            Column("o_id", SqlType.BIGINT, nullable=False),
            Column("o_cust", SqlType.INT),
            Column("o_status", SqlType.INT),
            Column("o_amount", SqlType.FLOAT),
            Column("o_date", SqlType.DATE),
            Column("o_note", SqlType.TEXT),
        ],
        primary_key=["o_id"],
    )


def make_customers_schema() -> TableSchema:
    return TableSchema(
        "customers",
        [
            Column("c_id", SqlType.INT, nullable=False),
            Column("c_region", SqlType.INT),
            Column("c_name", SqlType.TEXT),
        ],
        primary_key=["c_id"],
    )


def populate_orders(table, n_rows: int = 4000, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for i in range(n_rows):
        table.insert(
            (
                i,
                int(rng.integers(0, max(2, n_rows // 20))),
                int(rng.integers(0, 5)),
                float(rng.random() * 1000),
                int(rng.integers(0, 365)),
                f"note-{i % 17}",
            )
        )


def populate_customers(table, n_rows: int = 200, seed: int = 1) -> None:
    rng = np.random.default_rng(seed)
    for i in range(n_rows):
        table.insert((i, int(rng.integers(0, 10)), f"cust-{i}"))


@pytest.fixture
def orders_db() -> Database:
    db = Database("testdb", seed=11)
    populate_orders(db.create_table(make_orders_schema()))
    populate_customers(db.create_table(make_customers_schema()))
    return db


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def engine(orders_db, clock) -> SqlEngine:
    eng = SqlEngine(orders_db, clock=clock)
    eng.build_all_statistics()
    return eng


@pytest.fixture
def noiseless(monkeypatch) -> None:
    """Execution metrics without run-to-run noise (and no noise draws):
    what a perfect engine (``tests.engine.test_optimizer.perfect_engine``)
    executes under."""
    monkeypatch.setattr(dispatch, "NOISE_SIGMA", 0.0)
