#!/usr/bin/env python
"""Digest of every row a premium statement stream's SELECTs return.

Builds one premium-tier database per premium archetype (analytics,
SaaS invoicing, webshop) and runs each one's own workload for
``STATEMENTS`` statements at client seed 11: the first half against the
generated indexes only, the second half after two extra single-column
indexes on the fact table, so clustered scans, index scans and seeks all
feed joins, aggregates and sorts.  It then prints one sha256 over every
SELECT's rows, in execution order, each row as its ``(column, cell)``
pairs in key order and each cell typed: ``(type name, float.hex())`` for
a float, ``(type name, value)`` otherwise.

An executor change that returns other rows, another row or key order,
another value type (``1`` for ``1.0``) or other float bits (``-0.0`` for
``0.0``, a differently rounded SUM) moves it; the fleet digests hash the
audit chain and would not see it.  Run with ``PYTHONPATH=src python
scripts/select_rows_digest.py``; CI compares the printed line with
``tests/data/select_rows_digest.txt``.

Every statement must take the batch executor path: the script prints the
engines' per-reason interpreter counts to stderr and exits 1 without a
digest line when any is non-zero (``one_path.exit_if_interpreted``).
"""

from __future__ import annotations

import hashlib

from repro.clock import SimClock
from repro.engine.query import SelectQuery
from repro.engine.schema import IndexDefinition
from repro.rng import derive
from repro.workload.app_profiles import make_profile
from repro.workload.generator import Workload

from one_path import exit_if_interpreted

POPULATION_SEED = 11
CLIENT_SEED = 11
ARCHETYPES = ("analytics", "saas_invoicing", "webshop")
STATEMENTS = 2000
EXTRA_INDEXES = 2


def typed(cell):
    if isinstance(cell, float):
        return (type(cell).__name__, cell.hex())
    return (type(cell).__name__, cell)


def run(profile, client, digest, statements: int) -> None:
    """Run ``statements`` of ``client`` against the profile's engine,
    hashing each SELECT's rows."""
    engine = profile.engine
    execute = engine.execute

    def hashing(query, at_time=None):
        result = execute(query, at_time)
        if isinstance(query, SelectQuery):
            rows = [
                tuple((name, typed(cell)) for name, cell in row.items())
                for row in result.rows
            ]
            digest.update(repr((profile.name, rows)).encode("utf-8"))
        return result

    engine.execute = hashing
    try:
        client.run(engine, 1e9, max_statements=statements)
    finally:
        del engine.execute


def add_indexes(profile) -> None:
    fact = profile.schema_spec.fact_tables()[0]
    columns = [column.name for column in fact.columns if column.role != "pk"]
    for column in columns[:EXTRA_INDEXES]:
        profile.engine.create_index(
            IndexDefinition(
                name=f"ix_digest_{fact.name}_{column}",
                table=fact.name,
                key_columns=(column,),
            )
        )


def main() -> None:
    digest = hashlib.sha256()
    engines = []
    for i, archetype in enumerate(ARCHETYPES):
        profile = make_profile(
            f"select-premium-{i}",
            seed=POPULATION_SEED * 1_000_003 + i,
            tier="premium",
            archetype=archetype,
            clock=SimClock(),
        )
        client = Workload(
            profile.workload.templates,
            derive(CLIENT_SEED, "select-client", profile.name),
            statements_per_hour=profile.workload.statements_per_hour,
        )
        run(profile, client, digest, STATEMENTS // 2)
        add_indexes(profile)
        run(profile, client, digest, STATEMENTS - STATEMENTS // 2)
        engines.append(profile.engine)
    exit_if_interpreted(engines)
    print(f"select_rows {digest.hexdigest()}")


if __name__ == "__main__":
    main()
