#!/usr/bin/env python
"""Deep digest of the storage state a DML-heavy stream leaves behind.

Builds three telemetry databases (standard tier), gives each fact table
four extra single-column indexes, and runs an 85%-DML client against
them: 40 batches of 25 statements, round-robin over the databases, at
client seed 11.  It then prints one sha256 over

- every B+ tree's ``snapshot()`` (order keys, keys, payloads), ``height``
  and ``leaf_page_count`` — the clustered tree and each secondary index;
- each table's ``data_version``;
- the Query Store's per-query ``logical_reads`` and ``cpu_time_ms``
  totals.

A write-path change that keeps row and entry counts but writes a wrong
payload, splits a leaf differently or charges different pages moves it.
Run with ``PYTHONPATH=src python scripts/dml_state_digest.py``; CI
compares the printed line with ``tests/data/dml_state_digest.txt``.

Every statement must take the batch executor path: the script prints the
engines' per-reason interpreter counts to stderr and exits 1 without a
digest line when any is non-zero (``one_path.exit_if_interpreted``).
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.clock import SimClock
from repro.engine.schema import IndexDefinition
from repro.rng import derive
from repro.workload.app_profiles import make_profile
from repro.workload.generator import Workload

from one_path import exit_if_interpreted

POPULATION_SEED = 11
CLIENT_SEED = 11
DATABASES = 3
EXTRA_INDEXES = 4
DML_SHARE = 0.85
BATCHES = 40
BATCH = 25
DML_KINDS = frozenset(
    {"update_by_pk", "update_by_predicate", "insert", "bulk_insert", "delete_old"}
)


def reweighted(templates, dml_share):
    """The templates with DML weight scaled to ``dml_share`` of the total."""
    dml = sum(t.weight for t in templates if t.kind in DML_KINDS)
    reads = sum(t.weight for t in templates if t.kind not in DML_KINDS)
    return [
        dataclasses.replace(
            t,
            weight=t.weight * dml_share / dml
            if t.kind in DML_KINDS
            else t.weight * (1.0 - dml_share) / reads,
        )
        for t in templates
    ]


def build():
    profiles = [
        make_profile(
            f"ingest-standard-{i}",
            seed=POPULATION_SEED * 1_000_003 + i,
            tier="standard",
            archetype="telemetry",
            clock=SimClock(),
        )
        for i in range(DATABASES)
    ]
    for profile in profiles:
        fact = profile.schema_spec.fact_tables()[0]
        columns = [column.name for column in fact.columns if column.role != "pk"]
        for column in columns[:EXTRA_INDEXES]:
            profile.engine.create_index(
                IndexDefinition(
                    name=f"ix_e2e_{fact.name}_{column}",
                    table=fact.name,
                    key_columns=(column,),
                )
            )
    clients = [
        Workload(
            reweighted(profile.workload.templates, DML_SHARE),
            derive(CLIENT_SEED, "e2e-client", profile.name),
            statements_per_hour=profile.workload.statements_per_hour,
        )
        for profile in profiles
    ]
    return profiles, clients


def state_digest(profiles) -> str:
    digest = hashlib.sha256()

    def add(*parts) -> None:
        digest.update(repr(parts).encode("utf-8"))

    for profile in profiles:
        for name, table in sorted(profile.database.tables.items()):
            trees = [("<clustered>", table.clustered)] + [
                (index_name, index.tree)
                for index_name, index in sorted(table.indexes.items())
            ]
            for tree_name, tree in trees:
                add(profile.name, name, tree_name, tree.height,
                    tree.leaf_page_count, tree.snapshot())
            add(profile.name, name, "data_version", table.data_version)
        store = profile.engine.query_store
        until = profile.engine.now + store.interval_minutes
        for metric in ("logical_reads", "cpu_time_ms"):
            totals = store.per_query_totals(0.0, until, metric)
            add(profile.name, metric, sorted(totals.items()))
    return digest.hexdigest()


def main() -> None:
    profiles, clients = build()
    for batch in range(BATCHES):
        which = batch % len(profiles)
        clients[which].run(profiles[which].engine, 1e9, max_statements=BATCH)
    exit_if_interpreted(profile.engine for profile in profiles)
    print(f"dml_state {state_digest(profiles)}")


if __name__ == "__main__":
    main()
