#!/usr/bin/env python
"""Digest of every plan the optimizer chooses over three statement streams.

Builds three databases at population seed 11 and runs each one's own
workload at client seed 11:

- a standard-tier SaaS database (point reads, ranges, DML);
- a premium-tier analytics database (joins, aggregates, sorts);
- a standard-tier telemetry database whose DML weight is raised to 85%.

Each stream runs ``STATEMENTS`` statements in three phases.  Before the
second phase two single-column indexes are built on the fact table.
Before the third the first of them is dropped again, every table's
statistics are rebuilt, and one query whose plan reads the surviving
index has that plan forced through Query Store.  So index DDL, a
statistics refresh and plan forcing all fall between statements.

It then prints one sha256 over, in execution order,

- every executed statement's plan signature;
- every plan node's type, ``est_rows`` and ``est_cost`` (floats as
  ``float.hex()``);
- every missing-index emission the optimizer reports (table, equality,
  inequality and include columns, cost and impact as hex).

A planner change that picks another plan, rounds an estimate
differently or reports another MI candidate moves it; the fleet digests
hash the audit chain and see a plan only through what it does.  Run with
``PYTHONPATH=src python scripts/plan_digest.py``; CI compares the
printed line with ``tests/data/plan_digest.txt``.

Every statement must take the batch executor path: the script prints the
engines' per-reason interpreter counts to stderr and exits 1 without a
digest line when any is non-zero (``one_path.exit_if_interpreted``).
"""

from __future__ import annotations

import dataclasses
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
STATEMENTS = 1500
EXTRA_INDEXES = 2
DML_SHARE = 0.85
DML_KINDS = frozenset(
    {"update_by_pk", "update_by_predicate", "insert", "bulk_insert", "delete_old"}
)
#: (name, tier, archetype, DML share or None for the profile's own mix)
STREAMS = (
    ("plan-standard", "standard", "saas_invoicing", None),
    ("plan-premium", "premium", "analytics", None),
    ("plan-dml", "standard", "telemetry", DML_SHARE),
)


def hexed(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


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


def run(profile, client, digest, statements: int) -> None:
    """Run ``statements`` of ``client``, hashing each plan and each MI
    emission as it happens."""
    engine = profile.engine
    execute = engine.execute
    record = engine.missing_indexes.record

    def add(*parts) -> None:
        digest.update(repr((profile.name,) + parts).encode("utf-8"))

    def hashing_execute(query, at_time=None):
        result = execute(query, at_time)
        plan = result.plan
        add("plan", plan.signature(), [
            (type(node).__name__, hexed(node.est_rows), hexed(node.est_cost))
            for node in plan.walk()
        ])
        return result

    def hashing_record(table, eq, ineq, incl, cost, impact, now):
        add("mi", table, eq, ineq, incl, hexed(cost), hexed(impact))
        return record(table, eq, ineq, incl, cost, impact, now)

    engine.execute = hashing_execute
    engine.missing_indexes.record = hashing_record
    try:
        client.run(engine, 1e9, max_statements=statements)
    finally:
        del engine.execute
        del engine.missing_indexes.record


def extra_indexes(profile):
    fact = profile.schema_spec.fact_tables()[0]
    columns = [column.name for column in fact.columns if column.role != "pk"]
    return [
        IndexDefinition(
            name=f"ix_plan_{fact.name}_{column}",
            table=fact.name,
            key_columns=(column,),
        )
        for column in columns[:EXTRA_INDEXES]
    ]


def force_a_plan(engine, index_name: str) -> None:
    """Force, for the first SELECT query (by id) that ran a plan reading
    ``index_name``, that plan."""
    store = engine.query_store
    until = engine.now + store.interval_minutes
    for info in sorted(store.queries(), key=lambda q: q.query_id):
        if not isinstance(engine.observed_statement(info.query_id), SelectQuery):
            continue
        for plan in store.plans_for_query(info.query_id, 0.0, until):
            if plan.referenced_indexes[:1] == (index_name,):
                store.force_plan(info.query_id, plan.plan_id)
                return


def main() -> None:
    digest = hashlib.sha256()
    engines = []
    phase = STATEMENTS // 3
    for i, (name, tier, archetype, dml_share) in enumerate(STREAMS):
        profile = make_profile(
            name,
            seed=POPULATION_SEED * 1_000_003 + i,
            tier=tier,
            archetype=archetype,
            clock=SimClock(),
        )
        templates = profile.workload.templates
        if dml_share is not None:
            templates = reweighted(templates, dml_share)
        client = Workload(
            templates,
            derive(CLIENT_SEED, "plan-client", profile.name),
            statements_per_hour=profile.workload.statements_per_hour,
        )
        engine = profile.engine
        run(profile, client, digest, phase)
        extras = extra_indexes(profile)
        for definition in extras:
            engine.create_index(definition)
        run(profile, client, digest, phase)
        engine.drop_index(extras[0].table, extras[0].name)
        engine.build_all_statistics()
        force_a_plan(engine, extras[-1].name)
        run(profile, client, digest, STATEMENTS - 2 * phase)
        engines.append(engine)
    exit_if_interpreted(engines)
    print(f"plan_digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
