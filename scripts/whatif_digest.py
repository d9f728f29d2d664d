#!/usr/bin/env python
"""Digest of every what-if answer DTA gets over three premium databases.

Builds three premium databases at population seed 11 (two analytics
databases and one SaaS database, as the ``tune_dta`` benchmark does),
fills each one's Query Store at client seed 11 while MI snapshots it,
then runs one tuning round per DTA variant on each: a DTA session, then
MI with its what-if verifier on.  The SaaS database's tuning budget is
cut to ``DRY_BUDGET_CPU_MS`` a window, so its sessions run dry and resume
in the next window, as the control plane's retries do.

It then prints one sha256 over, in order,

- every answer ``WhatIfSession.cost_many`` and ``workload_cost_many``
  give (the configuration asked and the float as ``float.hex()``), from
  each session run that completes;
- at every dry budget, the session's ``WhatIfStats.{calls, cache_hits,
  failed_statements, stats_built}`` and the tuning pool's ``cpu_ms`` and
  ``whatif_calls`` (where the budget ran dry);
- the same at each session's end, and its recommendations;
- MI's recommendations and the pool's totals after it.

Answers are hashed one at a time, so the digest does not depend on how
the session groups configurations into frontiers; a run that runs dry
is summed up by where it stopped, and the resumed run asks everything
again.  ``batches``, ``configurations`` and ``priced`` count work, not
answers, and are left out.  The e2e ``tune_dta`` digest hashes only
recommendations and one count; this one moves with any what-if float,
any charge and any dry-budget point.  Run with ``PYTHONPATH=src python
scripts/whatif_digest.py``; CI compares the printed line with
``tests/data/whatif_digest.txt``.
"""

from __future__ import annotations

import hashlib

from repro.clock import SimClock
from repro.errors import ResourceBudgetExceededError
from repro.recommender import DtaSession, DtaSettings, MiRecommender
from repro.recommender.mi_recommender import MiRecommenderSettings
from repro.rng import derive
from repro.workload.app_profiles import make_profile

POPULATION_SEED = 11
CLIENT_SEED = 11
ARCHETYPES = ("analytics", "analytics", "saas_invoicing")
FILL_STATEMENTS = 240
SNAPSHOTS = 4
#: The tuning budget of the last database: a session needs several
#: windows of it.
DRY_BUDGET_CPU_MS = 200.0
MAX_ATTEMPTS = 100
VARIANTS = tuple(
    DtaSettings(tier="premium", window_hours=10_000.0, **overrides)
    for overrides in (
        {"max_indexes": 3},
        {"max_indexes": 5},
        {"max_indexes": 8},
        {"use_merging": False},
    )
)


def hexed(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def identity(definitions) -> tuple:
    return tuple(
        (d.table, tuple(d.key_columns), tuple(d.included_columns))
        for d in definitions
    )


def recorded(whatif, answers: list) -> None:
    """Append each answer of the session's two frontier APIs to
    ``answers`` as ``(statement, configuration, float)``."""
    cost_many = whatif.cost_many
    workload_cost_many = whatif.workload_cost_many

    def hashing_cost_many(query, head, tails):
        costs = cost_many(query, head, tails)
        statement = query.template_key()
        for tail, cost in zip(tails, costs):
            answers.append((statement, identity(head) + identity(tail), hexed(cost)))
        return costs

    def hashing_workload_cost_many(statements, head, tails):
        totals = workload_cost_many(statements, head, tails)
        workload = tuple(s.query_id for s in statements)
        for tail, total in zip(tails, totals):
            answers.append((workload, identity(head) + identity(tail), hexed(total)))
        return totals

    whatif.cost_many = hashing_cost_many
    whatif.workload_cost_many = hashing_workload_cost_many


def pool_totals(engine) -> tuple:
    usage = engine.governor.tuning.usage
    return hexed(usage.cpu_ms), usage.whatif_calls


def accounting(engine, whatif) -> tuple:
    stats = whatif.stats
    return (
        stats.calls,
        stats.cache_hits,
        stats.failed_statements,
        stats.stats_built,
    ) + pool_totals(engine)


def recommendation_keys(recommendations) -> list:
    return sorted(
        (r.source, r.table, tuple(r.key_columns), tuple(r.included_columns))
        for r in recommendations
    )


def tune(engine, mi, settings, add) -> None:
    """One tuning round: a DTA session, resumed window after window until
    it completes, then MI."""
    session = DtaSession(engine, settings)
    answers: list = []
    recorded(session.whatif, answers)
    for _attempt in range(MAX_ATTEMPTS):
        answers.clear()
        try:
            recommendations = session.run()
        except ResourceBudgetExceededError:
            add("dry", accounting(engine, session.whatif))
            engine.clock.advance(61.0)
            continue
        break
    else:
        raise RuntimeError("the session never completed")
    for answer in answers:
        add("answer", answer)
    add("session", accounting(engine, session.whatif))
    add("dta", recommendation_keys(recommendations))
    try:
        add("mi", recommendation_keys(mi.recommend()))
    except ResourceBudgetExceededError:
        add("mi dry")
    add("pool", pool_totals(engine))


def main() -> None:
    digest = hashlib.sha256()
    for i, archetype in enumerate(ARCHETYPES):
        profile = make_profile(
            f"whatif-premium-{i}",
            seed=POPULATION_SEED * 1_000_003 + i,
            tier="premium",
            archetype=archetype,
            clock=SimClock(),
        )
        engine = profile.engine
        if i == len(ARCHETYPES) - 1:
            engine.governor.tuning.budget_cpu_ms = DRY_BUDGET_CPU_MS
        profile.workload.rng = derive(CLIENT_SEED, "whatif-client", profile.name)
        mi = MiRecommender(engine, MiRecommenderSettings(verify_with_whatif=True))
        for _ in range(SNAPSHOTS):
            profile.workload.run(
                engine, 1e6, max_statements=FILL_STATEMENTS // SNAPSHOTS
            )
            mi.take_snapshot()

        def add(*parts, name=profile.name) -> None:
            digest.update(repr((name,) + parts).encode("utf-8"))

        for settings in VARIANTS:
            engine.clock.advance(60.0)
            tune(engine, mi, settings, add)
    print(f"whatif_digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
