"""§5.1.1 / §5.3.1: tuning overhead — MI vs DTA, and the sampled-statistics
budget reduction.

Paper: MI is "a lightweight always-on feature" while DTA "creates sampled
statistics and makes additional what-if optimizer calls which result in
higher overhead"; the team also "reduced the number of sampled statistics
created by DTA by 2-3x without noticeable impact on recommendation
quality".

Expected shape: MI's recommendation pass performs zero optimizer calls
and consumes (orders of magnitude) less tuning-pool CPU than a DTA
session; cutting DTA's statistics budget ~3x leaves its recommendation
set essentially unchanged.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.recommender import MiRecommender
from repro.recommender.dta import DtaSession, DtaSettings
from repro.workload import make_profile


def prepare_profile(seed=401):
    profile = make_profile(
        f"overhead-{seed}", seed=seed, tier="premium", archetype="analytics"
    )
    # Start from PK-only statistics: DTA must create sampled statistics on
    # candidate columns, which is the overhead Section 5.3.1 measures.
    from repro.engine.statistics import TableStatistics

    for table in profile.engine.database.tables.values():
        table.statistics = TableStatistics(table.name)
        table.build_statistics(columns=list(table.schema.primary_key))
    mi = MiRecommender(profile.engine)
    for _ in range(4):
        profile.workload.run(profile.engine, hours=3, max_statements=250)
        mi.take_snapshot()
    return profile, mi


def run_overhead_comparison():
    profile, mi = prepare_profile()
    engine = profile.engine
    tuning_pool = engine.governor.tuning

    # What-if calls are counted where they are charged (the tuning
    # pool), not where they are priced: DTA answers most of its costings
    # from an already-priced projection without reaching the optimizer.
    whatif_before = tuning_pool.usage.whatif_calls
    cpu_before = tuning_pool.usage.cpu_ms
    mi_recs = mi.recommend()
    mi_whatif = tuning_pool.usage.whatif_calls - whatif_before
    mi_cpu = tuning_pool.usage.cpu_ms - cpu_before

    cpu_before = tuning_pool.usage.cpu_ms
    session = DtaSession(engine, DtaSettings(tier="premium"))
    dta_recs = session.run()
    dta_cpu = tuning_pool.usage.cpu_ms - cpu_before
    dta_stats = session.whatif.stats

    # Statistics-budget ablation on a fresh but identical profile.
    profile2, mi2 = prepare_profile()
    tight = DtaSession(
        profile2.engine,
        DtaSettings(tier="premium", stats_column_budget=2),
    )
    tight_recs = tight.run()
    return {
        "mi_whatif": mi_whatif,
        "mi_cpu": mi_cpu,
        "mi_recs": {(r.table, r.key_columns) for r in mi_recs},
        "dta_cpu": dta_cpu,
        "dta_whatif": dta_stats.calls,
        "dta_priced": dta_stats.priced,
        "dta_stats_built": dta_stats.stats_built,
        "dta_recs": {(r.table, r.key_columns) for r in dta_recs},
        "tight_recs": {(r.table, r.key_columns) for r in tight_recs},
        "tight_stats_built": tight.whatif.stats.stats_built,
    }


def test_tuning_overhead(benchmark):
    result = benchmark.pedantic(run_overhead_comparison, rounds=1, iterations=1)
    overlap = (
        len(result["dta_recs"] & result["tight_recs"])
        / max(1, len(result["dta_recs"] | result["tight_recs"]))
    )
    emit(
        [
            "== Tuning overhead: MI vs DTA (Sections 5.1.1 / 5.3.1) ==",
            f"  MI recommend():  {result['mi_whatif']} what-if calls, "
            f"{result['mi_cpu']:.0f} ms tuning-pool CPU",
            f"  DTA session:     {result['dta_whatif']} what-if calls charged "
            f"({result['dta_priced']} priced by the optimizer), "
            f"{result['dta_cpu']:.0f} ms tuning-pool CPU, "
            f"{result['dta_stats_built']} sampled statistics",
            f"  DTA w/ tight stats budget: {result['tight_stats_built']} "
            f"statistics; recommendation overlap {overlap:.0%}",
        ]
    )
    assert result["mi_whatif"] == 0, "MI must make no optimizer calls"
    assert result["dta_whatif"] > 50, "DTA's search is what-if driven"
    assert 0 < result["dta_priced"] <= result["dta_whatif"]
    assert result["dta_cpu"] > 10 * max(result["mi_cpu"], 1e-9)
    # 2-3x fewer statistics without noticeable quality impact.
    assert overlap >= 0.6, f"stats budget hurt quality: overlap {overlap:.0%}"
