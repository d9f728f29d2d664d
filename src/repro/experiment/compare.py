"""Phase-based recommender comparison — the Figure 6 experiment (§7.3).

Per database:

1. emulate the user's historical tuning (:mod:`emulate_user`);
2. run warm-up traffic on the primary to populate usage statistics;
3. apply the paper's heuristic — among the top-N beneficial existing
   indexes pick a random k to drop (N=20, k=5);
4. on a B-instance with those k dropped, replay learning traffic and let
   **MI** and **DTA** each recommend up to k indexes;
5. measure four phases, each on a fresh B-instance replaying a day-plus of
   forked traffic: *baseline* (k dropped), *User* (original indexes),
   *MI* and *DTA* (k dropped + their recommendations);
6. compare phase CPU with fixed execution counts and Welch-style
   significance: the winning arm must beat both others significantly,
   otherwise the database counts as *Comparable*.

``compare_fleet`` aggregates the per-database winners into the Figure 6
pie shares and the mean CPU-improvement percentages the paper reports
(DTA ≈ 82%, MI ≈ 72%, User ≈ 35%).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clock import HOURS
from repro.experiment.binstance import BInstance
from repro.experiment.emulate_user import pick_indexes_to_drop, seed_user_indexes
from repro.recommender import MiRecommender, MiRecommenderSettings
from repro.recommender.dta import DtaSession, DtaSettings
from repro.rng import derive
from repro.workload.app_profiles import ApplicationProfile
from repro.workload.generator import WorkloadRecording

ARMS = ("User", "MI", "DTA")

#: Indexes dropped per database, and the cap on each arm's
#: recommendations (the paper's k).
K_DROP = 5
#: MI DMV snapshots taken over the learning replay.
MI_SNAPSHOT_CHUNKS = 4
#: Minimum relative CPU difference to count as a win.
MIN_EFFECT = 0.03
#: Significance (one-sided z) for declaring a winner.
Z_THRESHOLD = 1.96
#: Hours of the user's tuning history, the warm-up, the recommenders'
#: learning replay and each phase ("more than a day"); callers vary only
#: the statements each replays.
USER_LEARN_HOURS = 24.0
WARMUP_HOURS = 12.0
LEARN_HOURS = 24.0
PHASE_HOURS = 26.0


@dataclasses.dataclass
class ComparisonSettings:
    """Experiment parameters (paper defaults where stated)."""

    user_learn_statements: int = 700
    warmup_statements: int = 450
    learn_statements: int = 800
    phase_statements: int = 700


@dataclasses.dataclass
class PhaseSummary:
    """Fixed-count score of one phase."""

    name: str
    score: float
    variance: float
    templates: int


@dataclasses.dataclass
class DatabaseComparison:
    """Per-database outcome."""

    database: str
    tier: str
    winner: str  # "DTA" | "MI" | "User" | "Comparable"
    improvements: Dict[str, float]
    phases: Dict[str, PhaseSummary]
    dropped_indexes: int
    mi_recommended: int
    dta_recommended: int
    usable: bool = True
    note: str = ""


def _collect_recommendations(
    profile: ApplicationProfile,
    drops: List[Tuple[str, str]],
    settings: ComparisonSettings,
) -> Tuple[List, List]:
    """Learn on a B-instance with the k indexes dropped; return
    (MI definitions, DTA definitions), each capped at k."""
    learn = BInstance(profile.engine, f"{profile.name}-learn", fork_seed=101)
    learn.drop_indexes(drops)
    recording = profile.workload.generate_recording(
        start=profile.engine.now,
        hours=LEARN_HOURS,
        max_statements=settings.learn_statements,
    )
    mi = MiRecommender(learn.engine, MiRecommenderSettings(top_n=K_DROP))
    size = max(1, len(recording.statements) // MI_SNAPSHOT_CHUNKS)
    for start in range(0, len(recording.statements), size):
        chunk = WorkloadRecording(
            statements=recording.statements[start : start + size]
        )
        learn.replay(chunk)
        mi.take_snapshot()
    mi_definitions = [
        r.to_definition(f"nci_mi_{i}") for i, r in enumerate(mi.recommend())
    ]
    dta_session = DtaSession(
        learn.engine,
        DtaSettings(
            tier=profile.tier,
            max_indexes=K_DROP,
            window_hours=LEARN_HOURS,
        ),
    )
    try:
        dta_recommendations = dta_session.run()
    except Exception:
        dta_recommendations = []
    dta_definitions = [
        r.to_definition(f"nci_dta_{i}")
        for i, r in enumerate(dta_recommendations[:K_DROP])
    ]
    return mi_definitions, dta_definitions


def _run_phase(
    profile: ApplicationProfile,
    arm: str,
    drops: List[Tuple[str, str]],
    creates: List,
    recording: WorkloadRecording,
) -> Optional[Dict[int, dict]]:
    """One phase on a fresh B-instance; returns per-template stats, or
    None when the clone diverged or any step raised (§7.2's divergence
    detection: the database is then unusable for the comparison).

    The phase clones the primary, drops ``drops``, creates ``creates``,
    replays a fork of ``recording`` and sums each template's CPU over
    the phase window.  All phases replay forks of the *same* recorded
    stream — the paper's B-instances all receive the TDS fork of the
    same A-instance traffic — so cross-phase differences reflect the
    index configurations, not different parameter draws.
    """
    try:
        binstance = BInstance(profile.engine, f"{profile.name}-{arm.lower()}")
        binstance.drop_indexes(drops)
        binstance.apply_indexes(creates)
        binstance.replay(recording)
        if binstance.diverged():
            return None
        now = binstance.engine.now
        window = binstance.engine.query_store.aggregate(
            max(0.0, now - (PHASE_HOURS + 1) * HOURS), now
        )
        per_query: Dict[int, dict] = {}
        for (query_id, _plan), stats in window.items():
            cpu = stats.metrics["cpu_time_ms"]
            entry = per_query.setdefault(
                query_id, {"executions": 0, "total": 0.0, "m2_weighted": 0.0}
            )
            entry["executions"] += stats.executions
            entry["total"] += cpu.total
            entry["m2_weighted"] += cpu.m2
    except Exception:
        return None
    return per_query


def _phase_summaries(
    stats_by_arm: Dict[str, Dict[int, dict]]
) -> Dict[str, PhaseSummary]:
    """Fixed-execution-count scores over templates common to all phases."""
    common = None
    for stats in stats_by_arm.values():
        ids = {qid for qid, entry in stats.items() if entry["executions"] >= 2}
        common = ids if common is None else (common & ids)
    common = common or set()
    summaries = {}
    for arm, stats in stats_by_arm.items():
        score = 0.0
        variance = 0.0
        for qid in common:
            fixed = min(stats_by_arm[a][qid]["executions"] for a in stats_by_arm)
            entry = stats[qid]
            n = entry["executions"]
            mean = entry["total"] / n
            var_mean = (entry["m2_weighted"] / max(1, n - 1)) / n
            score += fixed * mean
            variance += (fixed ** 2) * var_mean
        summaries[arm] = PhaseSummary(
            name=arm, score=score, variance=variance, templates=len(common)
        )
    return summaries


def _pick_winner(summaries: Dict[str, PhaseSummary]) -> str:
    """Best arm must significantly beat every other arm, else Comparable."""
    arms = [a for a in ARMS if a in summaries]
    best = min(arms, key=lambda a: summaries[a].score)
    for other in arms:
        if other == best:
            continue
        a, b = summaries[best], summaries[other]
        diff = b.score - a.score
        se = math.sqrt(max(a.variance + b.variance, 1e-12))
        if diff < MIN_EFFECT * max(b.score, 1e-9):
            return "Comparable"
        if diff / se < Z_THRESHOLD:
            return "Comparable"
    return best


def compare_database(
    profile: ApplicationProfile,
    settings: Optional[ComparisonSettings] = None,
    rng: Optional[np.random.Generator] = None,
) -> DatabaseComparison:
    """Run the full four-phase experiment on one database."""
    settings = settings or ComparisonSettings()
    rng = rng if rng is not None else derive(profile.database.seed, "fig6", profile.name)
    seed_user_indexes(
        profile,
        rng,
        learn_hours=USER_LEARN_HOURS,
        max_statements=settings.user_learn_statements,
    )
    # Warm-up on the primary: populates usage statistics and Query Store.
    profile.workload.run(
        profile.engine,
        WARMUP_HOURS,
        max_statements=settings.warmup_statements,
    )
    drops = pick_indexes_to_drop(profile, rng, k=K_DROP)
    mi_defs, dta_defs = _collect_recommendations(profile, drops, settings)
    phases = {
        "baseline": (drops, []),
        "User": ([], []),
        "MI": (drops, mi_defs),
        "DTA": (drops, dta_defs),
    }
    phase_recording = profile.workload.generate_recording(
        start=profile.engine.now,
        hours=PHASE_HOURS,
        max_statements=settings.phase_statements,
    )
    stats_by_arm: Dict[str, Dict[int, dict]] = {}
    for arm, (arm_drops, arm_creates) in phases.items():
        stats = _run_phase(
            profile, arm, arm_drops, arm_creates, phase_recording
        )
        if stats is None:
            return DatabaseComparison(
                database=profile.name,
                tier=profile.tier,
                winner="Comparable",
                improvements={},
                phases={},
                dropped_indexes=len(drops),
                mi_recommended=len(mi_defs),
                dta_recommended=len(dta_defs),
                usable=False,
                note=f"phase {arm} failed (divergence or error)",
            )
        stats_by_arm[arm] = stats
    summaries = _phase_summaries(stats_by_arm)
    baseline = summaries["baseline"].score
    improvements = {}
    for arm in ARMS:
        if baseline > 0:
            improvements[arm] = max(
                0.0, 100.0 * (baseline - summaries[arm].score) / baseline
            )
        else:
            improvements[arm] = 0.0
    winner = _pick_winner({arm: summaries[arm] for arm in ARMS})
    return DatabaseComparison(
        database=profile.name,
        tier=profile.tier,
        winner=winner,
        improvements=improvements,
        phases=summaries,
        dropped_indexes=len(drops),
        mi_recommended=len(mi_defs),
        dta_recommended=len(dta_defs),
    )


@dataclasses.dataclass
class FleetComparisonSummary:
    """Aggregated Figure 6-style result for one tier."""

    tier: str
    results: List[DatabaseComparison]

    @property
    def usable(self) -> List[DatabaseComparison]:
        return [r for r in self.results if r.usable]

    def shares(self) -> Dict[str, float]:
        """Pie-chart shares: winner percentages over usable databases."""
        usable = self.usable
        if not usable:
            return {}
        counts: Dict[str, int] = {"DTA": 0, "MI": 0, "User": 0, "Comparable": 0}
        for result in usable:
            counts[result.winner] += 1
        return {k: 100.0 * v / len(usable) for k, v in counts.items()}

    def mean_improvements(self) -> Dict[str, float]:
        """Mean CPU-time improvement per arm across databases (§7.3 text)."""
        usable = [r for r in self.usable if r.improvements]
        if not usable:
            return {arm: 0.0 for arm in ARMS}
        return {
            arm: float(np.mean([r.improvements[arm] for r in usable]))
            for arm in ARMS
        }

    def automation_matches_user_pct(self) -> float:
        """Share of databases where automation matched or beat the user."""
        usable = self.usable
        if not usable:
            return 0.0
        good = sum(1 for r in usable if r.winner != "User")
        return 100.0 * good / len(usable)

    def table_rows(self) -> List[str]:
        shares = self.shares()
        means = self.mean_improvements()
        rows = [f"Figure 6 ({self.tier} tier), {len(self.usable)} databases:"]
        for arm in ("DTA", "MI", "User", "Comparable"):
            rows.append(f"  {arm:<11} {shares.get(arm, 0.0):5.1f}%")
        rows.append("Mean CPU-time improvement vs baseline:")
        for arm in ARMS:
            rows.append(f"  {arm:<11} {means[arm]:5.1f}%")
        rows.append(
            f"Automation matched/beat User on {self.automation_matches_user_pct():.0f}% of databases"
        )
        return rows


def compare_fleet(
    fleet,
    settings: Optional[ComparisonSettings] = None,
) -> FleetComparisonSummary:
    """Run the comparison over every database in a fleet."""
    settings = settings or ComparisonSettings()
    results = []
    for profile in fleet:
        results.append(compare_database(profile, settings))
    return FleetComparisonSummary(tier=fleet.spec.tier, results=results)


def select_experiment_candidates(
    fleet,
    rng: np.random.Generator,
    n: int,
    min_statements_per_hour: float = 1.0,
) -> List[ApplicationProfile]:
    """Randomly choose *active* databases meeting experiment criteria.

    Mirrors Section 7.3: "randomly selecting active databases" from a
    tier.  A database qualifies when its recent Query Store activity
    clears the threshold; ``n`` qualifying databases are drawn without
    replacement.
    """
    qualifying = []
    for profile in fleet:
        engine = profile.engine
        now = engine.now
        window = engine.query_store.aggregate(max(0.0, now - 24 * 60.0), now)
        executions = sum(stats.executions for stats in window.values())
        hours = min(24.0, max(now / 60.0, 1e-9))
        if now == 0.0 or executions / hours >= min_statements_per_hour:
            qualifying.append(profile)
    if len(qualifying) <= n:
        return qualifying
    picks = rng.choice(len(qualifying), size=n, replace=False)
    return [qualifying[int(i)] for i in picks]
