"""Emulating the human administrator (the *User* arm of Section 7.3).

Real Azure databases arrive with indexes their users created; synthetic
databases start bare.  ``seed_user_indexes`` plays the role of the user's
historical tuning: it clones the database, replays a slice of workload,
runs a DTA-style analysis *as the user would* — premium-tier experts
estimate better than the optimizer (their intuition corrects its
mistakes), standard-tier users estimate worse and strip include columns —
and materializes the chosen indexes on the primary as ordinary
user-created indexes.

The experiment then follows the paper's own heuristic: among the top-N
most beneficial existing indexes, drop a random k; performance without
those k is "before the user tuned", performance with them is the User arm
(N=20, k=5 in the paper).
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.clock import SimClock
from repro.engine.engine import EngineSettings, SqlEngine
from repro.engine.schema import IndexDefinition
from repro.recommender.dta import DtaSession, DtaSettings
from repro.workload.app_profiles import ApplicationProfile


@dataclasses.dataclass
class UserSkill:
    """How well the emulated user tunes."""

    #: Multiplier on the optimizer's estimation error during the user's
    #: analysis (<1 = expert intuition, >1 = novice guesswork).
    error_scale: float
    #: Probability of keeping include columns (novices often skip them).
    include_probability: float
    max_indexes: int
    #: Probability the user actually implements each identified index —
    #: real users tune partially and move on.
    adoption_probability: float = 1.0


TIER_SKILL = {
    # Premium experts iterate against actual execution feedback, which is
    # equivalent to tuning with near-oracle cost estimates — this is how
    # they sometimes beat both automated arms in Figure 6(a).
    "premium": UserSkill(
        error_scale=0.12, include_probability=0.85, max_indexes=6,
        adoption_probability=0.9,
    ),
    "standard": UserSkill(
        error_scale=1.2, include_probability=0.3, max_indexes=4,
        adoption_probability=0.65,
    ),
    "basic": UserSkill(
        error_scale=2.0, include_probability=0.15, max_indexes=3,
        adoption_probability=0.5,
    ),
}


def seed_user_indexes(
    profile: ApplicationProfile,
    rng: np.random.Generator,
    learn_hours: float = 24.0,
    max_statements: int = 800,
) -> List[IndexDefinition]:
    """Create the user's historical indexes on the primary database."""
    skill = TIER_SKILL.get(profile.tier, TIER_SKILL["standard"])
    # The user analyzes on a scratch copy with their own estimation skill.
    scratch = profile.database.snapshot(f"{profile.name}-user-analysis")
    settings = profile.engine.settings
    user_cost_model = dataclasses.replace(
        settings.cost_model,
        error_sigma=settings.cost_model.error_sigma * skill.error_scale,
        severe_error_rate=settings.cost_model.severe_error_rate
        * min(1.0, skill.error_scale),
    )
    user_settings = EngineSettings(
        interval_minutes=settings.interval_minutes,
        cost_model=user_cost_model,
        execution=settings.execution,
    )
    engine = SqlEngine(scratch, settings=user_settings, clock=SimClock())
    recording = profile.workload.generate_recording(
        start=0.0, hours=learn_hours, max_statements=max_statements
    )
    for statement in recording.statements:
        if statement.at > engine.clock.now:
            engine.clock.advance_to(statement.at)
        try:
            engine.execute(statement.query)
        except Exception:
            continue
    session = DtaSession(
        engine,
        DtaSettings(
            tier=profile.tier,
            max_indexes=skill.max_indexes,
            window_hours=learn_hours,
        ),
    )
    try:
        recommendations = session.run()
    except Exception:
        recommendations = []
    created: List[IndexDefinition] = []
    for i, recommendation in enumerate(recommendations):
        if rng.random() > skill.adoption_probability:
            continue
        includes = recommendation.included_columns
        if rng.random() > skill.include_probability:
            includes = ()
        definition = IndexDefinition(
            name=f"ix_user_{profile.name.replace('-', '_')}_{i}",
            table=recommendation.table,
            key_columns=recommendation.key_columns,
            included_columns=includes,
            auto_created=False,
        )
        if profile.engine.index_exists(definition.table, definition.name):
            continue
        profile.engine.create_index(definition)
        created.append(definition)
    return created


#: How many of the most-read indexes the dropped ones are drawn from
#: (the paper's N).
N_TOP = 20


def pick_indexes_to_drop(
    profile: ApplicationProfile,
    rng: np.random.Generator,
    k: int = 5,
) -> List[Tuple[str, str]]:
    """The paper's heuristic: among the N_TOP most beneficial existing
    non-clustered indexes (by server-tracked read counts), pick a random
    subset of k to drop.  Returns (table, index_name) pairs."""
    candidates = []
    for table in profile.database.tables.values():
        for name, index in table.indexes.items():
            usage = profile.engine.usage_stats.get(name)
            reads = usage.reads if usage else 0
            candidates.append((reads, table.name, name))
    candidates.sort(reverse=True)
    top = candidates[:N_TOP]
    if not top:
        return []
    k = min(k, len(top))
    chosen = rng.choice(len(top), size=k, replace=False)
    return [(top[int(i)][1], top[int(i)][2]) for i in chosen]
