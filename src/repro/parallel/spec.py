"""Picklable build specs for shard workers.

Process-backed shards never receive live engines or planes over the
pipe: they receive these specs and build their own state, which keeps
the transport payload tiny and sidesteps pickling closures (scheduler
callbacks), RNGs, and page trees.  Everything here must stay picklable
and deterministic: ``(DatabaseSpec, SharedSettings)`` fully determines a
database's schema, data, workload, and automation behaviour.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.controlplane import AutoIndexingConfig, ControlPlaneSettings
from repro.engine.engine import EngineSettings
from repro.recommender import MiRecommenderSettings
from repro.recommender.policy import RecommenderPolicy
from repro.rng import stable_hash
from repro.validation import ValidationSettings


@dataclasses.dataclass(frozen=True)
class DatabaseSpec:
    """Everything needed to rebuild one managed database in a worker."""

    name: str
    #: Seed for :func:`repro.workload.app_profiles.make_profile`:
    #: ``fleet_seed * 1_000_003 + index`` (see :func:`database_specs`).
    profile_seed: int
    tier: str
    #: Per-database fault seed: one injector RNG shared across databases
    #: would make draw order depend on interleaving, which can never be
    #: deterministic under sharding — so every database's plane gets an
    #: independent stream instead.
    fault_seed: int
    config: AutoIndexingConfig = dataclasses.field(
        default_factory=AutoIndexingConfig
    )


@dataclasses.dataclass(frozen=True)
class SharedSettings:
    """Fleet-wide settings shipped to every worker once at build time."""

    control_settings: Optional[ControlPlaneSettings] = None
    validation_settings: Optional[ValidationSettings] = None
    mi_settings: Optional[MiRecommenderSettings] = None
    policy: Optional[RecommenderPolicy] = None
    engine_settings: Optional[EngineSettings] = None
    #: Collect worker-side phase traces each tick (the profiling layer's
    #: worker half; hot-path rows ship regardless of this flag).
    instrument: bool = True


@dataclasses.dataclass(frozen=True)
class ShardPayload:
    """One shard's build order: its databases plus the shared settings."""

    shard_index: int
    databases: List[DatabaseSpec]
    shared: SharedSettings


def database_specs(
    n_databases: int,
    tier: str = "standard",
    seed: int = 0,
    name_prefix: str = "db",
    fault_seed: int = 0,
    config: Optional[AutoIndexingConfig] = None,
) -> List[DatabaseSpec]:
    """Specs for a fleet: the one naming and profile-seed recipe, which
    :class:`repro.fleet.Fleet` builds its profiles from too."""
    specs = []
    for i in range(n_databases):
        name = f"{name_prefix}-{tier}-{i}"
        specs.append(
            DatabaseSpec(
                name=name,
                profile_seed=seed * 1_000_003 + i,
                tier=tier,
                fault_seed=stable_hash("fleet-faults", fault_seed, name)
                & 0x7FFFFFFF,
                config=config
                if config is not None
                else AutoIndexingConfig(),
            )
        )
    return specs


def shard_payloads(
    specs: List[DatabaseSpec], n_shards: int, shared: SharedSettings
) -> List[ShardPayload]:
    """Split specs across ``n_shards`` round-robin in sorted-name order.

    Round-robin keeps shards balanced when per-database cost correlates
    with index (bigger fleets are built with ascending seeds).  The
    assignment has no effect on merged output — only on load balance.
    """
    ordered = sorted(specs, key=lambda s: s.name)
    buckets: List[List[DatabaseSpec]] = [[] for _ in range(max(1, n_shards))]
    for i, spec in enumerate(ordered):
        buckets[i % len(buckets)].append(spec)
    return [
        ShardPayload(shard_index=i, databases=bucket, shared=shared)
        for i, bucket in enumerate(buckets)
        if bucket
    ]
