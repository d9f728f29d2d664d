"""The region-level auto-indexing service facade.

Ties a :class:`repro.fleet.Fleet` to a
:class:`repro.controlplane.ControlPlane` and drives the closed loop the
paper describes: workloads run, recommendations are generated for *every*
database, auto-implementation applies them where enabled, validation
reverts regressions, and the classifier periodically retrains on the
accumulated validation history (Section 5.2).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    ControlPlane,
    ControlPlaneSettings,
)
from repro.fleet import Fleet, FleetSpec
from repro.recommender.classifier import LowImpactClassifier, examples_from_history
from repro.recommender.policy import RecommenderPolicy
from repro.validation import ValidationSettings


@dataclasses.dataclass
class ServiceSettings:
    """Closed-loop cadence settings."""

    step_hours: float = 2.0
    #: Statement cap per database per step (None = rate-driven).
    max_statements_per_step: Optional[int] = None
    #: Retrain the low-impact classifier every this many hours.
    classifier_retrain_hours: float = 48.0


class AutoIndexingService:
    """One region's auto-indexing service over a fleet."""

    def __init__(
        self,
        fleet: Fleet,
        control_settings: Optional[ControlPlaneSettings] = None,
        service_settings: Optional[ServiceSettings] = None,
        validation_settings: Optional[ValidationSettings] = None,
        policy: Optional[RecommenderPolicy] = None,
        default_config: Optional[AutoIndexingConfig] = None,
        mi_settings=None,
        fault_seed: int = 0,
    ) -> None:
        self.fleet = fleet
        self.settings = service_settings or ServiceSettings()
        self.classifier = LowImpactClassifier()
        self.plane = ControlPlane(
            fleet.clock,
            settings=control_settings,
            policy=policy,
            validation_settings=validation_settings,
            classifier=self.classifier,
            mi_settings=mi_settings,
            fault_seed=fault_seed,
        )
        self.configs: Dict[str, AutoIndexingConfig] = {}
        for profile in fleet:
            config = dataclasses.replace(
                default_config
            ) if default_config is not None else AutoIndexingConfig()
            self.configs[profile.name] = config
            self.plane.add_database(
                profile.name, profile.engine, tier=profile.tier, config=config
            )
        self._last_retrain = 0.0

    # ------------------------------------------------------------------

    def run(self, hours: float) -> None:
        """Advance the closed loop by ``hours`` of virtual time."""
        remaining = hours
        while remaining > 0:
            step = min(self.settings.step_hours, remaining)
            self.fleet.run_workloads(
                step, max_statements_per_db=self.settings.max_statements_per_step
            )
            self.plane.process()
            self._maybe_retrain()
            remaining -= step

    def _maybe_retrain(self) -> None:
        now = self.fleet.clock.now
        if now - self._last_retrain < self.settings.classifier_retrain_hours * HOURS:
            return
        self._last_retrain = now
        examples = examples_from_history(self.plane.validation_history)
        if self.classifier.fit(examples):
            self.plane.telemetry.count_event("classifier_retrained", "<region>")

    # ------------------------------------------------------------------

    @property
    def telemetry(self):
        """The control plane's telemetry bundle (registry/tracer/spans)."""
        return self.plane.telemetry

    def set_config(self, database: str, config: AutoIndexingConfig) -> None:
        """Update a database's automation settings (the Section 2 portal)."""
        managed = self.plane.databases[database]
        managed.config = config
        self.configs[database] = config


def build_service(
    n_databases: int,
    tier: str = "standard",
    seed: int = 0,
    **kwargs,
) -> AutoIndexingService:
    """Convenience constructor: fleet + service in one call."""
    fleet = Fleet(FleetSpec(n_databases=n_databases, tier=tier, seed=seed))
    return AutoIndexingService(fleet, **kwargs)


def build_fleet_service(n_databases: int, workers: int = 0, **kwargs):
    """Sharded fleet-parallel counterpart of :func:`build_service`.

    Shards the fleet across ``workers`` shard workers and merges each
    tick deterministically; see :mod:`repro.parallel`.  Imported lazily
    because :mod:`repro.parallel.service` reuses this module's
    :class:`ServiceSettings`.
    """
    from repro.parallel.service import build_fleet_service as _build

    return _build(n_databases, workers=workers, **kwargs)
