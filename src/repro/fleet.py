"""Fleets: collections of managed databases across service tiers.

The unit of the paper's evaluation is a *fleet* — many databases with
diverse schemas and workloads drawn from a tier's application mix
(Section 7.3 randomly selects active databases per tier).  A
:class:`Fleet` builds those profiles deterministically and runs their
workloads in lockstep virtual time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.clock import SimClock
from repro.engine.engine import EngineSettings
from repro.workload.app_profiles import ApplicationProfile, make_profile


@dataclasses.dataclass
class FleetSpec:
    """How to build a fleet."""

    n_databases: int = 10
    tier: str = "standard"
    seed: int = 0
    name_prefix: str = "db"


class Fleet:
    """A set of application profiles advanced in lockstep virtual time.

    Every database owns its clock; :meth:`run_workloads` advances each one
    over the same window and then aligns laggards, so per-database times
    agree at window boundaries.  :attr:`clock` is the fleet's master clock.
    The region service builds the same profiles from
    :func:`repro.parallel.spec.database_specs`; a :class:`Fleet` serves
    the experiments that drive profiles without a control plane.
    """

    def __init__(
        self,
        spec: FleetSpec,
        engine_settings: Optional[EngineSettings] = None,
    ) -> None:
        self.spec = spec
        self.clock = SimClock()
        self.profiles: Dict[str, ApplicationProfile] = {}
        for i in range(spec.n_databases):
            name = f"{spec.name_prefix}-{spec.tier}-{i}"
            profile = make_profile(
                name,
                seed=spec.seed * 1_000_003 + i,
                tier=spec.tier,
                clock=SimClock(),
                engine_settings=engine_settings,
            )
            self.profiles[name] = profile

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles.values())

    def names(self) -> List[str]:
        return list(self.profiles)

    def get(self, name: str) -> ApplicationProfile:
        return self.profiles[name]

    def run_workloads(
        self, hours: float, max_statements_per_db: Optional[int] = None
    ) -> None:
        """Advance every database's workload by ``hours`` of virtual time."""
        end = self.clock.now + hours * 60.0
        for profile in self.profiles.values():
            profile.run_until(end, max_statements_per_db)
        self.clock.advance_to(end)
