"""repro — reproduction of "Automatically Indexing Millions of Databases
in Microsoft Azure SQL Database" (Das et al., SIGMOD 2019).

Public entry points:

- :mod:`repro.engine` — the simulated database engine substrate;
- :mod:`repro.workload` — synthetic schemas, data, and workloads;
- :mod:`repro.recommender` — the MI and DTA index recommenders;
- :mod:`repro.validation` — before/after validation with auto-revert;
- :mod:`repro.controlplane` — the per-region automation;
- :mod:`repro.experiment` — B-instances and the Figure 6 experiment;
- :mod:`repro.service` — the closed-loop region service facade;
- :mod:`repro.api` — the user-facing management surface (portal views).
"""

__version__ = "1.0.0"

from repro.clock import DAYS, HOURS, MINUTES, SimClock
from repro.fleet import Fleet, FleetSpec
from repro.service import ServiceSettings, build_service

__all__ = [
    "DAYS",
    "Fleet",
    "FleetSpec",
    "HOURS",
    "MINUTES",
    "ServiceSettings",
    "SimClock",
    "build_service",
    "__version__",
]
