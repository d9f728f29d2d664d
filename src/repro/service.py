"""The region-level auto-indexing service.

One region service drives the closed loop the paper describes:
workloads run, recommendations are generated for *every* database,
auto-implementation applies them where enabled, validation reverts
regressions, and the classifier periodically retrains on the
accumulated validation history (Section 5.2).  It is
:class:`~repro.parallel.service.ShardedFleetService`; :func:`build_service`
runs it on the serial backend, every database's plane in this process.
"""

from __future__ import annotations

from repro.parallel.service import ShardedFleetService, build_fleet_service
from repro.parallel.settings import ServiceSettings  # noqa: F401 (re-export)


def build_service(
    n_databases: int,
    tier: str = "standard",
    seed: int = 0,
    **kwargs,
) -> ShardedFleetService:
    """The region service over a fresh fleet, on the serial backend."""
    return build_fleet_service(
        n_databases, backend="serial", tier=tier, seed=seed, **kwargs
    )
