"""The control plane (Section 4): the backbone of the automation.

A fault-tolerant service that drives the index lifecycle state machine of
one managed database (the region service in :mod:`repro.parallel` runs one
per database): it invokes the recommenders, implements recommendations
(when permitted), validates them, reverts regressions, and watches its own
health.  Implemented as a collection of micro-services
(:mod:`services`) over a persistent, journaled state store (:mod:`store`),
a virtual-time scheduler (:mod:`scheduler`), and a fault injector
(:mod:`faults`) used by tests and benchmarks to exercise the retry
machinery.
"""

from repro.controlplane.control_plane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlane,
    ControlPlaneSettings,
)
from repro.controlplane.states import RecommendationState
from repro.controlplane.store import RecommendationRecord, StateStore

__all__ = [
    "AutoIndexingConfig",
    "AutoMode",
    "ControlPlane",
    "ControlPlaneSettings",
    "RecommendationRecord",
    "RecommendationState",
    "StateStore",
]
