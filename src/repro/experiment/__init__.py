"""Experimentation in production (Section 7): B-instances, the User-arm
emulation heuristic, and the phase-based recommender comparison that
regenerates Figure 6."""

from repro.experiment.binstance import BInstance
from repro.experiment.compare import (
    ComparisonSettings,
    DatabaseComparison,
    FleetComparisonSummary,
    compare_database,
    compare_fleet,
)
from repro.experiment.emulate_user import seed_user_indexes

__all__ = [
    "BInstance",
    "ComparisonSettings",
    "DatabaseComparison",
    "FleetComparisonSummary",
    "compare_database",
    "compare_fleet",
    "seed_user_indexes",
]
