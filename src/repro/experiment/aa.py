"""The A/A gate: how often the validator reverts when nothing changed.

Auto-indexing is switched off (create and drop modes OFF), so no index
is created or dropped and every difference between two Query Store
windows is workload mix and execution noise.  Consecutive 6-hour windows
from hour 12 on are paired, ``(w_k, w_k+1)``, and each pair is judged as
the validator judges an index change (Section 6): every statement with
``min_executions`` on both sides gets Welch tests per metric and
:meth:`~repro.validation.Validator._statement_verdict`'s verdict, and
the CONSERVATIVE trigger (a REGRESSED statement holding at least
``min_resource_share`` of the before-window CPU) decides.  The
plan-change scope is left out: an A/A run has no change to scope to, so
every statement stands in for one whose plan an index would have moved.

A pair whose trigger fires is a false revert.  Pairs in which no
statement qualifies are not counted.  A validator that keeps its level
reverts at most ``alpha`` of the pairs.
"""

from __future__ import annotations

import dataclasses

from repro.clock import HOURS
from repro.controlplane import AutoIndexingConfig, AutoMode
from repro.service import build_service
from repro.validation import ValidationMode, ValidationSettings, Validator

#: The fleet: six standard-tier databases.
N_DATABASES = 6
TIER = "standard"
#: Query Store windows are this long and paired from ``START`` on.
WINDOW = 6 * HOURS
START = 12 * HOURS
SETTINGS = ValidationSettings(mode=ValidationMode.CONSERVATIVE)


@dataclasses.dataclass
class AaResult:
    """False reverts of one A/A run."""

    seed: int
    #: Window pairs with at least one judged statement.
    pairs: int
    #: Pairs the CONSERVATIVE trigger would revert.
    reverts: int
    #: Statement verdicts over all pairs, and how many were REGRESSED.
    statements: int
    regressed: int
    alpha: float

    @property
    def rate(self) -> float:
        """The per-validation false-revert rate."""
        return self.reverts / self.pairs if self.pairs else 0.0


def aa_false_reverts(seed: int, days: float = 4.0) -> AaResult:
    """Run the fleet with auto-indexing off for ``days`` and judge every
    pair of consecutive windows."""
    off = AutoIndexingConfig(create_mode=AutoMode.OFF, drop_mode=AutoMode.OFF)
    service = build_service(N_DATABASES, TIER, seed=seed, default_config=off)
    try:
        service.run(days * 24.0)
        end = service.clock.now
        pairs = reverts = statements = regressed = 0
        for name in service.database_names:
            validator = Validator(service.database_plane(name).engine, SETTINGS)
            k = 0
            while START + (k + 2) * WINDOW <= end:
                low = START + k * WINDOW
                verdicts = validator.judge_windows(
                    (low, low + WINDOW), (low + WINDOW, low + 2 * WINDOW)
                )
                k += 1
                if not verdicts:
                    continue
                outcome = validator.decide("", "none", verdicts)
                pairs += 1
                reverts += outcome.should_revert
                statements += len(verdicts)
                regressed += outcome.regressed_count
    finally:
        service.close()
    return AaResult(seed, pairs, reverts, statements, regressed, SETTINGS.alpha)
