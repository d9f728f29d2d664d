#!/usr/bin/env python
"""The A/A gate: the validator must keep its level when nothing changes.

Runs six standard-tier databases with auto-indexing off for two
simulated days (seed 41) and judges every pair of consecutive 6-hour
Query Store windows from hour 12 as the validator judges an index change
(:func:`repro.experiment.aa.aa_false_reverts`).  Prints the counts and
exits 1 when the per-validation false-revert rate exceeds the Welch
test's alpha.  Run with ``PYTHONPATH=src python scripts/aa_gate.py``
(about 20 s); EXPERIMENTS.md reports the full five-seed, four-day run.
"""

from __future__ import annotations

import sys

from repro.experiment.aa import aa_false_reverts

SEED = 41
DAYS = 2.0


def main() -> int:
    result = aa_false_reverts(SEED, days=DAYS)
    print(
        f"A/A seed {result.seed}, {DAYS:g} days: {result.reverts}/{result.pairs}"
        f" window pairs would revert ({result.rate:.1%}, alpha"
        f" {result.alpha:.0%}); {result.regressed}/{result.statements}"
        " statement verdicts REGRESSED"
    )
    return 1 if result.rate > result.alpha else 0


if __name__ == "__main__":
    sys.exit(main())
