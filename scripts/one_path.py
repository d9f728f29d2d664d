"""The digest scripts' check that every statement took the batch path.

Every plan shape the optimizer emits has a batch operator, so a digest
stream that interprets a statement shows a dispatch regression even when
the digest itself (rows, plans, state) is unchanged.
:func:`exit_if_interpreted` prints the per-reason interpreter counts of
the engines a script built to stderr and exits 1 before the digest line
is printed when any is non-zero; stdout carries the digest line alone.
"""

from __future__ import annotations

import sys
from collections import Counter


def exit_if_interpreted(engines) -> None:
    """Print the summed ``Executor.fallback_counts`` of ``engines`` to
    stderr; exit 1 if any statement was interpreted."""
    counts: Counter = Counter()
    for engine in engines:
        counts.update(engine.executor.fallback_counts)
    summary = ", ".join(f"{reason} {n}" for reason, n in counts.items())
    print(f"interpreted statements by reason: {summary}", file=sys.stderr)
    if sum(counts.values()):
        sys.exit(1)
