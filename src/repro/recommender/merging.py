"""Conservative index merging (Section 5.2, step 5; Chaudhuri & Narasayya '99).

To find indexes that benefit multiple queries without exploding the search
space, candidates whose key columns are a *prefix* of another candidate's
keys (include columns may differ) are merged: the wider key wins and the
include sets are unioned.  A merge is kept only if it does not lose benefit
— we approximate the paper's "merge only if the aggregate benefit across
queries improves" by requiring the merged index to subsume both inputs'
column sets, so every query served before is still served (possibly with a
slightly larger index).
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

#: Widest include list a merge makes, for MI and DTA alike (over-wide
#: indexes cost more to maintain than they save).
MAX_INCLUDE_COLUMNS = 8


@dataclasses.dataclass
class MergeCandidate:
    """A candidate index during merging."""

    table: str
    key_columns: Tuple[str, ...]
    included_columns: Tuple[str, ...]
    benefit: float
    impacted_queries: Tuple[int, ...] = ()
    source: str = ""

    def subsumes(self, other: "MergeCandidate") -> bool:
        """True if this candidate serves every query the other serves."""
        if self.table != other.table:
            return False
        if self.key_columns[: len(other.key_columns)] != other.key_columns:
            return False
        own_columns = set(self.key_columns) | set(self.included_columns)
        other_columns = set(other.key_columns) | set(other.included_columns)
        return other_columns <= own_columns


def merge_pair(a: MergeCandidate, b: MergeCandidate) -> MergeCandidate:
    """Merge two candidates where one's keys prefix the other's."""
    wide, narrow = (a, b) if len(a.key_columns) >= len(b.key_columns) else (b, a)
    includes = tuple(
        dict.fromkeys(
            column
            for column in wide.included_columns + narrow.included_columns
            + narrow.key_columns
            if column not in wide.key_columns
        )
    )
    return MergeCandidate(
        table=wide.table,
        key_columns=wide.key_columns,
        included_columns=includes,
        benefit=a.benefit + b.benefit,
        impacted_queries=tuple(
            dict.fromkeys(a.impacted_queries + b.impacted_queries)
        ),
        source=wide.source or narrow.source,
    )


def mergeable(a: MergeCandidate, b: MergeCandidate) -> bool:
    """Conservative rule: same table, one key list prefixes the other."""
    if a.table != b.table:
        return False
    shorter, longer = (
        (a, b) if len(a.key_columns) <= len(b.key_columns) else (b, a)
    )
    return longer.key_columns[: len(shorter.key_columns)] == shorter.key_columns


def merge_candidates(candidates: List[MergeCandidate]) -> List[MergeCandidate]:
    """Greedy pass merging prefix-compatible candidates.

    Candidates are processed in descending benefit order; each is merged
    into an existing output candidate when the conservative rule applies
    and the merged include list stays within :data:`MAX_INCLUDE_COLUMNS`.
    """
    ordered = sorted(candidates, key=lambda c: -c.benefit)
    merged: List[MergeCandidate] = []
    for candidate in ordered:
        target_index = None
        for i, existing in enumerate(merged):
            if not mergeable(existing, candidate):
                continue
            trial = merge_pair(existing, candidate)
            if len(trial.included_columns) <= MAX_INCLUDE_COLUMNS:
                target_index = i
                break
        if target_index is None:
            merged.append(candidate)
        else:
            merged[target_index] = merge_pair(merged[target_index], candidate)
    return merged
