"""The recommendation state machine (Section 4)."""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

from repro.errors import InvalidStateTransitionError


class RecommendationState(enum.Enum):
    """Lifecycle of one recommendation, exactly as enumerated in the paper."""

    ACTIVE = "active"
    EXPIRED = "expired"
    IMPLEMENTING = "implementing"
    VALIDATING = "validating"
    SUCCESS = "success"
    REVERTING = "reverting"
    REVERTED = "reverted"
    RETRY = "retry"
    ERROR = "error"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {
    RecommendationState.EXPIRED,
    RecommendationState.SUCCESS,
    RecommendationState.REVERTED,
    RecommendationState.ERROR,
}

#: Legal transitions.  RETRY remembers which action to re-drive via the
#: record's ``retry_target``.
_TRANSITIONS: Dict[RecommendationState, FrozenSet[RecommendationState]] = {
    RecommendationState.ACTIVE: frozenset(
        {
            RecommendationState.IMPLEMENTING,
            RecommendationState.EXPIRED,
            RecommendationState.ERROR,
            # A transient fault while *starting* the implementation also
            # parks the record in RETRY.
            RecommendationState.RETRY,
        }
    ),
    RecommendationState.IMPLEMENTING: frozenset(
        {
            RecommendationState.VALIDATING,
            RecommendationState.RETRY,
            RecommendationState.ERROR,
        }
    ),
    RecommendationState.VALIDATING: frozenset(
        {
            RecommendationState.SUCCESS,
            RecommendationState.REVERTING,
            RecommendationState.RETRY,
            RecommendationState.ERROR,
        }
    ),
    RecommendationState.REVERTING: frozenset(
        {
            RecommendationState.REVERTED,
            RecommendationState.RETRY,
            RecommendationState.ERROR,
        }
    ),
    RecommendationState.RETRY: frozenset(
        {
            RecommendationState.IMPLEMENTING,
            RecommendationState.VALIDATING,
            RecommendationState.REVERTING,
            RecommendationState.ERROR,
            RecommendationState.EXPIRED,
        }
    ),
    RecommendationState.EXPIRED: frozenset(),
    RecommendationState.SUCCESS: frozenset(),
    RecommendationState.REVERTED: frozenset(),
    RecommendationState.ERROR: frozenset(),
}


def check_transition(
    current: RecommendationState, new: RecommendationState
) -> None:
    """Raise unless ``current -> new`` is a legal transition."""
    if new not in _TRANSITIONS[current]:
        raise InvalidStateTransitionError(
            f"illegal recommendation transition {current.value} -> {new.value}"
        )
