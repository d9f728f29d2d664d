"""The recommendation object exchanged between components.

This is the unit the control plane's state machine tracks (Section 4),
the UI displays (Section 2), and the validator judges (Section 6).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

from repro.engine.schema import IndexDefinition, auto_index_name


class Action(enum.Enum):
    """Recommendation action: create or drop an index."""

    CREATE = "create"
    DROP = "drop"


@dataclasses.dataclass
class IndexRecommendation:
    """A create-index or drop-index recommendation."""

    action: Action
    table: str
    key_columns: Tuple[str, ...]
    included_columns: Tuple[str, ...] = ()
    #: "MI", "DTA", or "DROP_ANALYSIS".
    source: str = ""
    #: Estimated workload-level improvement percentage (optimizer units).
    estimated_improvement_pct: float = 0.0
    #: Estimated on-disk size of the index.
    estimated_size_bytes: int = 0
    #: Query Store ids of the statements expected to be impacted (the
    #: "impacted statements" list shown in the UI, Section 2).
    impacted_queries: Tuple[int, ...] = ()
    #: For DROP actions: the existing index's name.
    existing_index_name: Optional[str] = None
    #: Free-form reason ("duplicate of ix_x", "unused for 60 days", ...).
    details: str = ""
    created_at: float = 0.0
    #: Filled when the recommendation is implemented.
    implemented_index_name: Optional[str] = None

    def to_definition(self, name: Optional[str] = None) -> IndexDefinition:
        """The index a CREATE builds, marked auto-created.  A DROP's
        revert recreates the definition the drop removed instead
        (``RecommendationRecord.dropped_definition``), which keeps its own
        ``auto_created`` flag."""
        return IndexDefinition(
            name=name or auto_index_name(self.table, self.key_columns),
            table=self.table,
            key_columns=self.key_columns,
            included_columns=self.included_columns,
            auto_created=True,
        )

    def describe(self) -> str:
        """UI-style one-liner."""
        if self.action is Action.DROP:
            return f"DROP INDEX {self.existing_index_name} ON {self.table} ({self.details})"
        keys = ", ".join(self.key_columns)
        text = f"CREATE INDEX ON {self.table}({keys})"
        if self.included_columns:
            text += " INCLUDE(" + ", ".join(self.included_columns) + ")"
        text += f" — est. impact {self.estimated_improvement_pct:.1f}% [{self.source}]"
        return text

    def structure_key(self) -> tuple:
        """Identity for duplicate-recommendation detection.

        Include columns are an unordered set at the leaf, so their order
        is irrelevant to identity — successive analysis runs may emit them
        in different orders.
        """
        return (
            self.action,
            self.table,
            self.key_columns,
            tuple(sorted(self.included_columns)),
            self.existing_index_name,
        )
