"""Drop-index analysis (Section 5.4).

Deliberately *not* workload-driven: the recommender reads long-horizon
server-tracked statistics (index usage counters) to find indexes with
little or no read benefit but real maintenance overhead, plus duplicate
indexes (identical key columns including order).  Conservative exclusions
prevent application breakage:

- indexes referenced by query hints or forced plans are never candidates
  (dropping one would break the hinting query);
- unique indexes (stand-ins for application constraints) are excluded;
- indexes younger than the observation window are excluded — an index
  serving an occasional weekly report may simply not have been read *yet*.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Set

from repro.clock import DAYS
from repro.engine.engine import SqlEngine
from repro.recommender.recommendation import Action, IndexRecommendation

#: Maximum reads over the horizon for an index to count as unused.
MAX_READS = 0
#: Minimum writes over the horizon — dropping an unused index that is
#: also never maintained saves little and risks much.
MIN_WRITES = 10


@dataclasses.dataclass
class DropRecommenderSettings:
    """Conservatism knobs."""

    #: Observation horizon (the paper analyzes ~60 days of statistics).
    observation_days: float = 60.0


class DropRecommender:
    """Duplicate and unused index analysis for one database."""

    def __init__(
        self,
        engine: SqlEngine,
        settings: Optional[DropRecommenderSettings] = None,
    ) -> None:
        self.engine = engine
        self.settings = settings or DropRecommenderSettings()

    # ------------------------------------------------------------------

    def hinted_index_names(self) -> Set[str]:
        """Indexes referenced by query hints or forced plans — dropping one
        would prevent the hinting/forced query from executing (§5.4)."""
        hinted: Set[str] = set()
        for info in self.engine.query_store.queries():
            query = self.engine.observed_statement(info.query_id)
            hint = getattr(query, "index_hint", None)
            if hint:
                hinted.add(hint)
        hinted |= self.engine.query_store.forced_plan_indexes()
        return hinted

    def recommend(self) -> List[IndexRecommendation]:
        now = self.engine.now
        horizon = self.settings.observation_days * DAYS
        hinted = self.hinted_index_names()
        return self._duplicates(hinted) + self._unused(hinted, now, horizon)

    # ------------------------------------------------------------------

    def _protected(self, definition, hinted: Set[str]) -> bool:
        if definition.name in hinted:
            return True
        if definition.unique:
            return True  # enforcing an application constraint
        return False

    def _duplicates(self, hinted: Set[str]) -> List[IndexRecommendation]:
        """Indexes with identical key columns (including order)."""
        recommendations = []
        for table in self.engine.database.tables.values():
            definitions = table.index_definitions()
            by_key: dict = {}
            for definition in definitions:
                by_key.setdefault(
                    (definition.table, definition.key_columns), []
                ).append(definition)
            for _key, group in by_key.items():
                if len(group) < 2:
                    continue
                keep, drops = self._choose_among_duplicates(group, hinted)
                for definition in drops:
                    recommendations.append(
                        IndexRecommendation(
                            action=Action.DROP,
                            table=definition.table,
                            key_columns=definition.key_columns,
                            included_columns=definition.included_columns,
                            source="DROP_ANALYSIS",
                            existing_index_name=definition.name,
                            details=f"duplicate of {keep.name}",
                            created_at=self.engine.now,
                        )
                    )
        return recommendations

    def _choose_among_duplicates(self, group, hinted: Set[str]):
        """Keep the most-read, least-droppable duplicate; drop the rest."""
        def read_count(definition):
            usage = self.engine.usage_stats.get(definition.name)
            return usage.reads if usage else 0

        protected = [d for d in group if self._protected(d, hinted)]
        unprotected = [d for d in group if not self._protected(d, hinted)]
        if protected:
            keep = max(protected, key=read_count)
            return keep, unprotected
        # Prefer keeping user-created wider-include indexes over
        # auto-created ones; tie-break by reads.
        keep = max(
            unprotected,
            key=lambda d: (not d.auto_created, len(d.included_columns), read_count(d)),
        )
        return keep, [d for d in unprotected if d.name != keep.name]

    def _unused(
        self, hinted: Set[str], now: float, horizon: float
    ) -> List[IndexRecommendation]:
        recommendations = []
        for table in self.engine.database.tables.values():
            for name, index in table.indexes.items():
                definition = index.definition
                if self._protected(definition, hinted):
                    continue
                if now - index.created_at < horizon:
                    continue  # not observed long enough (weekly reports!)
                usage = self.engine.usage_stats.get(name)
                reads = usage.reads if usage else 0
                writes = usage.writes if usage else 0
                if reads > MAX_READS:
                    continue
                if writes < MIN_WRITES:
                    continue
                last_read = usage.last_read() if usage else None
                if last_read is not None and now - last_read < horizon:
                    continue
                recommendations.append(
                    IndexRecommendation(
                        action=Action.DROP,
                        table=definition.table,
                        key_columns=definition.key_columns,
                        included_columns=definition.included_columns,
                        source="DROP_ANALYSIS",
                        existing_index_name=name,
                        details=(
                            f"unused for {self.settings.observation_days:.0f} days; "
                            f"{writes} maintenance writes"
                        ),
                        created_at=self.engine.now,
                    )
                )
        return recommendations
