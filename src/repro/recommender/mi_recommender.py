"""The Missing-Indexes-based recommender (Section 5.2).

Pipeline, mirroring the paper's five steps plus the classifier filter:

1. define candidates from MI DMV groups (EQUALITY columns as keys, one
   INEQUALITY column appended, the rest included);
2. aggregate each candidate's benefit from the DMV statistics;
3. filter out candidates with too few query executions (ad-hoc queries);
4. require a statistically robust positive impact slope over snapshot
   time (t-test, tolerant of DMV resets);
5. merge prefix-compatible candidates conservatively;
then pick the top-N by impact and drop those the low-impact classifier
(trained on validation history) predicts will not help in execution.

The recommender never makes optimizer calls of its own — that is the
whole point of the MI source's low overhead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.engine.engine import SqlEngine
from repro.engine.optimizer import HeldSubstrate
from repro.engine.schema import IndexDefinition
from repro.errors import OptimizeError
from repro.recommender.classifier import LowImpactClassifier
from repro.recommender.impact import (
    SnapshotAccumulator,
    aggregate_benefit,
    candidate_key_columns,
    impact_slope_test,
)
from repro.recommender.merging import MergeCandidate, merge_candidates
from repro.recommender.recommendation import Action, IndexRecommendation

#: Step 4: slope t-test threshold.
SLOPE_T_THRESHOLD = 2.0
#: What-if verification (``verify_with_whatif``) prices each candidate on
#: this many of the hottest Query Store statements of the last
#: ``WHATIF_LOOKBACK_HOURS``.
WHATIF_VERIFY_STATEMENTS = 6
WHATIF_LOOKBACK_HOURS = 24.0
#: The low-impact classifier vets every candidate (Section 5.2); only an
#: ablation turns it off.
USE_CLASSIFIER = True


@dataclasses.dataclass
class MiRecommenderSettings:
    """Tunables of the MI pipeline."""

    #: Step 3: minimum seeks (query executions wanting the index).
    min_seeks: int = 5
    #: Step 4 off-switch for ablations.
    use_slope_test: bool = True
    #: Step 5 off-switch for ablations.
    use_merging: bool = True
    #: Final step: maximum number of recommendations per run.
    top_n: int = 5
    #: Minimum average estimated impact (%).
    min_avg_impact_pct: float = 20.0
    #: Extension (Section 10 future work, "reduce performance regressions"):
    #: spend a few what-if calls to sanity-check each surviving candidate
    #: against the statements currently in Query Store, dropping candidates
    #: whose hypothetical plans do not actually improve any hot statement.
    #: Trades a little of MI's zero-overhead property for fewer reverts.
    verify_with_whatif: bool = False


class MiRecommender:
    """Snapshot-accumulating MI recommendation pipeline for one database."""

    def __init__(
        self,
        engine: SqlEngine,
        settings: Optional[MiRecommenderSettings] = None,
        classifier: Optional[LowImpactClassifier] = None,
    ) -> None:
        self.engine = engine
        self.settings = settings or MiRecommenderSettings()
        self.classifier = classifier or LowImpactClassifier()
        self.accumulator = SnapshotAccumulator()
        self.snapshots_taken = 0
        #: Per-candidate accept/reject decisions of the most recent
        #: :meth:`recommend` run, each with the failed predicate —
        #: provenance evidence for the audit stream.
        self.last_decisions: List[dict] = []

    # ------------------------------------------------------------------

    def take_snapshot(self) -> int:
        """Periodic snapshot of the MI DMV (reset tolerance, Section 5.2).

        Returns the number of groups observed.  Driven by the control
        plane's scheduler.
        """
        snapshot = self.engine.missing_indexes.snapshot(self.engine.now)
        self.accumulator.add_snapshot(snapshot)
        self.snapshots_taken += 1
        return len(snapshot.entries)

    # ------------------------------------------------------------------

    def _reject(self, table, keys, failed_predicate: str, **evidence) -> None:
        self.last_decisions.append(
            {
                "table": table,
                "key_columns": list(keys),
                "accepted": False,
                "failed_predicate": failed_predicate,
                **evidence,
            }
        )

    def recommend(self) -> List[IndexRecommendation]:
        """Run the pipeline over everything accumulated so far."""
        settings = self.settings
        self.last_decisions = []
        candidates: List[MergeCandidate] = []
        impact_by_identity = {}
        for series in self.accumulator.series():
            group_keys, _ = candidate_key_columns(series.group)
            # Step 3: ad-hoc filter.
            if series.seeks < settings.min_seeks:
                self._reject(
                    series.group.table, group_keys, "min_seeks",
                    seeks=series.seeks, min_seeks=settings.min_seeks,
                )
                continue
            # Step 4: statistically robust growth of the impact score.
            if settings.use_slope_test:
                test = impact_slope_test(
                    series.points, t_threshold=SLOPE_T_THRESHOLD
                )
                if not test.passed:
                    self._reject(
                        series.group.table, group_keys, "impact_slope_test",
                        t_statistic=test.t_statistic,
                        t_threshold=SLOPE_T_THRESHOLD,
                    )
                    continue
            if series.last_avg_impact < settings.min_avg_impact_pct:
                self._reject(
                    series.group.table, group_keys, "min_avg_impact",
                    avg_impact_pct=series.last_avg_impact,
                    min_avg_impact_pct=settings.min_avg_impact_pct,
                )
                continue
            keys, includes = candidate_key_columns(series.group)
            candidate = MergeCandidate(
                table=series.group.table,
                key_columns=keys,
                included_columns=includes,
                benefit=aggregate_benefit(series),
                source="MI",
            )
            candidates.append(candidate)
            impact_by_identity[(candidate.table, candidate.key_columns)] = (
                series.last_avg_impact,
                series.seeks,
            )
        # Step 5: conservative merging.
        if settings.use_merging:
            candidates = merge_candidates(candidates)
        # Drop candidates already satisfied by an existing index.
        surviving = []
        for candidate in candidates:
            if self._already_indexed(candidate):
                self._reject(
                    candidate.table, candidate.key_columns, "already_indexed"
                )
            else:
                surviving.append(candidate)
        candidates = surviving
        # Top-N by aggregate benefit.
        candidates.sort(key=lambda c: -c.benefit)
        for candidate in candidates[settings.top_n:]:
            self._reject(
                candidate.table, candidate.key_columns, "below_top_n",
                benefit=candidate.benefit, top_n=settings.top_n,
            )
        recommendations: List[IndexRecommendation] = []
        # One what-if substrate per hot statement, shared by the pass.
        held: Dict[int, HeldSubstrate] = {}
        for candidate in candidates[: settings.top_n]:
            impact, seeks = impact_by_identity.get(
                (candidate.table, candidate.key_columns),
                (settings.min_avg_impact_pct, settings.min_seeks),
            )
            table = self.engine.database.table(candidate.table)
            size = table.hypothetical_stats_view(
                IndexDefinition(
                    name="_size_probe",
                    table=candidate.table,
                    key_columns=candidate.key_columns,
                    included_columns=candidate.included_columns,
                    hypothetical=True,
                )
            ).size_bytes
            if USE_CLASSIFIER and not self.classifier.accepts(
                estimated_impact_pct=impact,
                table_rows=table.row_count,
                index_size_bytes=size,
                observed_seeks=seeks,
            ):
                self._reject(
                    candidate.table, candidate.key_columns,
                    "low_impact_classifier",
                    estimated_impact_pct=impact, observed_seeks=seeks,
                    index_size_bytes=size,
                )
                continue
            if settings.verify_with_whatif and not self._whatif_confirms(
                candidate, held
            ):
                self._reject(
                    candidate.table, candidate.key_columns, "whatif_verify",
                    estimated_impact_pct=impact,
                )
                continue
            self.last_decisions.append(
                {
                    "table": candidate.table,
                    "key_columns": list(candidate.key_columns),
                    "accepted": True,
                    "failed_predicate": None,
                    "estimated_impact_pct": impact,
                    "estimated_size_bytes": size,
                    "observed_seeks": seeks,
                }
            )
            recommendations.append(
                IndexRecommendation(
                    action=Action.CREATE,
                    table=candidate.table,
                    key_columns=candidate.key_columns,
                    included_columns=candidate.included_columns,
                    source="MI",
                    estimated_improvement_pct=impact,
                    estimated_size_bytes=size,
                    impacted_queries=candidate.impacted_queries,
                    details=f"MI group benefit {candidate.benefit:.1f}",
                    created_at=self.engine.now,
                )
            )
        return recommendations

    # ------------------------------------------------------------------

    def _whatif_confirms(
        self, candidate: MergeCandidate, held: Dict[int, HeldSubstrate]
    ) -> bool:
        """Optional what-if double check on a few hot statements.

        The candidate survives if at least one hot statement's estimated
        cost improves *and* the hot DML statements on the table do not get
        disproportionately more expensive — the two revert causes the
        paper reports (Section 8.1).
        """
        engine = self.engine
        now = engine.now
        since = max(0.0, now - WHATIF_LOOKBACK_HOURS * 60.0)
        top = engine.query_store.top_queries(
            since, now, k=WHATIF_VERIFY_STATEMENTS
        )
        definition = IndexDefinition(
            name="_mi_verify",
            table=candidate.table,
            key_columns=candidate.key_columns,
            included_columns=candidate.included_columns,
            hypothetical=True,
        )
        read_gain = 0.0
        write_loss = 0.0
        for query_id, _total in top:
            query = engine.observed_statement(query_id)
            if query is None or getattr(query, "table", None) != candidate.table:
                continue
            if query_id not in held:
                held[query_id] = HeldSubstrate(query)
            try:
                batch = engine.whatif_batch(query, held[query_id])
                base = batch.cost()
                with_index = batch.cost((definition,))
            except OptimizeError:
                # Statements what-if cannot plan (Section 5.3.2) carry no
                # evidence.  A dry tuning budget is not one of those: it
                # propagates so the analysis is deferred, not mis-decided.
                continue
            delta = base - with_index
            if query.kind == "SELECT" and delta > 0:
                read_gain += delta
            elif query.kind != "SELECT" and delta < 0:
                write_loss += -delta
        if read_gain <= 0:
            return False
        return write_loss < read_gain

    def _already_indexed(self, candidate: MergeCandidate) -> bool:
        """True if an existing index already serves this candidate.

        An existing index serves the candidate when the candidate's keys
        are a prefix of the existing keys (or equal) and the existing
        index covers the candidate's included columns.
        """
        table = self.engine.database.table(candidate.table)
        wanted = set(candidate.key_columns) | set(candidate.included_columns)
        for definition in table.index_definitions():
            prefix = definition.key_columns[: len(candidate.key_columns)]
            if prefix != candidate.key_columns:
                continue
            available = set(definition.all_columns) | set(
                table.schema.primary_key
            )
            if wanted <= available:
                return True
        return False

    def workload_coverage(self, since: float, until: float) -> float:
        """MI-source coverage (Section 5.2): every statement is analyzed
        except inserts and updates/deletes without predicates."""
        qs = self.engine.query_store
        analyzed = []
        for info in qs.queries():
            if info.kind == "INSERT":
                continue
            query = self.engine.observed_statement(info.query_id)
            if (
                info.kind in ("UPDATE", "DELETE")
                and query is not None
                and not getattr(query, "predicates", ())
            ):
                continue
            analyzed.append(info.query_id)
        return self.engine.workload_coverage(analyzed, since, until)
