"""The five closed-loop workloads (one client: the benchmark driver).

Every workload runs the *unmodified* program at its defaults through its
public constructors.  The database population of a workload (schemas,
data, templates) is part of its recipe and fixed, like a scale factor;
``--seed`` seeds the client.  The reason is in the README ("Seeds"): a
fresh population per seed moves throughput by +-25%, which no bound this
benchmark can state would survive.

A workload is a fixed amount of work, sized on the 2-core sizing host to
the requested seconds — not "whatever fits in N seconds".  The fleets
ramp (no recommendation exists for the first simulated hours, index
builds and validations come later), so a wall-clock cut-off would hand a
faster program a different, heavier mix of ticks than a slower one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import time
from typing import Dict, List, Optional, Sequence

from repro.clock import SimClock
from repro.controlplane.states import RecommendationState
from repro.engine.schema import IndexDefinition
from repro.observability.trace_export import attribution_summary
from repro.parallel import build_fleet_service
from repro.parallel.timing import PARENT_PHASES
from repro.recommender import (
    Action,
    DropRecommender,
    DtaSession,
    DtaSettings,
    MiRecommender,
)
from repro.rng import derive
from repro.service import ServiceSettings, build_service
from repro.workload.app_profiles import make_profile
from repro.workload.generator import Workload

#: Seed of every workload's database population (the ROADMAP's "fixed
#: fleet recipe"); 12 is kept as the hold-out population.
POPULATION_SEED = 11
TICK_HOURS = 1.0
STATEMENTS_PER_TICK = 40

_CLOCK_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


@dataclasses.dataclass
class Outcome:
    """What a run did, for the correctness check."""

    attempted: int
    failed: int
    #: Broken invariants; any entry makes the run incorrect.
    problems: List[str]
    output_sha256: str
    #: Counts that repeat exactly for one (workload, seed, seconds).
    exact: Dict[str, float]
    #: Reported, not counted as failures.
    deferred: int = 0


class BenchWorkload:
    """Interface the runner drives; one instance per process."""

    name = ""
    why = ""
    work_unit = ""
    #: What one client operation is (the thing op_*_ms times).
    operation = ""
    #: Units that take about ten reference-seconds on the sizing host.
    units_per_10s = 1
    min_units = 2
    #: Workload whose timed region the traced run repeats on the same
    #: seed, to report this one's cost relative to it.
    reference: Optional[type] = None

    def units_for(self, seconds: float) -> int:
        return max(self.min_units, round(self.units_per_10s * seconds / 10.0))

    def setup(self, seed: int, traced: bool) -> None:
        """Build the population and the seeded client: everything before
        the first measured unit.  Counted in ``setup_s``."""
        raise NotImplementedError

    def run_unit(self, index: int) -> None:
        """One client operation."""
        raise NotImplementedError

    def work_done(self) -> float:
        """Work completed so far, in ``work_unit`` (monotone)."""
        raise NotImplementedError

    def cpu_seconds(self) -> float:
        return time.process_time()

    def outcome(self) -> Outcome:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Monotone program counters the per-layer table differences."""
        return {}

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer values only this workload can supply."""
        return {}

    def close(self) -> None:
        """Stop every process the workload started."""


# ----------------------------------------------------------------------
# Fleets


def _engine_counters(engines: Sequence) -> Dict[str, float]:
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for engine in engines:
        executor = engine.executor
        add("exec.stmts_vector", executor.vector_statements)
        add("exec.stmts_interp", executor.interp_statements)
        hits, misses, invalidations = executor.column_cache_stats()
        add("column_cache.hits", hits)
        add("column_cache.misses", misses)
        add("column_cache.invalidations", invalidations)
        cache = engine.plan_cache
        add("plan_cache.hits", cache.hits)
        add("plan_cache.misses", cache.misses)
        add("plan_cache.evictions", cache.evictions)
        batch = engine.optimizer.batch_stats
        add("whatif.batches", batch.batches)
        add("whatif.configurations", batch.configurations)
        add("whatif.substrate_hits", batch.substrate_hits)
        add("whatif.substrate_misses", batch.substrate_misses)
        add("whatif.scalar_fallbacks", batch.scalar_fallbacks)
        add("whatif.calls", engine.governor.tuning.usage.whatif_calls)
        add("sim_cpu_ms", engine.governor.user.usage.cpu_ms)
    return totals


def _statements(registry) -> float:
    """Statements executed, from the per-path executor dispatch gauges the
    control plane publishes (every statement takes exactly one path)."""
    return registry.total("executor_vector_dispatch_total")


class FleetWorkload(BenchWorkload):
    """``service.run(1.0)`` ticks over a fleet built by the program."""

    work_unit = "db-hour"
    operation = "one service.run(1.0) tick of the whole fleet"
    units_per_10s = 48
    databases = 4
    tier = "standard"
    workers = 0

    def __init__(self) -> None:
        self.service = None
        self.ticks = 0

    def setup(self, seed: int, traced: bool) -> None:
        settings = ServiceSettings(max_statements_per_step=STATEMENTS_PER_TICK)
        if self.workers:
            self.service = build_fleet_service(
                self.databases,
                workers=self.workers,
                backend="process",
                instrument=traced,
                tier=self.tier,
                seed=POPULATION_SEED,
                service_settings=settings,
            )
        else:
            self.service = build_service(
                self.databases,
                tier=self.tier,
                seed=POPULATION_SEED,
                service_settings=settings,
            )
        # The sharded service builds its clients inside worker processes
        # from the population seed alone, so the one client input all
        # three fleets share is *when* the measured window starts: an
        # unmeasured first tick of seed-drawn length.  It moves every
        # tick boundary, MI snapshot and analysis relative to the
        # statement stream, and doubles as cache warm-up.
        self.service.run(float(derive(seed, "e2e-phase").uniform(0.25, 1.0)))
        self._statements_before = _statements(self._registry)

    def run_unit(self, index: int) -> None:
        self.service.run(TICK_HOURS)
        self.ticks += 1

    def work_done(self) -> float:
        return self.ticks * self.databases * TICK_HOURS

    # -- the serial and sharded services expose the same merged state
    #    under different attributes

    @property
    def _plane(self):
        return getattr(self.service, "plane", self.service)

    @property
    def _registry(self):
        return self.service.telemetry.registry

    def _engines(self) -> List:
        if self.workers:
            return []  # they live in the worker processes
        return [profile.engine for profile in self.service.fleet]

    def outcome(self) -> Outcome:
        plane, registry = self._plane, self._registry
        records = plane.store.all_records()
        problems = []
        in_error = sum(
            record.state is RecommendationState.ERROR for record in records
        )
        if in_error:
            problems.append(f"{in_error} record(s) in error with faults off")
        if plane.incidents:
            problems.append(f"{len(plane.incidents)} incident(s)")
        settled = (
            RecommendationState.VALIDATING,
            RecommendationState.SUCCESS,
            RecommendationState.REVERTING,
            RecommendationState.REVERTED,
        )
        for record in records:
            if (
                record.recommendation.action is Action.CREATE
                and record.implemented_at is not None
                and record.state not in settled
            ):
                problems.append(
                    f"rec {record.rec_id} implemented but {record.state.value}"
                )
        known = {record.index_name for record in records}
        for engine in self._engines():
            for definition in engine.database.all_index_definitions():
                if definition.auto_created and definition.name not in known:
                    problems.append(f"index {definition.name} has no record")
        statements = _statements(registry) - self._statements_before
        analyses = registry.total("analysis_runs_total")
        failed = (
            in_error
            + len(plane.incidents)
            + registry.total("analysis_runs_total", outcome="failed")
            + registry.total("events_total", kind="dta_aborted")
            + registry.total("events_total", kind="dta_abandoned")
        )
        audit = self.service.telemetry.audit
        return Outcome(
            attempted=int(statements + analyses + len(records)),
            failed=int(failed),
            problems=problems,
            output_sha256=hashlib.sha256(
                audit.to_jsonl().encode("utf-8")
            ).hexdigest(),
            exact={
                "workload.stmts": statements,
                "records": len(records),
                "audit_events": len(audit),
            },
            deferred=int(
                registry.total("analysis_runs_total", outcome="deferred")
            ),
        )

    def counters(self) -> Dict[str, float]:
        registry = self._registry
        totals = _engine_counters(self._engines())
        totals.update(
            {
                "workload.stmts": _statements(registry),
                "implement.builds": registry.total(
                    "implementations_completed_total"
                ),
                "validate.reverts": registry.total("validation_reverts_total"),
                "recommender.analysis_deferred": registry.total(
                    "analysis_runs_total", outcome="deferred"
                ),
                "observability.audit_events": len(self.service.telemetry.audit),
            }
        )
        return totals


class FleetStandard(FleetWorkload):
    name = "fleet_standard"
    why = (
        "the paper's whole loop on the common tier: MI recommender, reads "
        "and DML, implement/validate/revert; every layer runs"
    )


class FleetPremium(FleetWorkload):
    name = "fleet_premium"
    why = (
        "join/aggregate-heavy statements and policy-forced DTA sessions: "
        "executor and DTA changes show here, MI-only changes must not"
    )
    databases = 3
    tier = "premium"


class FleetSharded(FleetWorkload):
    name = "fleet_sharded"
    why = (
        "fleet_standard's work through 2 worker processes: isolates what "
        "spec/pool/delta/merge cost in CPU and buy in wall-clock"
    )
    workers = 2
    reference = FleetStandard

    def cpu_seconds(self) -> float:
        """Parent CPU plus the live workers' (read from /proc, since
        RUSAGE_CHILDREN only counts workers that have exited)."""
        total = time.process_time()
        for child in multiprocessing.active_children():
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS_PER_S
        return total

    def layer_extras(self) -> Dict[str, float]:
        if not self.service.parallel.instrument:
            return {}
        # Skip the unmeasured first tick.
        ticks = self.service.phase_timer.ticks[1:]
        summary = attribution_summary(ticks, PARENT_PHASES)
        phases = summary["phase_totals"]
        extras = {
            f"parallel.{phase}_s": phases.get(phase, 0.0)
            for phase in ("dispatch", "wait", "merge", "worker_run", "worker_drain")
        }
        extras["parallel.serial_fraction"] = summary["serial_fraction"]
        # The engines are in the workers, so the spans cover nothing of
        # the tick; what the program's own phases leave out stands in.
        extras["trace.unattributed_share"] = 1.0 - summary["coverage"]
        return extras

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


# ----------------------------------------------------------------------
# Tuning only


#: Rounds cycle these so consecutive sessions are not identical.  The
#: window is wide open because each round moves the clock one hour (a
#: fresh tuning-budget window) and the statements must stay in view.
_DTA_VARIANTS = tuple(
    DtaSettings(tier="premium", window_hours=10_000.0, **overrides)
    for overrides in (
        {"max_indexes": 3},
        {"max_indexes": 5},
        {"max_indexes": 8},
        {"use_merging": False},
    )
)


def _recommendation_key(recommendation) -> tuple:
    return (
        recommendation.action.value,
        recommendation.source,
        recommendation.table,
        tuple(recommendation.key_columns),
        tuple(recommendation.included_columns),
    )


class TuneDta(BenchWorkload):
    name = "tune_dta"
    why = (
        "recommenders only (DTA what-if sessions, MI, drop analysis) over a "
        "filled Query Store; the executor is idle, so executor changes "
        "must show no change here"
    )
    work_unit = "session"
    # All three databases per operation: their sessions differ
    # several-fold in cost, and a median over single sessions sits in
    # the gaps between them.
    operation = "one tuning round (DTA + MI + drop) on each of 3 databases"
    units_per_10s = 40
    archetypes = ("analytics", "analytics", "saas_invoicing")
    fill_statements = 240

    def setup(self, seed: int, traced: bool) -> None:
        self.profiles = [
            make_profile(
                f"tune-premium-{i}",
                seed=POPULATION_SEED * 1_000_003 + i,
                tier="premium",
                archetype=archetype,
                clock=SimClock(),
            )
            for i, archetype in enumerate(self.archetypes)
        ]
        self.recommenders = []
        for profile in self.profiles:
            profile.workload.rng = derive(seed, "e2e-client", profile.name)
            mi = MiRecommender(profile.engine)
            # Snapshots while the store fills, as the control plane's
            # scheduler would take them: MI needs a series to test.
            for _ in range(4):
                profile.workload.run(
                    profile.engine,
                    1e6,
                    max_statements=self.fill_statements // 4,
                )
                mi.take_snapshot()
            self.recommenders.append((mi, DropRecommender(profile.engine)))
        self.sessions = 0
        self.failed = 0
        self.whatif_failed_statements = 0
        self.problems: List[str] = []
        self._seen: Dict[tuple, tuple] = {}
        self._digest = hashlib.sha256()

    def run_unit(self, index: int) -> None:
        variant = index % len(_DTA_VARIANTS)
        for which in range(len(self.profiles)):
            self._tune(index, which, variant)

    def _tune(self, index: int, which: int, variant: int) -> None:
        engine = self.profiles[which].engine
        mi, drops = self.recommenders[which]
        engine.clock.advance(60.0)
        engine.plan_cache.invalidate()
        session = DtaSession(engine, _DTA_VARIANTS[variant])
        found = session.run() + mi.recommend() + drops.recommend()
        self.sessions += 1
        self.whatif_failed_statements += session.whatif.stats.failed_statements
        if session.state.value != "completed":
            self.failed += 1
        output = tuple(sorted(_recommendation_key(r) for r in found))
        # Nothing a round does changes what the next one sees, so the
        # same database and variant must recommend the same indexes.
        first = self._seen.setdefault((which, variant), output)
        if first != output:
            self.problems.append(
                f"round {index}: database {which} variant {variant} "
                "recommended differently than before"
            )
        self._digest.update(repr((which, variant, output)).encode("utf-8"))

    def work_done(self) -> float:
        return self.sessions

    def outcome(self) -> Outcome:
        counters = _engine_counters([p.engine for p in self.profiles])
        return Outcome(
            attempted=self.sessions,
            failed=self.failed + self.whatif_failed_statements,
            problems=self.problems,
            output_sha256=self._digest.hexdigest(),
            exact={
                "dta.sessions": self.sessions,
                "whatif.calls": counters["whatif.calls"],
            },
        )

    def counters(self) -> Dict[str, float]:
        return _engine_counters([p.engine for p in self.profiles])


# ----------------------------------------------------------------------
# Writes


_DML_KINDS = frozenset(
    {"update_by_pk", "update_by_predicate", "insert", "bulk_insert", "delete_old"}
)


def _reweighted(templates, dml_share: float):
    """The profile's own templates with DML scaled to ``dml_share``."""
    dml = sum(t.weight for t in templates if t.kind in _DML_KINDS)
    reads = sum(t.weight for t in templates if t.kind not in _DML_KINDS)
    return [
        dataclasses.replace(
            t,
            weight=t.weight * dml_share / dml
            if t.kind in _DML_KINDS
            else t.weight * (1.0 - dml_share) / reads,
        )
        for t in templates
    ]


class IngestDml(BenchWorkload):
    name = "ingest_dml"
    why = (
        "85% UPDATE/INSERT/DELETE over tables carrying 4 extra indexes: "
        "B-tree and index maintenance dominate and reads miss the column "
        "cache, so a read-side gain that costs writes shows here"
    )
    # Rows, not statements: one predicate UPDATE writes a few hundred
    # rows and costs as much as forty keyed ones, so statements per
    # second follows the seed's draw of predicates (quartiles 9% apart)
    # while cost per row written holds within 1.5%.
    work_unit = "row written"
    operation = "one batch of 25 statements on one database"
    batch = 25
    units_per_10s = 132
    min_units = 3
    databases = 3
    extra_indexes = 4
    dml_share = 0.85

    def setup(self, seed: int, traced: bool) -> None:
        self.profiles = [
            make_profile(
                f"ingest-standard-{i}",
                seed=POPULATION_SEED * 1_000_003 + i,
                tier="standard",
                archetype="telemetry",
                clock=SimClock(),
            )
            for i in range(self.databases)
        ]
        for profile in self.profiles:
            fact = profile.schema_spec.fact_tables()[0]
            columns = [
                column.name for column in fact.columns if column.role != "pk"
            ]
            for column in columns[: self.extra_indexes]:
                profile.engine.create_index(
                    IndexDefinition(
                        name=f"ix_e2e_{fact.name}_{column}",
                        table=fact.name,
                        key_columns=(column,),
                    )
                )
        self.clients = [
            Workload(
                _reweighted(profile.workload.templates, self.dml_share),
                derive(seed, "e2e-client", profile.name),
                statements_per_hour=profile.workload.statements_per_hour,
            )
            for profile in self.profiles
        ]
        self.statements = 0
        self._rows_before = self._row_versions()

    def _row_versions(self) -> int:
        """``Table.data_version`` moves once per row inserted, updated
        or deleted."""
        return sum(
            table.data_version
            for profile in self.profiles
            for table in profile.database.tables.values()
        )

    def run_unit(self, index: int) -> None:
        which = index % len(self.profiles)
        self.clients[which].run(
            self.profiles[which].engine, 1e9, max_statements=self.batch
        )
        self.statements += self.batch

    def work_done(self) -> float:
        return self._row_versions() - self._rows_before

    def outcome(self) -> Outcome:
        problems = []
        digest = hashlib.sha256()
        for profile in self.profiles:
            for name, table in sorted(profile.database.tables.items()):
                entries = {
                    index_name: len(index.tree)
                    for index_name, index in sorted(table.indexes.items())
                }
                digest.update(
                    repr((profile.name, name, table.row_count, entries)).encode(
                        "utf-8"
                    )
                )
                for index_name, count in entries.items():
                    if count != table.row_count:
                        problems.append(
                            f"{profile.name}.{name}: index {index_name} has "
                            f"{count} entries for {table.row_count} rows"
                        )
        executed = sum(
            p.engine.executor.vector_statements
            + p.engine.executor.interp_statements
            for p in self.profiles
        )
        # Set-up executes nothing, so the executors saw exactly the batches.
        if executed != self.statements:
            problems.append(
                f"client sent {self.statements} statements, "
                f"executors ran {executed}"
            )
        return Outcome(
            attempted=self.statements,
            failed=0,  # a statement that raises ends the run
            problems=problems,
            output_sha256=digest.hexdigest(),
            exact={
                "workload.stmts": self.statements,
                "rows_written": self.work_done(),
            },
        )

    def counters(self) -> Dict[str, float]:
        totals = _engine_counters([p.engine for p in self.profiles])
        totals["workload.stmts"] = self.statements
        return totals


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (FleetStandard, FleetPremium, FleetSharded, TuneDta, IngestDml)
}
