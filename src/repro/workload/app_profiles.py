"""Application archetypes: databases + workloads built from one seed.

The paper's experiments draw random *active* databases from the standard
and premium service tiers (Section 7.3): premium-tier applications are
more complex (more joins, aggregations, bigger data, expert tuning) while
standard-tier ones are simpler and smaller.  ``make_profile`` reproduces
that split; each profile fully determines a database's schema, data,
and workload from ``(seed, name)``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.clock import SimClock
from repro.engine.engine import Database, EngineSettings, SqlEngine
from repro.rng import derive
from repro.workload.data_gen import populate_database
from repro.workload.generator import Workload
from repro.workload.schema_gen import SchemaSpec, generate_schema
from repro.workload.templates import build_templates


@dataclasses.dataclass
class ProfileParams:
    """Generation knobs for one archetype."""

    n_fact_tables: int
    n_dimension_tables: int
    fact_rows: tuple
    dim_rows: tuple
    read_write_ratio: float
    complexity: float
    statements_per_hour: float
    n_variants: int


ARCHETYPES = {
    # OLTP-ish app: point lookups and writes, small data.
    "webshop": ProfileParams(
        n_fact_tables=1,
        n_dimension_tables=2,
        fact_rows=(2500, 6000),
        dim_rows=(80, 400),
        read_write_ratio=1.2,
        complexity=0.6,
        statements_per_hour=90.0,
        n_variants=2,
    ),
    # SaaS back office: balanced mix, moderate complexity.
    "saas_invoicing": ProfileParams(
        n_fact_tables=1,
        n_dimension_tables=2,
        fact_rows=(3000, 9000),
        dim_rows=(100, 500),
        read_write_ratio=2.0,
        complexity=1.0,
        statements_per_hour=70.0,
        n_variants=2,
    ),
    # Telemetry sink: insert heavy, ranged reads.
    "telemetry": ProfileParams(
        n_fact_tables=1,
        n_dimension_tables=1,
        fact_rows=(5000, 12000),
        dim_rows=(50, 200),
        read_write_ratio=0.5,
        complexity=0.5,
        statements_per_hour=120.0,
        n_variants=2,
    ),
    # Analytics-leaning app: joins, group-bys, reports.
    "analytics": ProfileParams(
        n_fact_tables=1,
        n_dimension_tables=3,
        fact_rows=(6000, 14000),
        dim_rows=(150, 700),
        read_write_ratio=4.0,
        complexity=2.0,
        statements_per_hour=50.0,
        n_variants=3,
    ),
}

#: Archetype mixes per service tier (Section 7.3's premium vs standard).
TIER_ARCHETYPES = {
    "standard": [("webshop", 0.45), ("saas_invoicing", 0.30), ("telemetry", 0.25)],
    "premium": [("saas_invoicing", 0.30), ("analytics", 0.50), ("webshop", 0.20)],
    "basic": [("webshop", 0.6), ("telemetry", 0.4)],
}


@dataclasses.dataclass
class ApplicationProfile:
    """A fully built database + engine + workload."""

    name: str
    archetype: str
    tier: str
    database: Database
    engine: SqlEngine
    workload: Workload
    schema_spec: SchemaSpec

    def run_until(
        self, end: float, max_statements: Optional[int] = None
    ) -> None:
        """Run the workload up to ``end`` (simulated minutes), then align
        the engine clock there, so every database in a fleet agrees on
        the time at a window boundary."""
        clock = self.engine.clock
        remaining_hours = (end - clock.now) / 60.0
        if remaining_hours > 0:
            self.workload.run(
                self.engine, remaining_hours, max_statements=max_statements
            )
        if clock.now < end:
            clock.advance_to(end)


def make_profile(
    name: str,
    seed: int,
    tier: str = "standard",
    archetype: Optional[str] = None,
    clock: Optional[SimClock] = None,
    engine_settings: Optional[EngineSettings] = None,
) -> ApplicationProfile:
    """Build a deterministic application profile.

    If ``archetype`` is omitted, one is drawn from the tier's mix.
    """
    rng = derive(seed, "profile", name)
    if archetype is None:
        mix = TIER_ARCHETYPES[tier]
        names = [a for a, _w in mix]
        weights = [w for _a, w in mix]
        total = sum(weights)
        archetype = str(rng.choice(names, p=[w / total for w in weights]))
    params = ARCHETYPES[archetype]
    schema_spec = generate_schema(
        derive(seed, "schema", name),
        n_fact_tables=params.n_fact_tables,
        n_dimension_tables=params.n_dimension_tables,
        fact_rows=params.fact_rows,
        dim_rows=params.dim_rows,
    )
    database = Database(name, seed=seed)
    populate_database(database, schema_spec, derive(seed, "data", name))
    engine = SqlEngine(
        database,
        settings=engine_settings,
        clock=clock or SimClock(),
        tuning_budget_cpu_ms=_tuning_budget(tier),
    )
    engine.build_all_statistics()
    templates = build_templates(
        schema_spec,
        derive(seed, "templates", name),
        read_write_ratio=params.read_write_ratio,
        complexity=params.complexity,
        n_variants=params.n_variants,
    )
    workload = Workload(
        templates,
        derive(seed, "workload", name),
        statements_per_hour=params.statements_per_hour,
    )
    return ApplicationProfile(
        name=name,
        archetype=archetype,
        tier=tier,
        database=database,
        engine=engine,
        workload=workload,
        schema_spec=schema_spec,
    )


def _tuning_budget(tier: str) -> float:
    """Per-window CPU budget for tuning work, by tier (Section 5.3.1)."""
    return {"basic": 2_000.0, "standard": 10_000.0, "premium": 60_000.0}.get(
        tier, 10_000.0
    )
