"""Data population for generated schemas."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.engine.engine import Database
from repro.workload.schema_gen import ColumnSpec, SchemaSpec, TableSpec

#: Synthetic horizon for DATE columns (days).
DATE_HORIZON = 730


def _column_values(
    spec: ColumnSpec,
    rows: int,
    rng: np.random.Generator,
    dim_rows: Dict[str, int],
) -> List[object]:
    if spec.role == "pk":
        return list(range(rows))
    if spec.role == "fk":
        upper = max(1, dim_rows.get(spec.references, 100))
        return [int(v) for v in rng.integers(0, upper, size=rows)]
    if spec.role == "category":
        upper = max(1, spec.cardinality)
        return [int(v) for v in rng.integers(0, upper, size=rows)]
    if spec.role == "skewed":
        upper = max(2, spec.cardinality)
        draws = rng.zipf(max(1.1, spec.zipf_a), size=rows)
        return [int(min(v - 1, upper - 1)) for v in draws]
    if spec.role == "numeric":
        scale = float(rng.uniform(10, 10_000))
        return [float(v) for v in rng.gamma(2.0, scale / 2.0, size=rows)]
    if spec.role == "date":
        # Recent-skewed dates: most activity near the end of the horizon.
        draws = rng.beta(3.0, 1.2, size=rows)
        return [int(v * DATE_HORIZON) for v in draws]
    if spec.role == "text":
        upper = max(1, spec.cardinality)
        return [f"{spec.name}_v{int(v)}" for v in rng.integers(0, upper, size=rows)]
    raise ValueError(f"unknown column role {spec.role!r}")


def populate_table(
    database: Database,
    table_spec: TableSpec,
    rng: np.random.Generator,
    dim_rows: Dict[str, int],
) -> None:
    """Create and fill one table from its spec."""
    table = database.create_table(table_spec.schema)
    columns = [
        _column_values(spec, table_spec.row_count, rng, dim_rows)
        for spec in table_spec.columns
    ]
    table.insert_rows(zip(*columns))


def populate_database(
    database: Database, schema_spec: SchemaSpec, rng: np.random.Generator
) -> None:
    """Create and fill every table (dimensions first, then facts)."""
    dim_rows = {t.name: t.row_count for t in schema_spec.dimension_tables()}
    for table_spec in schema_spec.dimension_tables():
        populate_table(database, table_spec, rng, dim_rows)
    for table_spec in schema_spec.fact_tables():
        populate_table(database, table_spec, rng, dim_rows)
