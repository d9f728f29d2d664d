"""Random schema generation.

Generates small star-ish schemas: one or more *fact* tables (wide, large,
receiving DML) and *dimension* tables (narrow, small, mostly read) that
facts reference.  Column names are globally unique (``t<k>_c<j>`` style
with semantic suffixes) so joined row dictionaries never collide.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType


@dataclasses.dataclass
class ColumnSpec:
    """How a generated column's data should be distributed."""

    name: str
    sql_type: SqlType
    #: "pk", "fk", "category", "skewed", "numeric", "date", "text"
    role: str
    #: Number of distinct values for categorical/fk roles.
    cardinality: int = 0
    #: Zipf parameter for skewed columns (0 = uniform).
    zipf_a: float = 0.0
    #: For fk columns: the referenced table.
    references: str = ""


@dataclasses.dataclass
class TableSpec:
    """A generated table: schema plus data-distribution specs."""

    schema: TableSchema
    columns: List[ColumnSpec]
    row_count: int
    is_fact: bool

    @property
    def name(self) -> str:
        return self.schema.name


@dataclasses.dataclass
class SchemaSpec:
    """A whole generated database schema."""

    tables: List[TableSpec]

    def fact_tables(self) -> List[TableSpec]:
        return [t for t in self.tables if t.is_fact]

    def dimension_tables(self) -> List[TableSpec]:
        return [t for t in self.tables if not t.is_fact]

    def table(self, name: str) -> TableSpec:
        for spec in self.tables:
            if spec.name == name:
                return spec
        raise KeyError(name)


def generate_schema(
    rng: np.random.Generator,
    n_fact_tables: int = 1,
    n_dimension_tables: int = 2,
    fact_rows: Tuple[int, int] = (3000, 8000),
    dim_rows: Tuple[int, int] = (100, 600),
    fact_extra_columns: Tuple[int, int] = (4, 9),
) -> SchemaSpec:
    """Generate a star-ish schema specification."""
    tables: List[TableSpec] = []
    dim_names: List[str] = []
    for d in range(n_dimension_tables):
        name = f"dim{d}"
        rows = int(rng.integers(dim_rows[0], dim_rows[1] + 1))
        columns = [
            ColumnSpec(f"{name}_id", SqlType.INT, "pk"),
            ColumnSpec(
                f"{name}_cat",
                SqlType.INT,
                "category",
                cardinality=int(rng.integers(4, 30)),
            ),
            ColumnSpec(f"{name}_name", SqlType.TEXT, "text", cardinality=rows),
            ColumnSpec(f"{name}_score", SqlType.FLOAT, "numeric"),
        ]
        tables.append(_build_table(name, columns, rows, is_fact=False))
        dim_names.append(name)
    for f in range(n_fact_tables):
        name = f"fact{f}"
        rows = int(rng.integers(fact_rows[0], fact_rows[1] + 1))
        columns = [ColumnSpec(f"{name}_id", SqlType.BIGINT, "pk")]
        for dim in dim_names:
            columns.append(
                ColumnSpec(
                    f"{name}_{dim}_fk",
                    SqlType.INT,
                    "fk",
                    references=dim,
                )
            )
        n_extra = int(rng.integers(fact_extra_columns[0], fact_extra_columns[1] + 1))
        for j in range(n_extra):
            roll = rng.random()
            if roll < 0.3:
                columns.append(
                    ColumnSpec(
                        f"{name}_cat{j}",
                        SqlType.INT,
                        "category",
                        cardinality=int(rng.integers(3, 400)),
                    )
                )
            elif roll < 0.5:
                columns.append(
                    ColumnSpec(
                        f"{name}_skew{j}",
                        SqlType.INT,
                        "skewed",
                        cardinality=int(rng.integers(20, 2000)),
                        zipf_a=float(rng.uniform(1.2, 2.2)),
                    )
                )
            elif roll < 0.75:
                columns.append(
                    ColumnSpec(f"{name}_num{j}", SqlType.FLOAT, "numeric")
                )
            elif roll < 0.9:
                columns.append(
                    ColumnSpec(f"{name}_date{j}", SqlType.DATE, "date")
                )
            else:
                columns.append(
                    ColumnSpec(
                        f"{name}_txt{j}",
                        SqlType.TEXT,
                        "text",
                        cardinality=int(rng.integers(5, 60)),
                    )
                )
        tables.append(_build_table(name, columns, rows, is_fact=True))
    return SchemaSpec(tables=tables)


def _build_table(
    name: str, columns: List[ColumnSpec], rows: int, is_fact: bool
) -> TableSpec:
    schema = TableSchema(
        name,
        [
            Column(spec.name, spec.sql_type, nullable=(spec.role != "pk"))
            for spec in columns
        ],
        primary_key=[columns[0].name],
    )
    return TableSpec(schema=schema, columns=columns, row_count=rows, is_fact=is_fact)
