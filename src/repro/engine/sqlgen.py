"""Render query ASTs to T-SQL-ish text.

Query Store persists query text (Section 3); the recommenders display
it.  Rendering is deterministic, so the
same template always yields the same normalized text.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.engine.query import (
    DeleteQuery,
    InsertQuery,
    JoinSpec,
    Op,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine.schema import TableSchema
from repro.engine.types import SqlType, type_for_value


def _literal(value: object, sql_type: Optional[SqlType] = None) -> str:
    if sql_type is None:
        sql_type = type_for_value(value) or SqlType.TEXT
    return sql_type.render(value)


def render_predicate(predicate: Predicate, alias: str = "") -> str:
    """Render one WHERE-clause predicate, optionally alias-qualified."""
    prefix = f"{alias}." if alias else ""
    column = f"{prefix}[{predicate.column}]"
    if predicate.op is Op.BETWEEN:
        return (
            f"{column} BETWEEN {_literal(predicate.value)} "
            f"AND {_literal(predicate.value2)}"
        )
    return f"{column} {predicate.op.value} {_literal(predicate.value)}"


def _render_where(predicates, alias: str = "") -> str:
    if not predicates:
        return ""
    clauses = " AND ".join(render_predicate(p, alias) for p in predicates)
    return f" WHERE {clauses}"


def _render_join(join: Optional[JoinSpec]) -> str:
    if join is None:
        return ""
    text = (
        f" INNER JOIN [{join.table}] AS r"
        f" ON t.[{join.left_column}] = r.[{join.right_column}]"
    )
    return text


def render_select(query: SelectQuery) -> str:
    """Render a SELECT statement."""
    items = []
    alias = "t" if query.join is not None else ""
    prefix = f"{alias}." if alias else ""
    for column in query.select_columns:
        items.append(f"{prefix}[{column}]")
    if query.join is not None:
        for column in query.join.select_columns:
            items.append(f"r.[{column}]")
    for aggregate in query.aggregates:
        if aggregate.column is None:
            items.append("COUNT(*)")
        else:
            items.append(f"{aggregate.func.value}({prefix}[{aggregate.column}])")
    select_list = ", ".join(items) if items else "*"
    top = f"TOP {query.limit} " if query.limit is not None else ""
    text = f"SELECT {top}{select_list} FROM [{query.table}]"
    if alias:
        text += f" AS {alias}"
    text += _render_join(query.join)
    all_preds = []
    for predicate in query.predicates:
        all_preds.append(render_predicate(predicate, alias))
    if query.join is not None:
        for predicate in query.join.predicates:
            all_preds.append(render_predicate(predicate, "r"))
    if all_preds:
        text += " WHERE " + " AND ".join(all_preds)
    if query.group_by:
        text += " GROUP BY " + ", ".join(
            f"{prefix}[{column}]" for column in query.group_by
        )
    if query.order_by:
        text += " ORDER BY " + ", ".join(
            f"{prefix}[{item.column}]" + ("" if item.ascending else " DESC")
            for item in query.order_by
        )
    if query.index_hint:
        text += f" OPTION (USE INDEX ([{query.index_hint}]))"
    return text


def render_insert(query: InsertQuery, schema: Optional[TableSchema] = None) -> str:
    """Render an INSERT / BULK INSERT statement."""
    verb = "BULK INSERT" if query.bulk else "INSERT INTO"
    columns = ""
    if schema is not None:
        columns = " (" + ", ".join(f"[{c}]" for c in schema.column_names) + ")"
    rows = ", ".join(
        "(" + ", ".join(_literal(value) for value in row) + ")"
        for row in query.rows[:3]
    )
    if len(query.rows) > 3:
        rows += f" /* +{len(query.rows) - 3} rows */"
    return f"{verb} [{query.table}]{columns} VALUES {rows}"


def render_update(query: UpdateQuery) -> str:
    """Render an UPDATE statement."""
    sets = ", ".join(
        f"[{column}] = {_literal(value)}" for column, value in query.assignments
    )
    return f"UPDATE [{query.table}] SET {sets}" + _render_where(query.predicates)


def render_delete(query: DeleteQuery) -> str:
    """Render a DELETE statement."""
    return f"DELETE FROM [{query.table}]" + _render_where(query.predicates)


def render(query, schema: Optional[TableSchema] = None) -> str:
    """Render any supported query object to SQL text."""
    if isinstance(query, SelectQuery):
        return render_select(query)
    if isinstance(query, InsertQuery):
        return render_insert(query, schema)
    if isinstance(query, UpdateQuery):
        return render_update(query)
    if isinstance(query, DeleteQuery):
        return render_delete(query)
    raise TypeError(f"cannot render {type(query).__name__}")


def template_text(query) -> str:
    """Render with literals replaced by parameter markers.

    This is the normalized text Query Store keys a template by.
    """
    text = render(query)
    # Cheap literal scrubbing: the renderer is deterministic, so templates
    # from the same structure produce identical scrubbed text.
    text = re.sub(r"N'(?:[^']|'')*'", "@p", text)
    text = re.sub(r"(?<![\w\]])-?\d+(?:\.\d+)?(?:e-?\d+)?", "@p", text)
    return text
