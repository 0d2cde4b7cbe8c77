"""Render an AST back to canonical SQL text.

``parse(format_statement(stmt)) == stmt`` holds for every statement in the
subset — the property tests rely on this round-trip to check both sides.
"""

from __future__ import annotations

from repro.sql.ast import (
    Aggregate,
    BetweenPredicate,
    ComparisonPredicate,
    DeleteStatement,
    InPredicate,
    InsertStatement,
    IsNullPredicate,
    LikePredicate,
    Literal,
    OrderItem,
    PredicateType,
    SelectItem,
    Statement,
    UpdateStatement,
)


def _format_select_item(item: SelectItem) -> str:
    if isinstance(item.expr, Aggregate):
        agg = item.expr
        inner = "*" if agg.column is None else agg.column.qualified
        if agg.distinct:
            inner = f"DISTINCT {inner}"
        text = f"{agg.func}({inner})"
    else:
        text = item.expr.qualified
    if item.alias:
        text += f" AS {item.alias}"
    return text


def format_predicate(pred: PredicateType) -> str:
    """Render a single predicate."""
    if isinstance(pred, ComparisonPredicate):
        return f"{pred.column} {pred.op} {pred.value}"
    if isinstance(pred, BetweenPredicate):
        return f"{pred.column} BETWEEN {pred.low} AND {pred.high}"
    if isinstance(pred, InPredicate):
        values = ", ".join(str(v) for v in pred.values)
        return f"{pred.column} IN ({values})"
    if isinstance(pred, LikePredicate):
        return f"{pred.column} LIKE {Literal(pred.pattern)}"
    if isinstance(pred, IsNullPredicate):
        return f"{pred.column} IS {'NOT ' if pred.negated else ''}NULL"
    raise TypeError(f"unknown predicate type: {type(pred).__name__}")


def _format_order_item(item: OrderItem) -> str:
    return f"{item.column} {'ASC' if item.ascending else 'DESC'}"


def _format_insert(stmt: InsertStatement) -> str:
    columns = ", ".join(c.qualified for c in stmt.columns)
    rows = ", ".join(
        "(" + ", ".join(str(v) for v in row) + ")" for row in stmt.rows
    )
    return f"INSERT INTO {stmt.table} ({columns}) VALUES {rows}"


def _format_update(stmt: UpdateStatement) -> str:
    sets = ", ".join(f"{a.column} = {a.value}" for a in stmt.assignments)
    text = f"UPDATE {stmt.table} SET {sets}"
    if stmt.where:
        text += " WHERE " + " AND ".join(format_predicate(p) for p in stmt.where)
    return text


def _format_delete(stmt: DeleteStatement) -> str:
    text = f"DELETE FROM {stmt.table}"
    if stmt.where:
        text += " WHERE " + " AND ".join(format_predicate(p) for p in stmt.where)
    return text


def format_statement(stmt: Statement) -> str:
    """Render ``stmt`` as a single-line canonical SQL string."""
    if isinstance(stmt, InsertStatement):
        return _format_insert(stmt)
    if isinstance(stmt, UpdateStatement):
        return _format_update(stmt)
    if isinstance(stmt, DeleteStatement):
        return _format_delete(stmt)
    if stmt.select_star:
        select_list = "*"
    else:
        select_list = ", ".join(_format_select_item(item) for item in stmt.select)
    parts = [f"SELECT {select_list}", f"FROM {stmt.table}"]
    for join in stmt.joins:
        parts.append(f"JOIN {join.table} ON {join.left} = {join.right}")
    if stmt.where:
        parts.append("WHERE " + " AND ".join(format_predicate(p) for p in stmt.where))
    if stmt.group_by:
        parts.append("GROUP BY " + ", ".join(c.qualified for c in stmt.group_by))
    if stmt.order_by:
        parts.append("ORDER BY " + ", ".join(_format_order_item(o) for o in stmt.order_by))
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    return " ".join(parts)
