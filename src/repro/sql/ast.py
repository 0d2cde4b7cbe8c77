"""Typed AST for the SQL subset.

The AST is deliberately flat and explicit: a statement is a single
``SELECT`` over one anchor table plus optional equi-joins, a conjunction of
simple predicates, optional ``GROUP BY``, ``ORDER BY``, and ``LIMIT``.
This covers the OLAP template shapes studied in the paper (the paper
fingerprints queries by clause-wise column sets, so richer SQL would add no
information to the reproduction while complicating every substrate).

The write side mirrors the same flatness: ``INSERT`` is a column list plus
literal rows, ``UPDATE`` a conjunction-filtered set of column assignments,
``DELETE`` a conjunction-filtered row removal — enough to drive
per-structure maintenance charging in the cost models without growing a
general DML dialect.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Comparison operators accepted in predicates.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Aggregate function names accepted in the select list.
AGGREGATE_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        """Return ``table.name`` when qualified, else the bare name."""
        return f"{self.table}.{self.name}" if self.table else self.name

    def __str__(self) -> str:
        return self.qualified


@dataclass(frozen=True)
class Literal:
    """A constant: number, string, boolean, or NULL (value ``None``)."""

    value: float | int | str | bool | None

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ComparisonPredicate:
    """``column op literal`` — the workhorse filter shape."""

    column: ColumnRef
    op: str
    value: Literal

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator: {self.op!r}")


@dataclass(frozen=True)
class BetweenPredicate:
    """``column BETWEEN low AND high`` (inclusive on both ends)."""

    column: ColumnRef
    low: Literal
    high: Literal


@dataclass(frozen=True)
class InPredicate:
    """``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: tuple[Literal, ...]


@dataclass(frozen=True)
class LikePredicate:
    """``column LIKE pattern`` with ``%``/``_`` wildcards."""

    column: ColumnRef
    pattern: str


@dataclass(frozen=True)
class IsNullPredicate:
    """``column IS [NOT] NULL``."""

    column: ColumnRef
    negated: bool = False


#: Union type of all predicate shapes (kept as a tuple for isinstance checks).
Predicate = (
    ComparisonPredicate,
    BetweenPredicate,
    InPredicate,
    LikePredicate,
    IsNullPredicate,
)

PredicateType = (
    ComparisonPredicate
    | BetweenPredicate
    | InPredicate
    | LikePredicate
    | IsNullPredicate
)


@dataclass(frozen=True)
class Aggregate:
    """An aggregate call in the select list; ``column is None`` ⇒ COUNT(*)."""

    func: str
    column: ColumnRef | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unsupported aggregate: {self.func!r}")
        if self.column is None and self.func != "COUNT":
            raise ValueError(f"{self.func}(*) is not valid")


@dataclass(frozen=True)
class SelectItem:
    """One item in the select list: a plain column or an aggregate."""

    expr: ColumnRef | Aggregate
    alias: str | None = None


@dataclass(frozen=True)
class Join:
    """``JOIN table ON left = right`` (equi-join only)."""

    table: str
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class OrderItem:
    """One ``ORDER BY`` entry."""

    column: ColumnRef
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement:
    """A full query in the subset."""

    select: tuple[SelectItem, ...]
    table: str
    joins: tuple[Join, ...] = ()
    where: tuple[PredicateType, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    select_star: bool = False

    def __post_init__(self) -> None:
        if not self.select and not self.select_star:
            raise ValueError("a SELECT statement needs a select list or *")

    @property
    def has_aggregates(self) -> bool:
        """True when any select item is an aggregate call."""
        return any(isinstance(item.expr, Aggregate) for item in self.select)

    def predicate_columns(self) -> tuple[ColumnRef, ...]:
        """Columns referenced anywhere in the WHERE conjunction."""
        return tuple(pred.column for pred in self.where)


@dataclass(frozen=True)
class Assignment:
    """One ``column = literal`` pair in an ``UPDATE ... SET`` list."""

    column: ColumnRef
    value: Literal


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table (c1, ...) VALUES (v1, ...)[, (...)]``."""

    table: str
    columns: tuple[ColumnRef, ...]
    rows: tuple[tuple[Literal, ...], ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("an INSERT statement needs a column list")
        if not self.rows:
            raise ValueError("an INSERT statement needs at least one VALUES row")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"VALUES row has {len(row)} values for {len(self.columns)} columns"
                )


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET c = v[, ...] [WHERE ...]``."""

    table: str
    assignments: tuple[Assignment, ...]
    where: tuple[PredicateType, ...] = ()

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("an UPDATE statement needs at least one assignment")

    def predicate_columns(self) -> tuple[ColumnRef, ...]:
        """Columns referenced anywhere in the WHERE conjunction."""
        return tuple(pred.column for pred in self.where)


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: tuple[PredicateType, ...] = ()

    def predicate_columns(self) -> tuple[ColumnRef, ...]:
        """Columns referenced anywhere in the WHERE conjunction."""
        return tuple(pred.column for pred in self.where)


#: Union type of every statement the parser can return.
Statement = SelectStatement | InsertStatement | UpdateStatement | DeleteStatement

#: Write statements, as a tuple for isinstance checks.
WriteStatement = (InsertStatement, UpdateStatement, DeleteStatement)
