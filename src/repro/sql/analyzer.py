"""Clause-wise column extraction and template fingerprints.

The paper (Section 5) represents each query by the columns it references,
either as a single union set (``δ_euclidean``) or kept separate per clause
(``δ_separate``).  Section 6.2 defines a query *template* by "stripping away
the query details except for the sets of columns used in the select, where,
group by, and order by clauses"; Figure 5 tracks how many queries in one
window share a template with another window.

:func:`analyze` maps an AST (or SQL text) to a :class:`QueryTemplate` that
carries all four clause sets plus the union.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.sql.ast import (
    Aggregate,
    ColumnRef,
    DeleteStatement,
    InsertStatement,
    Statement,
    UpdateStatement,
)
from repro.sql.parser import parse

#: Clause keys, in the paper's SWGO order.
CLAUSES = ("select", "where", "group_by", "order_by")


@dataclass(frozen=True)
class QueryTemplate:
    """Clause-wise column sets of a query, hashable so it can key dicts.

    Column names are stored as the (possibly qualified) strings that appear
    in the SQL text; workloads in this repository always emit fully
    qualified ``table.column`` names so templates compare unambiguously.
    """

    select: frozenset[str]
    where: frozenset[str]
    group_by: frozenset[str]
    order_by: frozenset[str]

    @property
    def union(self) -> frozenset[str]:
        """All columns referenced anywhere in the query."""
        return self.select | self.where | self.group_by | self.order_by

    def clause(self, name: str) -> frozenset[str]:
        """Return the column set for one clause key from :data:`CLAUSES`."""
        if name not in CLAUSES:
            raise KeyError(f"unknown clause {name!r}; expected one of {CLAUSES}")
        return getattr(self, name)

    def restricted(self, clauses: tuple[str, ...]) -> frozenset[str]:
        """Union of the given clauses only (for the Figure 11 ablation)."""
        result: frozenset[str] = frozenset()
        for name in clauses:
            result |= self.clause(name)
        return result

    @property
    def is_empty(self) -> bool:
        """True when the query references no columns at all.

        The paper ignores such queries (e.g. ``SELECT version()``-style
        trivia) when building workload vectors.
        """
        return not self.union

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        def fmt(s: frozenset[str]) -> str:
            return "{" + ",".join(sorted(s)) + "}"

        return (
            f"S{fmt(self.select)} W{fmt(self.where)} "
            f"G{fmt(self.group_by)} O{fmt(self.order_by)}"
        )


def _qualified(ref: ColumnRef, table: str) -> str:
    """The ref's qualified name, defaulting bare DML columns to ``table``.

    Write statements conventionally use bare column names (``SET m_01 =
    ...``); qualifying them against the statement's single target table
    keeps write templates comparable with the fully qualified read
    templates the generator emits.
    """
    return ref.qualified if ref.table else f"{table}.{ref.name}"


def analyze(stmt: Statement) -> QueryTemplate:
    """Extract the clause-wise column sets from a parsed statement.

    Write statements map onto the same SWGO shape: the *written* columns
    (INSERT column list, UPDATE SET targets) land in the select set — they
    are the columns the statement touches by value — and the WHERE
    conjunction lands in the where set.  Group/order stay empty.
    """
    if isinstance(stmt, InsertStatement):
        return QueryTemplate(
            select=frozenset(_qualified(c, stmt.table) for c in stmt.columns),
            where=frozenset(),
            group_by=frozenset(),
            order_by=frozenset(),
        )
    if isinstance(stmt, (UpdateStatement, DeleteStatement)):
        written: set[str] = set()
        if isinstance(stmt, UpdateStatement):
            written = {_qualified(a.column, stmt.table) for a in stmt.assignments}
        return QueryTemplate(
            select=frozenset(written),
            where=frozenset(
                _qualified(p.column, stmt.table) for p in stmt.where
            ),
            group_by=frozenset(),
            order_by=frozenset(),
        )
    select_cols: set[str] = set()
    for item in stmt.select:
        if isinstance(item.expr, Aggregate):
            if item.expr.column is not None:
                select_cols.add(item.expr.column.qualified)
        else:
            select_cols.add(item.expr.qualified)
    # Join keys participate in filtering exactly like WHERE columns do, so
    # they are folded into the where set (a design structure that misses a
    # join key cannot serve the join).
    where_cols = {pred.column.qualified for pred in stmt.where}
    for join in stmt.joins:
        where_cols.add(join.left.qualified)
        where_cols.add(join.right.qualified)
    group_cols = {col.qualified for col in stmt.group_by}
    order_cols = {item.column.qualified for item in stmt.order_by}
    return QueryTemplate(
        select=frozenset(select_cols),
        where=frozenset(where_cols),
        group_by=frozenset(group_cols),
        order_by=frozenset(order_cols),
    )


@lru_cache(maxsize=65536)
def extract_template(sql: str) -> QueryTemplate:
    """Parse ``sql`` and extract its template (cached by exact SQL text).

    Workload replays analyze the same query strings over and over; caching
    by text keeps the distance computations cheap.
    """
    return analyze(parse(sql))
