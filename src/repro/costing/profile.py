"""Query profiles: parsed, schema-resolved, selectivity-annotated queries.

A profile is pure data.  Costing a profile against a candidate structure is
plain arithmetic, which is what keeps designer search loops (thousands of
query × structure evaluations) fast enough for the robust-design search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Schema, SchemaError
from repro.catalog.statistics import TableStatistics
from repro.costing.memo import BoundedMemo
from repro.sql.ast import (
    Aggregate,
    BetweenPredicate,
    ColumnRef,
    ComparisonPredicate,
    DeleteStatement,
    InPredicate,
    InsertStatement,
    PredicateType,
    Statement,
    UpdateStatement,
)
from repro.sql.parser import parse


def resolve_column(
    schema: Schema, ref: ColumnRef, default_table: str
) -> tuple[str, str] | None:
    """Resolve a column reference to ``(table, bare_name)``.

    Qualified names resolve directly; bare names prefer the query's anchor
    table, then fall back to a unique owner anywhere in the schema.  Returns
    ``None`` for columns the schema does not know (stale workload queries
    must not crash the designers — the paper's real trace had exactly this:
    only 15.5K of its 430K queries conformed to the latest schema).
    """
    if ref.table is not None:
        if ref.table not in schema.tables:
            return None
        if not schema.table(ref.table).has_column(ref.name):
            return None
        return ref.table, ref.name
    table = schema.tables.get(default_table)
    if table is not None and table.has_column(ref.name):
        return default_table, ref.name
    try:
        owner, column = schema.resolve(ref.name)
    except SchemaError:
        return None
    return owner.name, column.name


@dataclass(frozen=True)
class TableAccess:
    """Everything a cost model needs about one table's role in a query."""

    table: str
    row_count: int
    #: Bare names of the referenced columns that exist in the table.
    needed_columns: frozenset[str]
    #: Bytes per row to read the needed columns (columnar read width).
    needed_bytes: int
    #: Bytes per full row of the table (row-store read width).
    row_bytes: int
    #: column -> selectivity for equality-like predicates (=, IN).
    eq_selectivity: tuple[tuple[str, float], ...]
    #: column -> selectivity for range-like predicates (<, BETWEEN, ...).
    range_selectivity: tuple[tuple[str, float], ...]
    #: Combined selectivity of the full conjunction on this table.
    total_selectivity: float
    #: Number of predicates on this table.
    predicate_count: int

    # The two lookups build a fresh dict per read (a profile is pure data
    # and pickles as such); the cost models read them once per pricing
    # call, not once per structure.  A column with two predicates keeps
    # the larger selectivity: the tuples are sorted and the last wins.

    @property
    def eq_map(self) -> dict[str, float]:
        return dict(self.eq_selectivity)

    @property
    def range_map(self) -> dict[str, float]:
        return dict(self.range_selectivity)

    @property
    def predicate_columns(self) -> frozenset[str]:
        """All columns carrying a predicate on this table."""
        return frozenset(name for name, _ in self.eq_selectivity) | frozenset(
            name for name, _ in self.range_selectivity
        )


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the select list, resolved to a bare anchor column."""

    func: str
    column: str | None  # None means COUNT(*)
    distinct: bool = False


@dataclass(frozen=True)
class QueryProfile:
    """A fully annotated query, ready to be priced by any engine."""

    sql: str
    anchor: TableAccess
    dimensions: tuple[TableAccess, ...]
    group_by: tuple[str, ...]  # bare names on the anchor table
    order_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    #: Bare anchor-column names appearing as plain select items.
    select_columns: tuple[str, ...]
    limit: int | None
    group_cardinality: int
    #: ``"select"`` for reads; ``"insert"``/``"update"``/``"delete"`` for
    #: writes.  Write profiles carry no dimensions, groupings, or
    #: aggregates — only the anchor access (used to locate affected rows)
    #: plus the write annotations below.
    statement_kind: str = "select"
    #: Bare anchor-column names the statement writes (INSERT column list,
    #: UPDATE SET targets; empty for DELETE — the whole row goes away).
    written_columns: tuple[str, ...] = ()
    #: Bytes modified per affected row (written-column widths; full row
    #: width for DELETE).
    written_bytes: int = 0
    #: Estimated number of rows the statement touches.
    affected_rows: float = 0.0

    @property
    def is_write(self) -> bool:
        return self.statement_kind != "select"

    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates)

    @property
    def tables(self) -> tuple[TableAccess, ...]:
        return (self.anchor, *self.dimensions)


class QueryProfiler:
    """Builds and caches :class:`QueryProfile` objects for one schema."""

    def __init__(self, schema: Schema, statistics: dict[str, TableStatistics]):
        self.schema = schema
        self.statistics = statistics
        #: sql -> profile.  Bounded: a serve session profiles an endless
        #: stream of distinct texts; an evicted text is re-parsed into an
        #: equal profile.
        self._profiles = BoundedMemo("costing.profile_evictions")

    def profile(self, sql: str, statement: Statement | None = None) -> QueryProfile:
        """Parse and annotate ``sql`` (cached by exact text).

        ``statement`` is ``sql`` already parsed, for a caller that needs
        the AST too; a miss then annotates it instead of parsing again.
        """
        cached = self._profiles.get(sql)
        if cached is not None:
            return cached
        profile = self._build(sql, parse(sql) if statement is None else statement)
        self._profiles[sql] = profile
        return profile

    def annotate(self, sql: str, statement: Statement) -> QueryProfile:
        """The profile of ``sql`` (parsed as ``statement``) without
        memoising it: the memo's entry when it holds the text (its
        recency untouched), else a fresh profile nobody keeps.

        For a caller that prices a text once and drops it — the serve
        daemon's stream, whose texts rarely recur — so the memo does not
        grow with the stream.  The profile equals what :meth:`profile`
        returns.
        """
        cached = self._profiles.peek(sql)
        if cached is not None:
            return cached
        return self._build(sql, statement)

    def _build(self, sql: str, stmt: Statement) -> QueryProfile:
        if isinstance(stmt, (InsertStatement, UpdateStatement, DeleteStatement)):
            return self._build_write(sql, stmt)
        anchor_name = stmt.table
        if anchor_name not in self.schema.tables:
            raise SchemaError(f"query references unknown table {anchor_name!r}")
        table_names = [anchor_name] + [
            j.table for j in stmt.joins if j.table in self.schema.tables
        ]

        needed: dict[str, set[str]] = {name: set() for name in table_names}
        predicates: dict[str, list[PredicateType]] = {name: [] for name in table_names}

        def note_column(ref: ColumnRef) -> tuple[str, str] | None:
            resolved = resolve_column(self.schema, ref, anchor_name)
            if resolved is not None and resolved[0] in needed:
                needed[resolved[0]].add(resolved[1])
                return resolved
            return None

        aggregates: list[AggregateSpec] = []
        select_columns: list[str] = []
        if stmt.select_star:
            for name in table_names:
                needed[name].update(self.schema.table(name).column_names)
        for item in stmt.select:
            if isinstance(item.expr, Aggregate):
                agg = item.expr
                column_name: str | None = None
                if agg.column is not None:
                    resolved = note_column(agg.column)
                    if resolved is not None and resolved[0] == anchor_name:
                        column_name = resolved[1]
                aggregates.append(
                    AggregateSpec(func=agg.func, column=column_name, distinct=agg.distinct)
                )
            else:
                resolved = note_column(item.expr)
                if resolved is not None and resolved[0] == anchor_name:
                    select_columns.append(resolved[1])
        for join in stmt.joins:
            note_column(join.left)
            note_column(join.right)
        for pred in stmt.where:
            resolved = resolve_column(self.schema, pred.column, anchor_name)
            if resolved is not None and resolved[0] in needed:
                needed[resolved[0]].add(resolved[1])
                predicates[resolved[0]].append(pred)

        group_by: list[str] = []
        for col in stmt.group_by:
            resolved = note_column(col)
            if resolved is not None and resolved[0] == anchor_name:
                group_by.append(resolved[1])
        order_by: list[str] = []
        for item in stmt.order_by:
            resolved = note_column(item.column)
            if resolved is not None and resolved[0] == anchor_name:
                order_by.append(resolved[1])

        anchor = self._build_access(anchor_name, needed[anchor_name], predicates[anchor_name])
        dims = tuple(
            self._build_access(name, needed[name], predicates[name])
            for name in table_names[1:]
        )

        group_cardinality = 1
        stats = self.statistics[anchor_name]
        for col in group_by:
            if col in stats.columns:
                group_cardinality *= max(1, stats.columns[col].ndv)
            group_cardinality = min(group_cardinality, anchor.row_count)

        return QueryProfile(
            sql=sql,
            anchor=anchor,
            dimensions=dims,
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            aggregates=tuple(aggregates),
            select_columns=tuple(select_columns),
            limit=stmt.limit,
            group_cardinality=group_cardinality,
        )

    def _build_write(
        self,
        sql: str,
        stmt: InsertStatement | UpdateStatement | DeleteStatement,
    ) -> QueryProfile:
        """Annotate a DML statement.

        The anchor access describes the *locate* work — the columns and
        predicates needed to find the affected rows — while the write
        annotations (``written_columns``/``written_bytes``/
        ``affected_rows``) describe the modification the cost models
        charge maintenance for.
        """
        anchor_name = stmt.table
        if anchor_name not in self.schema.tables:
            raise SchemaError(f"statement references unknown table {anchor_name!r}")
        table = self.schema.table(anchor_name)

        written: list[str] = []
        if isinstance(stmt, InsertStatement):
            refs = list(stmt.columns)
        elif isinstance(stmt, UpdateStatement):
            refs = [a.column for a in stmt.assignments]
        else:
            refs = []
        for ref in refs:
            resolved = resolve_column(self.schema, ref, anchor_name)
            if resolved is not None and resolved[0] == anchor_name:
                written.append(resolved[1])

        needed: set[str] = set(written)
        preds: list[PredicateType] = []
        if isinstance(stmt, (UpdateStatement, DeleteStatement)):
            for pred in stmt.where:
                resolved = resolve_column(self.schema, pred.column, anchor_name)
                if resolved is not None and resolved[0] == anchor_name:
                    needed.add(resolved[1])
                    preds.append(pred)

        anchor = self._build_access(anchor_name, needed, preds)
        if isinstance(stmt, InsertStatement):
            kind = "insert"
            affected = float(len(stmt.rows))
            written_bytes = sum(
                table.column(c).type.byte_width for c in written
            )
        elif isinstance(stmt, UpdateStatement):
            kind = "update"
            affected = max(anchor.row_count * anchor.total_selectivity, 1.0)
            written_bytes = sum(
                table.column(c).type.byte_width for c in written
            )
        else:
            kind = "delete"
            affected = max(anchor.row_count * anchor.total_selectivity, 1.0)
            written_bytes = anchor.row_bytes

        return QueryProfile(
            sql=sql,
            anchor=anchor,
            dimensions=(),
            group_by=(),
            order_by=(),
            aggregates=(),
            select_columns=(),
            limit=None,
            group_cardinality=1,
            statement_kind=kind,
            written_columns=tuple(written),
            written_bytes=max(written_bytes, 1),
            affected_rows=affected,
        )

    def _build_access(
        self, table_name: str, columns: set[str], preds: list[PredicateType]
    ) -> TableAccess:
        table = self.schema.table(table_name)
        stats = self.statistics[table_name]
        eq: list[tuple[str, float]] = []
        rng: list[tuple[str, float]] = []
        for pred in preds:
            selectivity = stats.predicate_selectivity(pred)
            name = pred.column.name
            if isinstance(pred, ComparisonPredicate) and pred.op == "=":
                eq.append((name, selectivity))
            elif isinstance(pred, InPredicate):
                eq.append((name, selectivity))
            elif isinstance(pred, (ComparisonPredicate, BetweenPredicate)):
                rng.append((name, selectivity))
            else:
                rng.append((name, selectivity))
        needed_bytes = sum(
            table.column(c).type.byte_width for c in columns if table.has_column(c)
        )
        return TableAccess(
            table=table_name,
            row_count=stats.row_count,
            needed_columns=frozenset(columns),
            needed_bytes=max(needed_bytes, 1),
            row_bytes=max(table.row_bytes, 1),
            eq_selectivity=tuple(sorted(eq)),
            range_selectivity=tuple(sorted(rng)),
            total_selectivity=stats.conjunction_selectivity(tuple(preds)),
            predicate_count=len(preds),
        )
