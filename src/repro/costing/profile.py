"""Query profiles: parsed, schema-resolved, selectivity-annotated queries.

A profile is pure data.  Costing a profile against a candidate structure is
plain arithmetic, which is what keeps designer search loops (thousands of
query × structure evaluations) fast enough for the robust-design search.

A profile is built in two steps.  The *plan* is what a query's *shape* —
its text with the literals masked — decides: the parse, column
resolution, the needed columns and bytes, aggregates, group and order
keys, the group cardinality, and each predicate with the literal slots
it reads.  *Binding* a text's literals to the plan prices the predicate
selectivities and reads the LIMIT and the rows a write touches.

Workloads repeat shapes far more than texts: a template recurs with
fresh constants (a seed-1 R1 replay profiles 4 554 distinct texts of
1 056 shapes, the seed-1 ECOMMERCE serve stream 13 440 texts of 1 367).
So :class:`QueryProfiler` memoises plans by shape.  A text it has not
profiled is split at its literals (:data:`repro.sql.lexer.LITERALS`);
when the shape has a plan, the literals are read with the parser's own
conversions and bound, and the text is never parsed.  A new shape is
parsed and planned, and its plan is kept only when the split reads back
exactly the literals the parse found, so binding the split reproduces
the parsed text's profile.  A text whose literals the parse would reject
(``LIMIT 1e400``) fails to bind and goes the parsing way, which raises
the parse's own error.

A kept plan also carries its shape's :class:`~repro.sql.analyzer.QueryTemplate`
(``analyze`` of the planned statement; a template reads no literal).
:meth:`QueryProfiler.annotate` hands it out beside the profile, so the
serve daemon prices a query and keys it in the drift monitor without
parsing it: a served text is parsed only when its shape is new.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Schema, SchemaError
from repro.catalog.statistics import TableStatistics
from repro.costing.memo import BoundedMemo
from repro.sql.analyzer import QueryTemplate, analyze
from repro.sql.ast import (
    Aggregate,
    BetweenPredicate,
    ColumnRef,
    ComparisonPredicate,
    DeleteStatement,
    InPredicate,
    InsertStatement,
    LikePredicate,
    Literal,
    PredicateType,
    Statement,
    UpdateStatement,
)
from repro.sql.lexer import LITERALS, string_value
from repro.sql.parser import limit_value, number_value, parse


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


def _slot(value, values: list) -> int | None:
    """Append a literal's ``value`` to ``values`` as the next slot and
    return its index; ``None`` for ``NULL`` / ``TRUE`` / ``FALSE``,
    which are keywords of the shape."""
    if value is None or isinstance(value, bool):
        return None
    values.append(value)
    return len(values) - 1


def _predicate_slots(predicate: PredicateType, values: list) -> tuple | None:
    """Append ``predicate``'s literals to ``values`` as slots.  Returns
    the slots of the literal fields its selectivity reads — ``(value,)``
    for a comparison, ``(low, high)`` for BETWEEN — or ``None`` when no
    slot feeds it (IN counts its values, LIKE and IS NULL read none)."""
    if isinstance(predicate, ComparisonPredicate):
        slots = (_slot(predicate.value.value, values),)
    elif isinstance(predicate, BetweenPredicate):
        slots = (_slot(predicate.low.value, values), _slot(predicate.high.value, values))
    else:
        if isinstance(predicate, InPredicate):
            for literal in predicate.values:
                _slot(literal.value, values)
        elif isinstance(predicate, LikePredicate):
            _slot(predicate.pattern, values)
        return None
    return None if slots.count(None) == len(slots) else slots


def _statement_slots(stmt: Statement) -> tuple[list, dict[int, tuple | None], int | None]:
    """``stmt``'s slots: its literal values in text order, what
    :func:`_predicate_slots` answers for each WHERE predicate (by
    ``id``), and the LIMIT's slot."""
    values: list = []
    if isinstance(stmt, InsertStatement):
        for row in stmt.rows:
            for literal in row:
                _slot(literal.value, values)
        return values, {}, None
    if isinstance(stmt, UpdateStatement):
        for assignment in stmt.assignments:
            _slot(assignment.value.value, values)
    by_predicate = {id(pred): _predicate_slots(pred, values) for pred in stmt.where}
    limit = getattr(stmt, "limit", None)
    return values, by_predicate, None if limit is None else _slot(limit, values)


def _rebound(predicate: PredicateType, slots: tuple, values: list) -> PredicateType:
    """``predicate`` with the literals of ``slots`` taken from ``values``."""
    if isinstance(predicate, ComparisonPredicate):
        return ComparisonPredicate(predicate.column, predicate.op, Literal(values[slots[0]]))
    low, high = slots
    return BetweenPredicate(
        predicate.column,
        predicate.low if low is None else Literal(values[low]),
        predicate.high if high is None else Literal(values[high]),
    )


class _AccessPlan:
    """A :class:`TableAccess` without its selectivities.

    ``predicates`` holds ``(column name, equality-like, predicate)`` per
    predicate on the table, in WHERE order; ``slots``, set once the plan
    is kept for its shape, holds :func:`_predicate_slots`' answer for
    each.
    """

    __slots__ = (
        "table", "stats", "needed_columns", "needed_bytes", "row_bytes", "predicates", "slots"
    )

    def __init__(self, table, stats, needed_columns, needed_bytes, row_bytes, predicates):
        self.table = table
        self.stats = stats
        self.needed_columns = needed_columns
        self.needed_bytes = needed_bytes
        self.row_bytes = row_bytes
        self.predicates = predicates
        self.slots: tuple = ()

    def bind(self, values: list | None) -> TableAccess:
        """The access with each predicate priced on slot ``values``
        (``None``: as planned), and the conjunction as their product in
        WHERE order."""
        stats = self.stats
        predicates = self.predicates
        if values is not None:
            predicates = [
                (name, equality, predicate if slots is None else _rebound(predicate, slots, values))
                for (name, equality, predicate), slots in zip(predicates, self.slots)
            ]
        eq: list[tuple[str, float]] = []
        rng: list[tuple[str, float]] = []
        total = 1.0
        for name, equality, predicate in predicates:
            selectivity = stats.predicate_selectivity(predicate)
            total *= selectivity
            (eq if equality else rng).append((name, selectivity))
        return TableAccess(
            table=self.table,
            row_count=stats.row_count,
            needed_columns=self.needed_columns,
            needed_bytes=self.needed_bytes,
            row_bytes=self.row_bytes,
            eq_selectivity=tuple(sorted(eq)),
            range_selectivity=tuple(sorted(rng)),
            total_selectivity=total,
            predicate_count=len(self.predicates),
        )


class _Plan:
    """The part of a profile a shape decides (module docstring).

    ``fields`` are the :class:`QueryProfile` fields that read no literal
    but the planned statement's LIMIT; ``locates`` marks an UPDATE /
    DELETE, whose ``affected_rows`` is what its WHERE keeps.
    """

    __slots__ = ("accesses", "fields", "locates", "slots", "limit_slot", "template")

    def __init__(self, accesses, fields, locates=False):
        self.accesses = accesses
        self.fields = fields
        self.locates = locates
        #: The shape's template, set when a text is planned through
        #: :meth:`QueryProfiler._bound` (``None`` on a plan made from a
        #: caller's statement).
        self.template: QueryTemplate | None = None
        #: Set by :meth:`reads_back`: how :meth:`read` finds each slot in
        #: a :data:`LITERALS` split — the index of its STRING or NUMBER
        #: group and the parser's conversion for it — and the LIMIT's
        #: slot.
        self.slots: tuple = ()
        self.limit_slot: int | None = None

    def reads_back(self, statement: Statement, parts: list) -> bool:
        """Slot the plan, made from ``statement``, for other texts of its
        shape, and tell whether it reads from ``parts``, the planned
        text's split, exactly the literal values the parse found — same
        count, types and values — so that binding any text of the shape
        reads its literals where its parse would."""
        values, by_predicate, limit_slot = _statement_slots(statement)
        if len(parts) != 3 * len(values) + 1:
            return False
        self.slots = tuple(
            (3 * k + 1, string_value)
            if isinstance(value, str)
            else (3 * k + 2, limit_value if k == limit_slot else number_value)
            for k, value in enumerate(values)
        )
        self.limit_slot = limit_slot
        for access in self.accesses:
            access.slots = tuple(by_predicate[id(p)] for _, _, p in access.predicates)
        try:
            read = self.read(parts)
        except (TypeError, ValueError, OverflowError):
            return False
        return read == values and list(map(type, read)) == list(map(type, values))

    def read(self, parts: list) -> list:
        """The slot values of a text split by :data:`LITERALS`."""
        return [convert(parts[i]) for i, convert in self.slots]

    def bind(self, sql: str, values: list | None = None) -> QueryProfile:
        """The profile of ``sql``: a text of the shape whose slot values
        are ``values`` (see :meth:`reads_back`), or (``None``) the
        planned statement's own text."""
        anchor, *dimensions = [access.bind(values) for access in self.accesses]
        fields = self.fields
        if self.locates:
            return QueryProfile(
                sql=sql,
                anchor=anchor,
                dimensions=(),
                affected_rows=max(anchor.row_count * anchor.total_selectivity, 1.0),
                **fields,
            )
        if values is not None and self.limit_slot is not None:
            fields = {**fields, "limit": values[self.limit_slot]}
        return QueryProfile(sql=sql, anchor=anchor, dimensions=tuple(dimensions), **fields)


#: Bound on one profiler's plans.  Unlike texts, the shapes a workload
#: repeats are few (1 367 in the seed-1 ECOMMERCE serve stream, the
#: most of any ledger workload), but a stream whose shapes rarely recur
#: — IN lists of every length — would keep a plan per text; a plan of
#: such a shape takes ~15 KB, so this caps them near 30 MB.
PLAN_MEMO_ENTRIES = 2_048


class QueryProfiler:
    """Builds and caches :class:`QueryProfile` objects for one schema."""

    def __init__(self, schema: Schema, statistics: dict[str, TableStatistics]):
        self.schema = schema
        self.statistics = statistics
        #: sql -> profile.  Bounded: a serve session profiles an endless
        #: stream of distinct texts; an evicted text is bound or parsed
        #: again into an equal profile.
        self._profiles = BoundedMemo("costing.profile_evictions")
        #: shape -> its plan (module docstring).  An evicted shape is
        #: planned again from its next text.
        self._plans = BoundedMemo("costing.plan_evictions", PLAN_MEMO_ENTRIES)

    def profile(self, sql: str, statement: Statement | None = None) -> QueryProfile:
        """Parse and annotate ``sql`` (cached by exact text).

        ``statement`` is ``sql`` already parsed, for a caller that needs
        the AST too; a miss then plans it instead of parsing again, and
        keeps no plan.  Without one, a miss binds the text to its shape's
        plan when the profiler has one (module docstring).
        """
        cached = self._profiles.get(sql)
        if cached is not None:
            return cached
        if statement is None:
            profile = self._bound(sql)[0]
        else:
            profile = self._plan(statement).bind(sql)
        self._profiles[sql] = profile
        return profile

    def annotate(self, sql: str) -> tuple[QueryProfile, QueryTemplate]:
        """``(profile, template)`` of ``sql`` without memoising the
        profile: the text is bound to its shape's plan, or parsed and
        planned (and the plan kept) when the shape is new.

        For a caller that prices a text once and drops it — the serve
        daemon's stream, whose texts rarely recur but whose shapes do —
        so the profile memo does not grow with the stream.  The profile
        equals what :meth:`profile` returns and the template what
        ``analyze(parse(sql))`` does.
        """
        profile, plan = self._bound(sql)
        return profile, plan.template

    def _bound(self, sql: str) -> tuple[QueryProfile, _Plan]:
        """The profile of a text not parsed yet and its plan: bound to its
        shape's plan, or parsed and planned (module docstring)."""
        parts = LITERALS.split(sql)
        shape = (tuple(parts[0::3]), tuple(map(bool, parts[1::3])))
        plan = self._plans.get(shape)
        if plan is not None:
            try:
                return plan.bind(sql, plan.read(parts)), plan
            except (ValueError, OverflowError):
                pass  # parsed below, which raises the parse's own error
        statement = parse(sql)
        plan = self._plan(statement)
        profile = plan.bind(sql)
        plan.template = analyze(statement)
        if shape not in self._plans and plan.reads_back(statement, parts):
            self._plans[shape] = plan
        return profile, plan

    def _plan(self, stmt: Statement) -> _Plan:
        """The plan of ``stmt``'s shape."""
        if isinstance(stmt, (InsertStatement, UpdateStatement, DeleteStatement)):
            return self._plan_write(stmt)
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

        accesses = tuple(
            self._plan_access(name, needed[name], predicates[name]) for name in table_names
        )

        group_cardinality = 1
        stats = self.statistics[anchor_name]
        for col in group_by:
            if col in stats.columns:
                group_cardinality *= max(1, stats.columns[col].ndv)
            group_cardinality = min(group_cardinality, stats.row_count)

        fields = {
            "group_by": tuple(group_by),
            "order_by": tuple(order_by),
            "aggregates": tuple(aggregates),
            "select_columns": tuple(select_columns),
            "limit": stmt.limit,
            "group_cardinality": group_cardinality,
        }
        return _Plan(accesses, fields)

    def _plan_write(self, stmt: InsertStatement | UpdateStatement | DeleteStatement) -> _Plan:
        """Plan a DML statement.

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

        anchor = self._plan_access(anchor_name, needed, preds)
        fields = {
            "group_by": (),
            "order_by": (),
            "aggregates": (),
            "select_columns": (),
            "limit": None,
            "group_cardinality": 1,
            "written_columns": tuple(written),
        }
        if isinstance(stmt, InsertStatement):
            fields["statement_kind"] = "insert"
            fields["affected_rows"] = float(len(stmt.rows))
            written_bytes = sum(table.column(c).type.byte_width for c in written)
        elif isinstance(stmt, UpdateStatement):
            fields["statement_kind"] = "update"
            written_bytes = sum(table.column(c).type.byte_width for c in written)
        else:
            fields["statement_kind"] = "delete"
            written_bytes = anchor.row_bytes
        fields["written_bytes"] = max(written_bytes, 1)
        return _Plan((anchor,), fields, locates=not isinstance(stmt, InsertStatement))

    def _plan_access(
        self, table_name: str, columns: set[str], preds: list[PredicateType]
    ) -> _AccessPlan:
        table = self.schema.table(table_name)
        needed_bytes = sum(
            table.column(c).type.byte_width for c in columns if table.has_column(c)
        )
        return _AccessPlan(
            table_name,
            self.statistics[table_name],
            frozenset(columns),
            max(needed_bytes, 1),
            max(table.row_bytes, 1),
            tuple([
                (
                    pred.column.name,
                    isinstance(pred, InPredicate)
                    or (isinstance(pred, ComparisonPredicate) and pred.op == "="),
                    pred,
                )
                for pred in preds
            ]),
        )
