"""The Γ-sampler's compiled chain state equals what it replaced.

A mutation chain no longer rebuilds, analyzes and re-gathers an AST per
step: it swaps names in a flat ref list, keeps the count of every distinct
qualified ref and the replacement weights with nothing swapped out, and
reads its template key off the refs.  This suite checks each of those
against the per-step derivation it replaced, over generated reads and
writes (joins, ``COUNT(*)``, bare and joined-table refs, unknown columns,
an unknown table, a bare name two tables share):

* the key equals ``template_key(analyze(stmt), spec)`` under SWGO,
  SEPARATE and restricted specs — ``None`` exactly when the template is
  empty, since an empty *restricted* key is still a key;
* the weights for swapping out any ref's name equal ``layout.weights`` of
  the statement's distinct refs minus that name, with ``==``;
* step by step, the rendered SQL and the generator state equal the
  text-level oracle of ``test_sampler_bit_identity``.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from repro.catalog.schema import Column, Schema, Table
from repro.catalog.types import ColumnType
from repro.sql.analyzer import analyze
from repro.sql.ast import Aggregate, InsertStatement, SelectStatement, UpdateStatement
from repro.sql.formatter import format_statement
from repro.sql.parser import parse
from repro.workload.distance import SWGO
from repro.workload.query import WorkloadQuery
from repro.workload.sampler import ColumnAffinity, _Chain, mutate_query
from repro.workload.workload import SEPARATE, template_key

from tests.test_sampler_bit_identity import text_mutate_query

COLUMNS = {"t": ["a", "b", "c", "k", "x"], "d": ["k", "a", "region"], "one": ["only"]}
#: Every name a ref may carry: the tables' columns (``a`` and ``k`` are in
#: both ``t`` and ``d``) plus ``ghost``, which no table defines.
NAMES = sorted({name for names in COLUMNS.values() for name in names} | {"ghost"})
SCHEMA = Schema({
    name: Table(name, [Column(column, ColumnType.INT) for column in columns])
    for name, columns in COLUMNS.items()
})
#: Co-occurrence over ``t`` and ``d``, including an observed ``t.ghost``
#: (a row no column of ``t`` matches) and ``t.region`` (a joined table's
#: column name with a row of its own in ``t``'s layout).
AFFINITY = ColumnAffinity()
AFFINITY.observe(WorkloadQuery(sql=sql) for sql in [
    "SELECT t.a, t.b, t.c FROM t",
    "SELECT t.a, t.k FROM t WHERE t.x = 1",
    "SELECT t.b FROM t WHERE t.ghost = 1 ORDER BY t.c ASC",
    "SELECT t.a, t.region FROM t",
    "SELECT d.region, d.k FROM d WHERE d.a = 2",
    "SELECT t.x, d.region FROM t JOIN d ON t.k = d.k GROUP BY t.x",
])
SPECS = [SWGO, SEPARATE, ("select", "where"), ("group_by",), ("order_by",)]


def reference_context_columns(stmt) -> list[str]:
    """Bare names of the distinct ``(table or default, name)`` refs of
    ``stmt``: the per-step context the chain state replaced."""
    if isinstance(stmt, InsertStatement):
        refs = list(stmt.columns)
    else:
        refs = [pred.column for pred in stmt.where]
        if isinstance(stmt, UpdateStatement):
            refs += [assignment.column for assignment in stmt.assignments]
        elif isinstance(stmt, SelectStatement):
            exprs = [item.expr for item in stmt.select]
            refs += [e.column if isinstance(e, Aggregate) else e for e in exprs]
            refs += [ref for join in stmt.joins for ref in (join.left, join.right)]
            refs += stmt.group_by
            refs += [item.column for item in stmt.order_by]
    default = None if isinstance(stmt, SelectStatement) else stmt.table
    distinct = {(ref.table or default, ref.name) for ref in refs if ref is not None}
    return [name for _, name in distinct]


@st.composite
def statements(draw) -> str:
    table = draw(st.sampled_from(["t", "d", "one", "nowhere"]))
    joined = table == "t" and draw(st.booleans())
    qualifiers = [None, table] + (["d"] if joined else [])

    def ref() -> str:
        qualifier = draw(st.sampled_from(qualifiers))
        name = draw(st.sampled_from(NAMES))
        return f"{qualifier}.{name}" if qualifier else name

    def refs(low: int, high: int) -> list[str]:
        return [ref() for _ in range(draw(st.integers(low, high)))]

    def where() -> str:
        predicates = [
            draw(st.sampled_from(["{} = 1", "{} BETWEEN 1 AND 5", "{} IN (1, 2)"])).format(r)
            for r in refs(0, 3)
        ]
        return " WHERE " + " AND ".join(predicates) if predicates else ""

    kind = draw(st.sampled_from(["select", "insert", "update", "delete"]))
    if kind == "insert":
        columns = refs(1, 3)
        values = ", ".join("1" for _ in columns)
        return f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({values})"
    if kind == "update":
        sets = ", ".join(f"{r} = 1" for r in refs(1, 3))
        return f"UPDATE {table} SET {sets}{where()}"
    if kind == "delete":
        return f"DELETE FROM {table}{where()}"
    items = [
        draw(st.sampled_from(["{}", "SUM({})", "COUNT(DISTINCT {})", "COUNT(*)"])).format(r)
        for r in refs(0, 3)
    ]
    sql = f"SELECT {', '.join(items) or '*'} FROM {table}"
    if joined:
        sql += " JOIN d ON t.k = d.k"
    sql += where()
    if group := refs(0, 2):
        sql += " GROUP BY " + ", ".join(group)
    if order := refs(0, 2):
        sql += " ORDER BY " + ", ".join(f"{r} DESC" for r in order)
    return sql


def assert_state_matches(chain: _Chain) -> None:
    stmt = chain.statement()
    template = analyze(stmt)
    for spec in SPECS:
        expected = None if template.is_empty else template_key(template, spec)
        assert chain.key(spec) == expected, spec
    layout, table = chain.shape.layout, chain.shape.table
    if layout is None:
        return
    context = reference_context_columns(stmt)
    for name in set(chain.names):
        expected = layout.weights([c for c in context if c != name])
        if table.has_column(name):
            expected[layout.position[name]] = 0.0
        assert chain.weights(name).tolist() == expected.tolist(), name


@given(
    sql=statements(),
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    with_affinity=st.booleans(),
)
@example(  # a repeated pair, a bare twin and a joined-table twin of ``a``
    sql="SELECT t.a, a FROM t JOIN d ON t.k = d.k WHERE d.a = 1 GROUP BY t.a",
    seed=3, depth=3, with_affinity=True,
)
@example(sql="UPDATE t SET a = 1, t.b = 1 WHERE c = 1", seed=0, depth=3, with_affinity=True)
@example(sql="SELECT COUNT(*) FROM t WHERE t.a = 1", seed=1, depth=2, with_affinity=True)
@example(sql="SELECT * FROM nowhere WHERE nowhere.a = 1", seed=2, depth=1, with_affinity=True)
@settings(max_examples=400, deadline=None)
def test_chain_state_equals_what_it_replaces(sql, seed, depth, with_affinity):
    affinity = AFFINITY if with_affinity else None
    chain = _Chain.compile(parse(sql), SCHEMA, affinity)
    text: str | None = sql
    chain_rng, text_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(depth):
        assert_state_matches(chain)
        chain = mutate_query(chain, SCHEMA, chain_rng)
        text = text_mutate_query(text, SCHEMA, text_rng, affinity)
        assert (None if chain is None else format_statement(chain.statement())) == text
        assert chain_rng.bit_generator.state == text_rng.bit_generator.state
        if chain is None:
            return
    assert_state_matches(chain)


def test_restricted_spec_keeps_an_empty_key():
    """An empty key under a restricted spec is a key, not a skip: only a
    statement that references no column at all has none."""
    chain = _Chain.compile(parse("SELECT t.a FROM t"), SCHEMA, AFFINITY)
    assert chain.key(("group_by",)) == frozenset()
    assert _Chain.compile(parse("SELECT COUNT(*) FROM t"), SCHEMA, AFFINITY).key(SWGO) is None
