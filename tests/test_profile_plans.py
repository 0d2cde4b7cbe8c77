"""Shape plans in the query profiler.

A text the profiler has not seen is split at its literals; when its
shape (the text with the literals masked) has a plan, the literals are
bound to it and the text is never parsed.  Whatever the profiler saw
before, a text must profile — or fail — exactly as a cold profiler's
parse of it does.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.costing.profile as profile_module
from repro.catalog.schema import Column, Schema, Table
from repro.catalog.statistics import TableStatistics
from repro.catalog.types import ColumnType
from repro.costing.memo import BoundedMemo
from repro.costing.profile import PLAN_MEMO_ENTRIES, QueryProfiler
from repro.engine.optimizer import ColumnarCostModel
from repro.rowstore.optimizer import RowstoreCostModel
from repro.sql.analyzer import analyze
from repro.sql.lexer import LITERALS
from repro.sql.parser import parse
from tests.corpus import star_pool


def _profiler(schema: Schema) -> QueryProfiler:
    return QueryProfiler(
        schema, {name: TableStatistics.declared(t) for name, t in schema.tables.items()}
    )


def _outcome(profiler: QueryProfiler, sql: str):
    """The profile of ``sql``, or its error as ``(type, message)``."""
    try:
        return profiler.profile(sql)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return type(error), str(error)


def _shape(sql: str) -> tuple:
    parts = LITERALS.split(sql)
    return tuple(parts[0::3]), tuple(map(bool, parts[1::3]))


@contextmanager
def _counted_parses():
    """The number of parses the profiler makes inside the block, in a
    one-element list."""
    count = [0]
    real = profile_module.parse

    def counting(sql):
        count[0] += 1
        return real(sql)

    profile_module.parse = counting
    try:
        yield count
    finally:
        profile_module.parse = real


#: NUMBER token texts: signed ints, float reprs (``1e-05``, ``-0.0``),
#: exponents past the float range and ints past it.
NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.integers(1, 9), st.integers(-400, 400)).map(lambda p: f"{p[0]}e{p[1]}"),
    st.integers(10**300, 10**320).map(str),
)
#: STRING token texts holding digits, quotes and non-ASCII characters.
STRINGS = st.text(alphabet="ab9 '%_é٣", max_size=6).map(
    lambda s: "'" + s.replace("'", "''") + "'"
)


@pytest.mark.parametrize("family", ["r1", "htap", "ecommerce"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_warm_profiler_profiles_like_a_cold_one(family, data):
    schema, sqls = star_pool(family, limit=80)
    first = data.draw(st.sampled_from(sqls))
    parts = LITERALS.split(first)
    for k in range(len(parts) // 3):
        string = parts[3 * k + 1] is not None
        if data.draw(st.integers(0, 5)) == 0:  # now and then, the other kind
            string = not string
        parts[3 * k + 1 : 3 * k + 3] = [data.draw(STRINGS if string else NUMBERS), None]
    second = "".join(part for part in parts if part is not None)

    warm = _profiler(schema)
    warm.profile(first)
    with _counted_parses() as parses:
        outcome = _outcome(warm, second)
    assert outcome == _outcome(_profiler(schema), second)
    if _shape(second) == _shape(first) and not isinstance(outcome, tuple):
        assert parses[0] == 0  # bound to the plan, never parsed


@pytest.fixture
def edge_schema() -> Schema:
    schema = Schema()
    schema.add_table(
        Table(
            "t",
            [
                Column("x", ColumnType.INT, ndv=100),
                Column("attr_09", ColumnType.INT, ndv=1000),
                Column("s", ColumnType.STRING, ndv=10),
            ],
            row_count=10_000,
        )
    )
    return schema


#: ``(warming text, text)``: the second profiled after the first.
EDGES = [
    ("SELECT x FROM t WHERE x = 5", "SELECT x FROM t WHERE x = 5-3"),
    ("SELECT x FROM t WHERE x = 5", "SELECT x FROM t WHERE x=-5"),
    ("SELECT x FROM t WHERE x=-5", "SELECT x FROM t WHERE x=-70"),
    ("SELECT x FROM t WHERE x < 10", "SELECT x FROM t WHERE x < 1e5"),
    ("SELECT x FROM t WHERE attr_09 < 10", "SELECT x FROM t WHERE attr_09 < 1e5"),
    ("SELECT x FROM t WHERE attr_09 < 10", "SELECT x FROM t WHERE attr_09 < 1E-5"),
    (
        "SELECT attr_09 FROM t WHERE attr_09 BETWEEN 1 AND 2",
        "SELECT attr_09 FROM t WHERE attr_09 BETWEEN -1.5 AND 2e2",
    ),
    ("SELECT x FROM t WHERE s = 'a'", "SELECT x FROM t WHERE s = 'it''s 12'"),
    ("SELECT x FROM t WHERE s = 'a'", "SELECT x FROM t WHERE s = '5'"),
    ("SELECT x FROM t WHERE s = 'a'", "SELECT x FROM t WHERE s = ''''"),
    ("SELECT x FROM t WHERE s < 'a'", "SELECT x FROM t WHERE s < 12"),
    ("SELECT x FROM t WHERE x < 5", "SELECT x FROM t WHERE x < ٣٤"),
    ("SELECT x FROM t WHERE x < 5", "SELECT x FROM t WHERE x < ²"),
    ("SELECT x FROM t WHERE x = 5", "SELECT x FROM t WHERE x = " + "9" * 400),
    ("SELECT x FROM t WHERE x = 5", "SELECT x FROM t WHERE x = " + "9" * 5000),
    ("SELECT x FROM t WHERE s LIKE 'a%'", "SELECT x FROM t WHERE s LIKE 5"),
    ("SELECT x FROM t WHERE x IN (1, 2)", "SELECT x FROM t WHERE x IN (1, 2, 3)"),
    ("SELECT x FROM t WHERE x IN (1, 2)", "SELECT x FROM t WHERE x IN (7, 'b')"),
    ("SELECT x FROM t WHERE x < 5 LIMIT 10", "SELECT x FROM t WHERE x < 50 LIMIT 2.9"),
    ("SELECT x FROM t LIMIT 10", "SELECT x FROM t LIMIT 1e400"),
    ("SELECT x FROM t LIMIT 10", "SELECT x FROM t LIMIT 'ten'"),
    ("SELECT x FROM t WHERE s = 'a'", "SELECT x FROM t WHERE s = 'a"),
    ("SELECT x FROM t WHERE x = NULL", "SELECT x FROM t WHERE x = TRUE"),
    ("UPDATE t SET x = 1 WHERE attr_09 > 5", "UPDATE t SET x = 'q' WHERE attr_09 > 50"),
    ("DELETE FROM t WHERE x <= 3", "DELETE FROM t WHERE x <= 30"),
    ("INSERT INTO t (x, s) VALUES (1, 'a')", "INSERT INTO t (x, s) VALUES (2, 'b')"),
]


@pytest.mark.parametrize("first,second", EDGES)
def test_lexer_edges_profile_like_a_cold_parse(edge_schema, first, second):
    warm = _profiler(edge_schema)
    warm.profile(first)
    assert _outcome(warm, second) == _outcome(_profiler(edge_schema), second)


@pytest.mark.parametrize(
    "first,second,same_shape",
    [
        # The plan of LIMIT 10 reads 1e400 and fails to bind it.
        ("SELECT x FROM t LIMIT 10", "SELECT x FROM t LIMIT 1e400", True),
        # The split finds no literal in an unterminated string.
        ("SELECT x FROM t WHERE s = 'a'", "SELECT x FROM t WHERE s = 'a", False),
    ],
)
def test_errors_are_the_parse_s_own(edge_schema, first, second, same_shape):
    with pytest.raises(ValueError) as parsed:
        parse(second)
    warm = _profiler(edge_schema)
    warm.profile(first)
    assert (_shape(first) == _shape(second)) is same_shape
    with pytest.raises(type(parsed.value)) as profiled:
        warm.profile(second)
    assert str(profiled.value) == str(parsed.value)


def test_a_shape_is_parsed_once(edge_schema):
    profiler = _profiler(edge_schema)
    texts = [f"SELECT x FROM t WHERE x < {i} AND s = 'v{i}' LIMIT {i + 1}" for i in range(20)]
    with _counted_parses() as parses:
        profiles = [profiler.profile(sql) for sql in texts]
    assert parses[0] == 1
    assert len(profiler._plans) == 1
    assert [p.limit for p in profiles] == list(range(1, 21))
    cold = [_profiler(edge_schema).profile(sql) for sql in texts]
    assert profiles == cold


def test_plan_memo_is_bounded_and_per_profiler(edge_schema):
    profiler = _profiler(edge_schema)
    assert isinstance(profiler._plans, BoundedMemo)
    assert profiler._plans.max_entries == PLAN_MEMO_ENTRIES
    profiler.profile("SELECT x FROM t WHERE x = 1")
    assert len(_profiler(edge_schema)._plans) == 0


def test_a_given_statement_leaves_the_plan_memo_alone(edge_schema):
    profiler = _profiler(edge_schema)
    sql = "SELECT x FROM t WHERE x = 1"
    profiler.profile(sql, parse(sql))
    assert len(profiler._plans) == 0


def test_annotate_keeps_one_plan_per_shape(edge_schema):
    profiler = _profiler(edge_schema)
    texts = [f"SELECT x FROM t WHERE x < {i} AND s = 'v{i}'" for i in range(10)]
    texts += [f"DELETE FROM t WHERE x <= {i}" for i in range(10)]
    with _counted_parses() as parses:
        annotated = [profiler.annotate(sql) for sql in texts]
    assert parses[0] == 2
    assert len(profiler._plans) == 2
    assert len(profiler._profiles) == 0
    cold = [_profiler(edge_schema).profile(sql) for sql in texts]
    assert [profile for profile, _ in annotated] == cold


def test_a_stream_of_new_shapes_keeps_at_most_the_bound(edge_schema):
    """Annotating a stream whose every text is a new shape keeps the
    newest PLAN_MEMO_ENTRIES plans and no profile; an evicted shape's
    next text is parsed again and profiles as a cold parse does."""
    profiler = _profiler(edge_schema)
    texts = [f"SELECT SUM(x) AS a{i} FROM t WHERE x < {i}" for i in range(PLAN_MEMO_ENTRIES + 10)]
    for sql in texts:
        profiler.annotate(sql)
    assert len(profiler._plans) == PLAN_MEMO_ENTRIES
    assert profiler._plans.evictions == 10
    assert len(profiler._profiles) == 0
    evicted, kept = texts[0].replace("< 0", "< 7"), texts[-1].replace("< ", "< 1")
    cold = {sql: _profiler(edge_schema).profile(sql) for sql in (evicted, kept)}
    with _counted_parses() as parses:
        assert profiler.annotate(kept)[0] == cold[kept]
        assert parses[0] == 0
        assert profiler.annotate(evicted)[0] == cold[evicted]
        assert parses[0] == 1
    assert len(profiler._plans) == PLAN_MEMO_ENTRIES


@pytest.mark.parametrize("family", ["r1", "htap", "ecommerce"])
@pytest.mark.parametrize("engine", [ColumnarCostModel, RowstoreCostModel])
def test_annotate_equals_profile_and_analyze(family, engine):
    """Every corpus text annotates, cold and warm, to its profile and to
    the template of its parse: a plan's template reads no literal."""
    schema, sqls = star_pool(family)
    reference = engine(schema)
    expected = {sql: (reference.profile(sql), analyze(parse(sql))) for sql in sqls}
    for sql in sqls:
        assert engine(schema).annotate(sql) == expected[sql]
    warm = engine(schema)
    for _ in range(2):  # planning each shape's first text, then all bound
        for sql in sqls:
            assert warm.annotate(sql) == expected[sql]
    assert len(warm.profiler._plans) < len(sqls)
