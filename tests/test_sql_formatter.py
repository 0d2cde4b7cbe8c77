"""Formatter tests, including the hypothesis round-trip property."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sql.ast import (
    Aggregate,
    Assignment,
    BetweenPredicate,
    ColumnRef,
    ComparisonPredicate,
    DeleteStatement,
    InPredicate,
    InsertStatement,
    IsNullPredicate,
    Join,
    LikePredicate,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    UpdateStatement,
)
from repro.sql.formatter import format_statement
from repro.sql.lexer import KEYWORDS
from repro.sql.parser import parse

# -- strategies to generate random statements in the subset -----------------------

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s.upper() not in KEYWORDS
)

column_refs = st.builds(
    ColumnRef,
    name=identifiers,
    table=st.one_of(st.none(), identifiers),
)

# Every finite float, with the two ranges ``str(float)`` renders in
# exponent form (below 1e-4, from 1e16 up) drawn on purpose.
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-4, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
).flatmap(lambda x: st.sampled_from([x, -x]))
numbers = st.one_of(st.integers(-1000, 1000), floats).map(Literal)

literals = st.one_of(
    numbers,
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127),
        max_size=8,
    ).map(Literal),
    st.just(Literal(None)),
)

comparisons = st.builds(
    ComparisonPredicate,
    column=column_refs,
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=literals,
)
betweens = st.builds(
    BetweenPredicate,
    column=column_refs,
    low=numbers,
    high=numbers,
)
in_lists = st.builds(
    InPredicate,
    column=column_refs,
    values=st.lists(numbers, min_size=1, max_size=4).map(tuple),
)
likes = st.builds(
    LikePredicate,
    column=column_refs,
    pattern=st.from_regex(r"[a-z%_]{1,6}", fullmatch=True),
)
nulls = st.builds(IsNullPredicate, column=column_refs, negated=st.booleans())
predicates = st.one_of(comparisons, betweens, in_lists, likes, nulls)

aggregates = st.one_of(
    st.just(Aggregate("COUNT", None)),
    st.builds(
        Aggregate,
        func=st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]),
        column=column_refs,
        distinct=st.booleans(),
    ),
)
select_items = st.builds(
    SelectItem,
    expr=st.one_of(column_refs, aggregates),
    alias=st.one_of(st.none(), identifiers),
)

statements = st.builds(
    SelectStatement,
    select=st.lists(select_items, min_size=1, max_size=4).map(tuple),
    table=identifiers,
    joins=st.lists(
        st.builds(Join, table=identifiers, left=column_refs, right=column_refs),
        max_size=2,
    ).map(tuple),
    where=st.lists(predicates, max_size=3).map(tuple),
    group_by=st.lists(column_refs, max_size=3).map(tuple),
    order_by=st.lists(
        st.builds(OrderItem, column=column_refs, ascending=st.booleans()),
        max_size=2,
    ).map(tuple),
    limit=st.one_of(st.none(), st.integers(1, 10_000)),
)

wheres = st.lists(predicates, max_size=3).map(tuple)
inserts = st.integers(1, 4).flatmap(
    lambda width: st.builds(
        InsertStatement,
        table=identifiers,
        columns=st.lists(column_refs, min_size=width, max_size=width).map(tuple),
        rows=st.lists(
            st.lists(literals, min_size=width, max_size=width).map(tuple),
            min_size=1,
            max_size=3,
        ).map(tuple),
    )
)
updates = st.builds(
    UpdateStatement,
    table=identifiers,
    assignments=st.lists(
        st.builds(Assignment, column=column_refs, value=literals), min_size=1, max_size=3
    ).map(tuple),
    where=wheres,
)
deletes = st.builds(DeleteStatement, table=identifiers, where=wheres)


class TestRoundTrip:
    @given(st.one_of(statements, inserts, updates, deletes))
    @settings(max_examples=400, deadline=None)
    def test_parse_of_format_is_identity(self, stmt):
        parsed = parse(format_statement(stmt))
        assert parsed == stmt
        # ``Literal(5) == Literal(5.0)``; the repr also tells them apart.
        assert repr(parsed) == repr(stmt)

    @pytest.mark.parametrize(
        "value,text",
        [
            (0.00001, "1e-05"),
            (12345678901234567890.5, "1.2345678901234567e+19"),
            (-2.5e-7, "-2.5e-07"),
            (1e16, "1e+16"),
            (5e-324, "5e-324"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            # No exponent before, no exponent now: the same bytes.
            (0.0001, "0.0001"),
            (3.5, "3.5"),
            (9999999999999998.0, "9999999999999998.0"),
        ],
    )
    def test_float_literals_round_trip(self, value, text):
        for sql in (
            f"SELECT a FROM t WHERE a = {text}",
            f"SELECT a FROM t WHERE a BETWEEN {text} AND {text} AND b IN (1, {text})",
            f"INSERT INTO t (a, b) VALUES ({text}, 1)",
            f"UPDATE t SET a = {text} WHERE b < {text}",
            f"DELETE FROM t WHERE a >= {text}",
        ):
            assert format_statement(parse(sql)) == sql
        assert parse(f"SELECT a FROM t WHERE a = {text}").where[0].value == Literal(value)

    def test_known_statement_text(self):
        sql = (
            "SELECT a, SUM(t.b) AS total FROM t JOIN u ON t.k = u.k "
            "WHERE c = 5 AND d BETWEEN 1 AND 2 GROUP BY a "
            "ORDER BY a DESC LIMIT 10"
        )
        assert format_statement(parse(sql)) == sql

    def test_string_escaping_round_trips(self):
        sql = "SELECT a FROM t WHERE name = 'it''s'"
        stmt = parse(sql)
        assert parse(format_statement(stmt)) == stmt
