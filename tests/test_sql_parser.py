"""Unit tests for the SQL parser."""

import pytest

from repro.sql.ast import (
    Aggregate,
    BetweenPredicate,
    ColumnRef,
    ComparisonPredicate,
    InPredicate,
    IsNullPredicate,
    LikePredicate,
)
from repro.sql.parser import ParseError, parse


class TestSelectList:
    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.select_star
        assert stmt.table == "t"

    def test_plain_columns(self):
        stmt = parse("SELECT a, t.b FROM t")
        assert stmt.select[0].expr == ColumnRef("a")
        assert stmt.select[1].expr == ColumnRef("b", "t")

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(x), AVG(t.y) FROM t")
        aggs = [item.expr for item in stmt.select]
        assert aggs[0] == Aggregate("COUNT", None)
        assert aggs[1] == Aggregate("SUM", ColumnRef("x"))
        assert aggs[2] == Aggregate("AVG", ColumnRef("y", "t"))

    def test_count_distinct(self):
        stmt = parse("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.select[0].expr == Aggregate("COUNT", ColumnRef("a"), distinct=True)

    def test_alias(self):
        stmt = parse("SELECT SUM(x) AS total FROM t")
        assert stmt.select[0].alias == "total"

    def test_sum_star_is_invalid(self):
        with pytest.raises(ParseError):
            parse("SELECT SUM(*) FROM t")


class TestWhere:
    def test_comparison(self):
        stmt = parse("SELECT a FROM t WHERE a = 5")
        pred = stmt.where[0]
        assert isinstance(pred, ComparisonPredicate)
        assert pred.op == "="
        assert pred.value.value == 5

    def test_float_and_string_literals(self):
        stmt = parse("SELECT a FROM t WHERE x > 1.5 AND y = 'abc'")
        assert stmt.where[0].value.value == 1.5
        assert stmt.where[1].value.value == "abc"

    def test_between(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 10")
        pred = stmt.where[0]
        assert isinstance(pred, BetweenPredicate)
        assert (pred.low.value, pred.high.value) == (1, 10)

    def test_in_list(self):
        stmt = parse("SELECT a FROM t WHERE a IN (1, 2, 3)")
        pred = stmt.where[0]
        assert isinstance(pred, InPredicate)
        assert [v.value for v in pred.values] == [1, 2, 3]

    def test_like(self):
        stmt = parse("SELECT a FROM t WHERE name LIKE 'foo%'")
        assert isinstance(stmt.where[0], LikePredicate)
        assert stmt.where[0].pattern == "foo%"

    def test_is_null_and_is_not_null(self):
        stmt = parse("SELECT a FROM t WHERE x IS NULL AND y IS NOT NULL")
        assert isinstance(stmt.where[0], IsNullPredicate)
        assert not stmt.where[0].negated
        assert stmt.where[1].negated

    def test_conjunction_order_preserved(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3")
        assert [p.column.name for p in stmt.where] == ["a", "b", "c"]

    def test_or_is_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t WHERE a = 1 OR b = 2")


class TestClauses:
    def test_group_by(self):
        stmt = parse("SELECT a, COUNT(*) FROM t GROUP BY a, b")
        assert [c.name for c in stmt.group_by] == ["a", "b"]

    def test_order_by_directions(self):
        stmt = parse("SELECT a FROM t ORDER BY a ASC, b DESC, c")
        assert [(o.column.name, o.ascending) for o in stmt.order_by] == [
            ("a", True),
            ("b", False),
            ("c", True),
        ]

    def test_limit(self):
        stmt = parse("SELECT a FROM t LIMIT 100")
        assert stmt.limit == 100

    def test_join(self):
        stmt = parse("SELECT a FROM t JOIN u ON t.k = u.k WHERE u.x = 1")
        assert stmt.joins[0].table == "u"
        assert stmt.joins[0].left == ColumnRef("k", "t")
        assert stmt.joins[0].right == ColumnRef("k", "u")

    def test_inner_join_keyword(self):
        stmt = parse("SELECT a FROM t INNER JOIN u ON t.k = u.k")
        assert stmt.joins[0].table == "u"

    def test_non_equi_join_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t JOIN u ON t.k < u.k")

    def test_multiple_joins(self):
        stmt = parse("SELECT a FROM t JOIN u ON t.k = u.k JOIN v ON t.j = v.j")
        assert [j.table for j in stmt.joins] == ["u", "v"]


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT FROM t",
            "SELECT a",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t GROUP a",
            "SELECT a FROM t trailing garbage",
            "FROM t SELECT a",
        ],
    )
    def test_malformed_statements_raise(self, sql):
        with pytest.raises(ParseError):
            parse(sql)

    def test_error_mentions_position(self):
        with pytest.raises(ParseError) as exc:
            parse("SELECT a FROM t WHERE = 5")
        assert "position" in str(exc.value)

    @pytest.mark.parametrize("number", ["1e400", "9e999", "-1E+309"])
    def test_infinite_limit_is_a_parse_error_at_the_number(self, number):
        # float() reads these as ±infinity, which int() refuses with an
        # OverflowError — outside the ValueError contract callers catch.
        sql = f"SELECT a FROM t LIMIT {number}"
        with pytest.raises(ParseError) as exc:
            parse(sql)
        assert exc.value.token.position == sql.index(number)
        assert exc.value.token.value == number

    def test_large_finite_limit_still_parses(self):
        assert parse("SELECT a FROM t LIMIT 1e300").limit == int(1e300)
