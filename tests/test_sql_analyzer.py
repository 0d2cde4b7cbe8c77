"""Unit tests for clause-wise column extraction and templates."""

import pytest

from repro.sql.analyzer import CLAUSES, analyze, extract_template
from repro.sql.parser import parse


class TestAnalyze:
    def test_clause_separation(self):
        template = extract_template(
            "SELECT t.a, SUM(t.m) FROM t WHERE t.b = 1 GROUP BY t.a ORDER BY t.c"
        )
        assert template.select == frozenset({"t.a", "t.m"})
        assert template.where == frozenset({"t.b"})
        assert template.group_by == frozenset({"t.a"})
        assert template.order_by == frozenset({"t.c"})

    def test_union_combines_all_clauses(self):
        template = extract_template(
            "SELECT t.a FROM t WHERE t.b = 1 GROUP BY t.c ORDER BY t.d"
        )
        assert template.union == frozenset({"t.a", "t.b", "t.c", "t.d"})

    def test_join_keys_count_as_where(self):
        template = extract_template("SELECT t.a FROM t JOIN u ON t.k = u.k")
        assert "t.k" in template.where
        assert "u.k" in template.where

    def test_count_star_contributes_nothing(self):
        template = extract_template("SELECT COUNT(*) FROM t")
        assert template.is_empty

    def test_literals_do_not_matter(self):
        first = extract_template("SELECT t.a FROM t WHERE t.b = 1")
        second = extract_template("SELECT t.a FROM t WHERE t.b = 999")
        assert first == second

    def test_different_columns_differ(self):
        first = extract_template("SELECT t.a FROM t WHERE t.b = 1")
        second = extract_template("SELECT t.a FROM t WHERE t.c = 1")
        assert first != second

    def test_select_star_is_empty_column_set(self):
        # ``SELECT *`` has no explicit columns; the analyzer reports none
        # (the paper drops such queries from the vectors).
        template = analyze(parse("SELECT * FROM t"))
        assert template.select == frozenset()


class TestTemplateApi:
    def test_clause_accessor(self):
        template = extract_template("SELECT t.a FROM t WHERE t.b = 1")
        assert template.clause("select") == frozenset({"t.a"})
        assert template.clause("where") == frozenset({"t.b"})

    def test_clause_accessor_rejects_unknown(self):
        template = extract_template("SELECT t.a FROM t")
        with pytest.raises(KeyError):
            template.clause("having")

    def test_restricted_union(self):
        template = extract_template(
            "SELECT t.a FROM t WHERE t.b = 1 GROUP BY t.c"
        )
        assert template.restricted(("select", "where")) == frozenset({"t.a", "t.b"})

    def test_clauses_constant_matches_fields(self):
        template = extract_template("SELECT t.a FROM t")
        for name in CLAUSES:
            template.clause(name)  # must not raise

    def test_templates_are_hashable_dict_keys(self):
        a = extract_template("SELECT t.a FROM t")
        b = extract_template("SELECT t.a FROM t WHERE t.b = 2")
        mapping = {a: 1, b: 2}
        assert mapping[extract_template("SELECT t.a FROM t")] == 1

    def test_extract_template_cached(self):
        sql = "SELECT t.a FROM t WHERE t.b = 7"
        assert extract_template(sql) is extract_template(sql)
