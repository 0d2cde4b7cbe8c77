"""Tests for workload queries, containers, and windowing."""

import pytest

from repro.workload.query import WorkloadQuery
from repro.workload.windows import shared_template_fraction, split_windows
from repro.workload.workload import SEPARATE, Workload, template_key


def q(sql: str, day: float = 0.0, freq: float = 1.0) -> WorkloadQuery:
    return WorkloadQuery(sql=sql, timestamp=day, frequency=freq)


class TestWorkloadQuery:
    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            WorkloadQuery(sql="SELECT a FROM t", frequency=0)

    def test_rejects_nan_frequency(self):
        with pytest.raises(ValueError):
            WorkloadQuery(sql="SELECT a FROM t", frequency=float("nan"))

    def test_template_extraction(self):
        query = q("SELECT t.a FROM t WHERE t.b = 1")
        assert query.template.union == frozenset({"t.a", "t.b"})

    def test_with_frequency(self):
        query = q("SELECT t.a FROM t", day=3.5)
        copy = query.with_frequency(5.0)
        assert copy.frequency == 5.0
        assert copy.timestamp == 3.5
        assert copy.sql == query.sql


class TestWorkload:
    def test_total_weight(self):
        workload = Workload([q("SELECT t.a FROM t", freq=2), q("SELECT t.b FROM t", freq=3)])
        assert workload.total_weight == 5.0

    def test_collapsed_merges_identical_sql(self):
        workload = Workload([q("SELECT t.a FROM t"), q("SELECT t.a FROM t"), q("SELECT t.b FROM t")])
        collapsed = workload.collapsed()
        assert len(collapsed) == 2
        weights = collapsed.normalized_weights()
        assert weights["SELECT t.a FROM t"] == pytest.approx(2 / 3)

    def test_template_vector_normalized(self):
        workload = Workload(
            [q("SELECT t.a FROM t", freq=3), q("SELECT t.b FROM t", freq=1)]
        )
        vector = workload.template_vector()
        assert sum(vector.values()) == pytest.approx(1.0)
        assert vector[frozenset({"t.a"})] == pytest.approx(0.75)

    def test_same_template_different_literals_share_coordinate(self):
        workload = Workload(
            [
                q("SELECT t.a FROM t WHERE t.b = 1"),
                q("SELECT t.a FROM t WHERE t.b = 2"),
            ]
        )
        assert len(workload.template_vector()) == 1

    def test_empty_templates_excluded(self):
        workload = Workload([q("SELECT COUNT(*) FROM t"), q("SELECT t.a FROM t")])
        assert len(workload.template_vector()) == 1

    def test_separate_vector_uses_clause_tuples(self):
        workload = Workload([q("SELECT t.a FROM t WHERE t.b = 1")])
        key = next(iter(workload.template_vector(SEPARATE)))
        assert isinstance(key, tuple) and len(key) == 4

    def test_clause_restriction_changes_keys(self):
        first = q("SELECT t.a FROM t WHERE t.b = 1")
        second = q("SELECT t.a FROM t WHERE t.c = 1")
        workload = Workload([first, second])
        assert len(workload.template_vector(("select",))) == 1
        assert len(workload.template_vector(("select", "where"))) == 2

    def test_merged_with(self):
        first = Workload([q("SELECT t.a FROM t")])
        second = Workload([q("SELECT t.b FROM t")])
        assert len(first.merged_with(second)) == 2

    def test_span_days(self):
        workload = Workload([q("SELECT t.a FROM t", day=2.0), q("SELECT t.b FROM t", day=9.5)])
        assert workload.span_days == (2.0, 9.5)

    def test_template_key_helper(self):
        template = q("SELECT t.a FROM t WHERE t.b = 1").template
        assert template_key(template, ("select",)) == frozenset({"t.a"})
        assert template_key(template, SEPARATE)[1] == frozenset({"t.b"})


class TestWindows:
    def test_split_counts(self):
        queries = [q("SELECT t.a FROM t", day=d) for d in (0.5, 1.5, 8.0, 15.0)]
        windows = split_windows(queries, 7)
        assert [len(w) for w in windows] == [2, 1, 1]

    def test_empty_interior_windows_kept(self):
        queries = [q("SELECT t.a FROM t", day=d) for d in (0.0, 20.0)]
        windows = split_windows(queries, 7)
        assert len(windows) == 3
        assert len(windows[1]) == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            split_windows([], 0)

    def test_empty_input(self):
        assert split_windows([], 7) == []

    def test_shared_fraction_identical_windows(self):
        window = Workload([q("SELECT t.a FROM t")])
        assert shared_template_fraction(window, window) == pytest.approx(1.0)

    def test_shared_fraction_disjoint(self):
        first = Workload([q("SELECT t.a FROM t")])
        second = Workload([q("SELECT t.b FROM t")])
        assert shared_template_fraction(first, second) == 0.0

    def test_shared_fraction_is_mass_weighted(self):
        first = Workload(
            [q("SELECT t.a FROM t", freq=3), q("SELECT t.b FROM t", freq=1)]
        )
        second = Workload([q("SELECT t.a FROM t")])
        assert shared_template_fraction(first, second) == pytest.approx(0.75)
