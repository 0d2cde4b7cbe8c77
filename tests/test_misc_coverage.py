"""Additional coverage: design rendering, move variants, window options,
distance internals, and reporting formats."""

import pytest

from repro.core.move import move_workload
from repro.harness.reporting import format_series, format_table
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.workload.distance import WorkloadDistance
from repro.workload.query import WorkloadQuery
from repro.workload.windows import split_windows
from repro.workload.workload import Workload


def q(sql, freq=1.0, day=0.0):
    return WorkloadQuery(sql=sql, frequency=freq, timestamp=day)


class TestDesignRendering:
    def test_index_and_view_ddl(self):
        assert Index("t", ("a", "b")).to_sql() == "CREATE INDEX idx_t_a_b ON t (a, b)"
        ddl = MaterializedView("t", ("a",), ("m",)).to_sql()
        assert ddl.startswith("CREATE MATERIALIZED VIEW")
        assert "GROUP BY a" in ddl


class TestMoveVariants:
    BASE = Workload([q("SELECT t.a FROM t", 3)])
    NEIGHBOR = Workload([q("SELECT t.a FROM t", 3), q("SELECT t.b FROM t", 2)])
    COSTS = {"SELECT t.a FROM t": 10.0, "SELECT t.b FROM t": 500.0}

    def test_keep_base_false_drops_anchor(self):
        moved = move_workload(
            self.BASE, [self.NEIGHBOR], self.COSTS.get, alpha=1.0, keep_base=False
        )
        weights = {x.sql: x.frequency for x in moved}
        anchored = move_workload(
            self.BASE, [self.NEIGHBOR], self.COSTS.get, alpha=1.0, keep_base=True
        )
        weights_anchored = {x.sql: x.frequency for x in anchored}
        # Without the anchor, the base query's weight is purely its
        # neighbor contribution — strictly less than with the anchor.
        assert weights["SELECT t.a FROM t"] < weights_anchored["SELECT t.a FROM t"]

    def test_no_neighbors_returns_base_weights(self):
        moved = move_workload(self.BASE, [], self.COSTS.get, alpha=1.0)
        assert {x.sql for x in moved} == {"SELECT t.a FROM t"}
        assert moved.total_weight == pytest.approx(1.0)  # normalized


class TestWindowOptions:
    def test_explicit_start_day(self):
        queries = [q("SELECT t.a FROM t", day=d) for d in (10.0, 16.0)]
        aligned = split_windows(queries, 7, start_day=7.0)
        assert [len(w) for w in aligned] == [1, 1]

    def test_queries_before_start_are_dropped(self):
        queries = [q("SELECT t.a FROM t", day=d) for d in (1.0, 10.0)]
        windows = split_windows(queries, 7, start_day=7.0)
        assert sum(len(w) for w in windows) == 1


class TestDistanceInternals:
    def test_template_keys_respects_clause_spec(self):
        workload = Workload([q("SELECT t.a FROM t WHERE t.b = 1")])
        union_metric = WorkloadDistance(8, ("select", "where"))
        keys = union_metric.template_keys(workload)
        assert keys == {frozenset({"t.a", "t.b"})}

    def test_too_many_columns_rejected(self):
        metric = WorkloadDistance(1)
        first = Workload([q("SELECT t.a FROM t")])
        second = Workload([q("SELECT t.b FROM t")])
        with pytest.raises(ValueError):
            metric(first, second)

    def test_cross_term_symmetry(self):
        metric = WorkloadDistance(8)
        a = Workload([q("SELECT t.a FROM t")])
        b = Workload([q("SELECT t.b FROM t")])
        assert metric.cross_term(a, b) == pytest.approx(metric.cross_term(b, a))


class TestReportingFormats:
    def test_large_and_small_numbers(self):
        text = format_table(["v"], [[1234567.0], [0.00012], [3.5]])
        assert "1,234,567" in text
        assert "0.00012" in text
        assert "3.50" in text

    def test_series_labels_align(self):
        text = format_series("x", "y", [("aa", 1.0), ("b", 2.0)])
        lines = [l for l in text.splitlines() if "|" in l]
        assert lines[0].index("|") == lines[1].index("|")

    def test_table_without_title(self):
        text = format_table(["h"], [[1]])
        assert text.splitlines()[0].startswith("h")
