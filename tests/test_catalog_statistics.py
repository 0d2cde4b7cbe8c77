"""Unit and property tests for statistics and selectivity estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, Schema, Table
from repro.catalog.statistics import ColumnStatistics, TableStatistics
from repro.catalog.types import ColumnType
from repro.costing.profile import QueryProfiler
from repro.sql.parser import parse


def pred_of(sql_where: str):
    """Parse a single predicate from a WHERE fragment."""
    return parse(f"SELECT a FROM t WHERE {sql_where}").where[0]


@pytest.fixture
def stats() -> TableStatistics:
    table = Table(
        "t",
        [
            Column("a", ColumnType.INT, ndv=100),
            Column("day", ColumnType.DATE, ndv=365),
            Column("flag", ColumnType.BOOL),
            Column("name", ColumnType.STRING, ndv=10),
        ],
        row_count=10_000,
    )
    return TableStatistics.declared(table)


class TestDeclaredStatistics:
    def test_ndv_capped_by_rows(self):
        column = Column("a", ColumnType.INT, ndv=10**9)
        stats = ColumnStatistics.declared(column, row_count=500)
        assert stats.ndv == 500

    def test_bool_ndv_is_two(self):
        column = Column("f", ColumnType.BOOL)
        assert ColumnStatistics.declared(column, 1000).ndv == 2


class TestMeasuredStatistics:
    def test_matches_actual_data(self):
        values = np.array([1, 1, 2, 3, 3, 3, 10], dtype=np.float64)
        stats = ColumnStatistics.measured(values)
        assert stats.ndv == 4
        assert stats.min_value == 1.0
        assert stats.max_value == 10.0

    def test_histogram_mass_normalized(self):
        rng = np.random.default_rng(0)
        stats = ColumnStatistics.measured(rng.uniform(0, 100, size=5000))
        assert stats.histogram is not None
        assert stats.histogram.sum() == pytest.approx(1.0)

    def test_empty_column(self):
        stats = ColumnStatistics.measured(np.array([], dtype=np.float64))
        assert stats.ndv == 1

    @given(st.lists(st.integers(0, 50), min_size=30, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_range_fraction_tracks_empirical_fraction(self, values):
        data = np.array(values, dtype=np.float64)
        if np.unique(data).size < 5:
            return  # degenerate distributions break equi-width bins
        stats = ColumnStatistics.measured(data)
        lo, hi = 10.0, 30.0
        estimated = stats.range_fraction(lo, hi)
        actual = np.mean((data >= lo) & (data <= hi))
        # Histogram estimates are approximate: values sitting exactly on a
        # bin edge can shift by one bin's worth of mass either way.
        assert abs(estimated - actual) <= 0.40


class TestSelectivity:
    def test_equality(self, stats):
        assert stats.predicate_selectivity(pred_of("a = 5")) == pytest.approx(0.01)

    def test_inequality_complements_equality(self, stats):
        eq = stats.predicate_selectivity(pred_of("a = 5"))
        ne = stats.predicate_selectivity(pred_of("a != 5"))
        assert eq + ne == pytest.approx(1.0)

    def test_range_fraction_of_domain(self, stats):
        sel = stats.predicate_selectivity(pred_of("day BETWEEN 0 AND 36"))
        assert 0.05 <= sel <= 0.15

    def test_open_range(self, stats):
        sel = stats.predicate_selectivity(pred_of("day < 182"))
        assert 0.4 <= sel <= 0.6

    def test_in_list_scales_with_size(self, stats):
        one = stats.predicate_selectivity(pred_of("a IN (1)"))
        three = stats.predicate_selectivity(pred_of("a IN (1, 2, 3)"))
        assert three == pytest.approx(3 * one)

    def test_in_list_capped_at_one(self, stats):
        values = ", ".join(str(i) for i in range(500))
        sel = stats.predicate_selectivity(pred_of(f"a IN ({values})"))
        assert sel == 1.0

    def test_unknown_column_is_conservative(self, stats):
        assert stats.predicate_selectivity(pred_of("zzz = 1")) == 1.0

    def test_conjunction_multiplies(self, stats):
        # A profile's total_selectivity is the independence-assumption
        # product of its predicates' selectivities, in WHERE order.
        sql = "SELECT a FROM t WHERE a = 5 AND day < 182 AND name = 'x'"
        preds = parse(sql).where
        schema = Schema()
        schema.add_table(Table("t", [Column(n, ColumnType.INT) for n in ("a", "day", "name")]))
        profile = QueryProfiler(schema, {"t": stats}).profile(sql)
        lone = [stats.predicate_selectivity(p) for p in preds]
        assert profile.anchor.total_selectivity == lone[0] * lone[1] * lone[2]

    def test_selectivities_always_in_unit_interval(self, stats):
        fragments = [
            "a = 1", "a != 1", "a < 50", "a >= 50", "a BETWEEN 10 AND 20",
            "a IN (1, 2)", "name LIKE 'x%'", "a IS NULL", "a IS NOT NULL",
        ]
        for fragment in fragments:
            sel = stats.predicate_selectivity(pred_of(fragment))
            assert 0.0 <= sel <= 1.0, fragment
