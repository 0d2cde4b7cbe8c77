"""Edge-case tests for both engines' cost models."""

import pytest

from repro.engine.design import PhysicalDesign
from repro.engine.optimizer import ColumnarCostModel
from repro.engine.projection import Projection, SortColumn
from repro.rowstore.design import RowstoreDesign
from repro.rowstore.index import Index
from repro.rowstore.optimizer import RowstoreCostModel


@pytest.fixture
def columnar(sales_schema) -> ColumnarCostModel:
    return ColumnarCostModel(sales_schema)


@pytest.fixture
def rowstore(sales_schema) -> RowstoreCostModel:
    return RowstoreCostModel(sales_schema)


class TestColumnarEdges:
    def test_order_by_matching_sort_is_free(self, columnar):
        sql = "SELECT sales.day, sales.amount FROM sales ORDER BY sales.day"
        sorted_proj = Projection("sales", ("day", "amount"), (SortColumn("day"),))
        unsorted_proj = Projection("sales", ("amount", "day"), (SortColumn("amount"),))
        profile = columnar.profile(sql)
        free = columnar.projection_cost(profile, sorted_proj)
        paid = columnar.projection_cost(profile, unsorted_proj)
        assert free < paid

    def test_eq_after_range_breaks_prefix(self, columnar):
        # Sort key (day, store): a range on day consumes the prefix, so the
        # equality on store cannot further narrow the scanned range.
        sql = (
            "SELECT sales.amount FROM sales "
            "WHERE sales.day BETWEEN 0 AND 3 AND sales.store = 1"
        )
        range_first = Projection(
            "sales", ("day", "store", "amount"), (SortColumn("day"), SortColumn("store"))
        )
        eq_first = Projection(
            "sales", ("store", "day", "amount"), (SortColumn("store"), SortColumn("day"))
        )
        profile = columnar.profile(sql)
        assert columnar.projection_cost(profile, eq_first) < columnar.projection_cost(
            profile, range_first
        )

    def test_wrong_table_projection_returns_none(self, columnar):
        sql = "SELECT sales.amount FROM sales"
        projection = Projection("stores", ("region",), (SortColumn("region"),))
        assert columnar.projection_cost(columnar.profile(sql), projection) is None

    def test_dimension_benefits_from_dim_projection(self, columnar):
        sql = (
            "SELECT SUM(sales.amount) FROM sales "
            "JOIN stores ON sales.store = stores.store_id WHERE stores.region = 2"
        )
        dim_proj = Projection(
            "stores", ("region", "store_id"), (SortColumn("region"),)
        )
        with_dim = columnar.query_cost(sql, PhysicalDesign.of(dim_proj))
        without = columnar.query_cost(sql, PhysicalDesign.empty())
        assert with_dim <= without


class TestRowstoreEdges:
    def test_range_column_terminates_seek(self, rowstore):
        index = Index("sales", ("day", "store"))
        sql = (
            "SELECT sales.amount FROM sales "
            "WHERE sales.day BETWEEN 0 AND 10 AND sales.store = 1"
        )
        profile = rowstore.profile(sql)
        depth, used_range = index.seek_prefix(
            set(profile.anchor.eq_map), set(profile.anchor.range_map)
        )
        assert (depth, used_range) == (1, True)

    def test_index_on_unfiltered_column_useless(self, rowstore):
        sql = "SELECT sales.amount FROM sales WHERE sales.store = 1"
        useless = RowstoreDesign.of(Index("sales", ("day", "store")))
        # 'day' leads the index but carries no predicate → no seek.
        assert rowstore.query_cost(sql, useless) == pytest.approx(
            rowstore.query_cost(sql, RowstoreDesign.empty())
        )

    def test_scan_cost_scales_with_row_width(self, sales_schema):
        # The row store reads whole rows: the same query costs more than on
        # the columnar engine, which reads only the needed columns.
        from repro.engine.optimizer import ColumnarCostModel

        row_model = RowstoreCostModel(sales_schema)
        col_model = ColumnarCostModel(sales_schema)
        sql = "SELECT sales.amount FROM sales"
        assert row_model.query_cost(sql, RowstoreDesign.empty()) > col_model.query_cost(
            sql, PhysicalDesign.empty()
        )
