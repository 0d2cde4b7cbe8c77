"""Row-store substrate tests: indices, views, cost model, real structures."""

import numpy as np
import pytest

from repro.rowstore.design import RowstoreDesign
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.rowstore.optimizer import RowstoreCostModel
from repro.rowstore.storage import RowstoreDatabase, RowstoreExecutor


@pytest.fixture
def model(sales_schema) -> RowstoreCostModel:
    return RowstoreCostModel(sales_schema)


class TestIndex:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            Index("t", ())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Index("t", ("a", "a"))

    def test_seek_prefix_equalities(self):
        index = Index("t", ("a", "b", "c"))
        depth, used_range = index.seek_prefix({"a", "b"}, set())
        assert (depth, used_range) == (2, False)

    def test_seek_prefix_range_terminates(self):
        index = Index("t", ("a", "b", "c"))
        depth, used_range = index.seek_prefix({"a"}, {"b"})
        assert (depth, used_range) == (2, True)

    def test_seek_prefix_gap_stops(self):
        index = Index("t", ("a", "b", "c"))
        depth, _ = index.seek_prefix({"c"}, set())  # a missing → useless
        assert depth == 0

    def test_size_includes_overhead(self, sales_schema):
        table = sales_schema.table("sales")
        index = Index("sales", ("store",))
        assert index.size_bytes(table) == 5000 * (8 + 12)


class TestMaterializedView:
    def test_requires_group_columns(self):
        with pytest.raises(ValueError):
            MaterializedView("t", (), ("m",))

    def test_group_measure_overlap_rejected(self):
        with pytest.raises(ValueError):
            MaterializedView("t", ("a",), ("a",))

    def test_answers_matching_aggregate(self, model):
        view = MaterializedView("sales", ("store", "product"), ("amount",))
        profile = model.profile(
            "SELECT sales.store, SUM(sales.amount) FROM sales "
            "WHERE sales.product = 3 GROUP BY sales.store"
        )
        assert view.answers(profile)

    def test_rejects_filter_on_non_group_column(self, model):
        view = MaterializedView("sales", ("store",), ("amount",))
        profile = model.profile(
            "SELECT sales.store, SUM(sales.amount) FROM sales "
            "WHERE sales.day = 3 GROUP BY sales.store"
        )
        assert not view.answers(profile)

    def test_rejects_uncovered_measure(self, model):
        view = MaterializedView("sales", ("store",), ("amount",))
        profile = model.profile(
            "SELECT sales.store, SUM(sales.day) FROM sales GROUP BY sales.store"
        )
        assert not view.answers(profile)

    def test_rejects_non_aggregate_query(self, model):
        view = MaterializedView("sales", ("store",), ("amount",))
        profile = model.profile("SELECT sales.store FROM sales")
        assert not view.answers(profile)

    def test_rejects_distinct_aggregates(self, model):
        view = MaterializedView("sales", ("store",), ("amount",))
        profile = model.profile(
            "SELECT COUNT(DISTINCT sales.amount) FROM sales GROUP BY sales.store"
        )
        assert not view.answers(profile)

    def test_rejects_joins(self, model):
        view = MaterializedView("sales", ("store",), ("amount",))
        profile = model.profile(
            "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.store = stores.store_id "
            "GROUP BY sales.store"
        )
        assert not view.answers(profile)

    def test_estimated_rows_product_of_ndv(self, model):
        view = MaterializedView("sales", ("store", "flag"), ("amount",))
        rows = view.estimated_rows(model.statistics["sales"])
        assert rows == 50 * 2


class TestRowstoreCostModel:
    def test_index_beats_scan_for_selective_filter(self, model):
        sql = "SELECT sales.amount FROM sales WHERE sales.product = 7"
        scan = model.query_cost(sql, RowstoreDesign.empty())
        indexed = model.query_cost(sql, RowstoreDesign.of(Index("sales", ("product",))))
        assert indexed < scan

    def test_covering_index_beats_plain_index(self, model):
        sql = "SELECT sales.amount FROM sales WHERE sales.product = 7"
        plain = model.query_cost(sql, RowstoreDesign.of(Index("sales", ("product",))))
        covering = model.query_cost(
            sql, RowstoreDesign.of(Index("sales", ("product", "amount")))
        )
        assert covering < plain

    def test_view_beats_index_for_aggregates(self, model):
        sql = (
            "SELECT sales.store, SUM(sales.amount) FROM sales GROUP BY sales.store"
        )
        design_view = RowstoreDesign.of(MaterializedView("sales", ("store",), ("amount",)))
        design_index = RowstoreDesign.of(Index("sales", ("store",)))
        assert model.query_cost(sql, design_view) < model.query_cost(sql, design_index)

    def test_useless_structures_ignored(self, model):
        sql = "SELECT sales.amount FROM sales WHERE sales.product = 7"
        useless = RowstoreDesign.of(Index("sales", ("day",)))
        assert model.query_cost(sql, useless) == pytest.approx(
            model.query_cost(sql, RowstoreDesign.empty())
        )

    def test_choose_path(self, model):
        sql = "SELECT sales.amount FROM sales WHERE sales.product = 7"
        index = Index("sales", ("product", "amount"))
        design = RowstoreDesign.of(index, Index("sales", ("day",)))
        assert model.choose_path(model.profile(sql), design) == index

    def test_full_scan_when_empty(self, model):
        sql = "SELECT sales.amount FROM sales"
        assert model.choose_path(model.profile(sql), RowstoreDesign.empty()) is None


class TestRowstoreDesign:
    def test_of_partitions_structures(self):
        index = Index("t", ("a",))
        view = MaterializedView("t", ("a",), ("b",))
        design = RowstoreDesign.of(index, view)
        assert design.indices == frozenset({index})
        assert design.views == frozenset({view})
        assert len(design) == 2

    def test_price_sums_components(self, sales_schema, model):
        index = Index("sales", ("store",))
        view = MaterializedView("sales", ("store",), ("amount",))
        design = RowstoreDesign.of(index, view)
        table = sales_schema.table("sales")
        expected = index.size_bytes(table) + view.size_bytes(
            table, model.statistics["sales"]
        )
        assert design.price(sales_schema, model.statistics) == expected


class TestRealStructures:
    def test_index_seek_matches_mask(self, sales_schema, sales_data):
        database = RowstoreDatabase(sales_schema, sales_data)
        index_data = database.index_data(Index("sales", ("store", "day")))
        seek = index_data.seek_equal("store", 3)
        truth = np.nonzero(sales_data["sales"]["store"] == 3)[0]
        assert sorted(seek.tolist()) == sorted(truth.tolist())

    def test_index_range_seek(self, sales_schema, sales_data):
        database = RowstoreDatabase(sales_schema, sales_data)
        index_data = database.index_data(Index("sales", ("day",)))
        seek = index_data.seek_range("day", 10, 20)
        truth = np.nonzero(
            (sales_data["sales"]["day"] >= 10) & (sales_data["sales"]["day"] <= 20)
        )[0]
        assert sorted(seek.tolist()) == sorted(truth.tolist())

    def test_seek_on_non_leading_column_rejected(self, sales_schema, sales_data):
        database = RowstoreDatabase(sales_schema, sales_data)
        index_data = database.index_data(Index("sales", ("store", "day")))
        with pytest.raises(ValueError):
            index_data.seek_equal("day", 3)

    def test_view_contents_match_aggregation(self, sales_schema, sales_data):
        database = RowstoreDatabase(sales_schema, sales_data)
        view_data = database.view_data(
            MaterializedView("sales", ("store",), ("amount",))
        )
        store = 7
        mask = sales_data["sales"]["store"] == store
        slot = np.nonzero(view_data.groups["store"] == store)[0][0]
        assert view_data.measures["amount"]["sum"][slot] == pytest.approx(
            sales_data["sales"]["amount"][mask].sum()
        )
        assert view_data.counts[slot] == mask.sum()

    def test_executor_results_design_independent(self, sales_schema, sales_data):
        database = RowstoreDatabase(sales_schema, sales_data)
        executor = RowstoreExecutor(database)
        sql = "SELECT sales.store, SUM(sales.amount) AS t FROM sales WHERE sales.store = 3 GROUP BY sales.store"
        result_plain, path_plain = executor.execute(sql)
        design = RowstoreDesign.of(MaterializedView("sales", ("store", "product"), ("amount",)))
        result_designed, path_designed = executor.execute(sql, design)
        assert result_plain.rows[0][0] == result_designed.rows[0][0]
        assert result_plain.rows[0][1] == pytest.approx(result_designed.rows[0][1])
        assert path_plain.path is None
        assert path_designed.path is not None
        assert path_designed.rows_touched < path_plain.rows_touched

    def test_deploy_counts(self, sales_schema, sales_data):
        database = RowstoreDatabase(sales_schema, sales_data)
        design = RowstoreDesign.of(
            Index("sales", ("store",)),
            MaterializedView("sales", ("store",), ("amount",)),
        )
        assert database.deploy(design) == 2
        assert database.deploy(design) == 0
