"""Cost-model tests: profiles, cliffs, monotonicity, and estimated-vs-real
work orderings."""

import pytest

from repro.engine.design import PhysicalDesign
from repro.engine.executor import ColumnarExecutor
from repro.engine.optimizer import ColumnarCostModel
from repro.engine.projection import Projection, SortColumn
from repro.engine.storage import ColumnarDatabase


@pytest.fixture
def model(sales_schema) -> ColumnarCostModel:
    return ColumnarCostModel(sales_schema)


class TestProfiles:
    def test_anchor_and_needed_columns(self, model):
        profile = model.profile(
            "SELECT sales.store, SUM(sales.amount) FROM sales "
            "WHERE sales.day = 5 GROUP BY sales.store"
        )
        assert profile.anchor.table == "sales"
        assert profile.anchor.needed_columns == {"store", "amount", "day"}
        assert profile.group_by == ("store",)
        assert profile.has_aggregates

    def test_eq_and_range_classification(self, model):
        profile = model.profile(
            "SELECT sales.amount FROM sales WHERE sales.store = 1 AND sales.day < 100"
        )
        assert "store" in profile.anchor.eq_map
        assert "day" in profile.anchor.range_map

    def test_dimension_access(self, model):
        profile = model.profile(
            "SELECT sales.amount FROM sales JOIN stores ON sales.store = stores.store_id "
            "WHERE stores.region = 2"
        )
        assert len(profile.dimensions) == 1
        dim = profile.dimensions[0]
        assert dim.table == "stores"
        assert "region" in dim.eq_map

    def test_unknown_columns_ignored(self, model):
        profile = model.profile("SELECT sales.amount FROM sales WHERE sales.zzz = 1")
        assert "zzz" not in profile.anchor.needed_columns
        assert profile.anchor.total_selectivity == 1.0

    def test_unknown_table_raises(self, model):
        with pytest.raises(ValueError):
            model.profile("SELECT x FROM nope")

    def test_profiles_cached_by_text(self, model):
        sql = "SELECT sales.amount FROM sales"
        assert model.profile(sql) is model.profile(sql)

    def test_group_cardinality_capped_by_rows(self, model):
        profile = model.profile(
            "SELECT sales.product, COUNT(*) FROM sales GROUP BY sales.product"
        )
        assert profile.group_cardinality <= profile.anchor.row_count


class TestCliffs:
    """The cost surface must exhibit the paper's coverage cliffs."""

    def test_covering_projection_much_cheaper(self, sales_schema):
        # Use benchmark-scale declared statistics: at tiny row counts the
        # fixed per-query overhead hides the cliff.
        from repro.catalog.schema import Schema, Table

        big = Schema()
        original = sales_schema.table("sales")
        big.add_table(Table("sales", list(original.columns), row_count=5_000_000))
        model = ColumnarCostModel(big)
        sql = "SELECT SUM(sales.amount) FROM sales WHERE sales.product = 7"
        covered = PhysicalDesign.of(
            Projection("sales", ("product", "amount"), (SortColumn("product"),))
        )
        assert model.query_cost(sql, PhysicalDesign.empty()) > 10 * model.query_cost(
            sql, covered
        )

    def test_non_covering_projection_is_ignored(self, model):
        sql = "SELECT SUM(sales.amount) FROM sales WHERE sales.product = 7"
        useless = PhysicalDesign.of(
            Projection("sales", ("product", "day"), (SortColumn("product"),))
        )  # covers product but not amount
        assert model.query_cost(sql, useless) == pytest.approx(
            model.query_cost(sql, PhysicalDesign.empty())
        )

    def test_wrong_sort_order_gives_no_prefix_benefit(self, model):
        sql = "SELECT SUM(sales.amount) FROM sales WHERE sales.product = 7"
        wrong_sort = PhysicalDesign.of(
            Projection("sales", ("day", "product", "amount"), (SortColumn("day"),))
        )
        right_sort = PhysicalDesign.of(
            Projection("sales", ("product", "amount"), (SortColumn("product"),))
        )
        assert model.query_cost(sql, right_sort) < model.query_cost(sql, wrong_sort)

    def test_design_never_hurts(self, model):
        """Adding structures can only reduce estimated cost (min-choice)."""
        sql = "SELECT sales.store, SUM(sales.amount) FROM sales WHERE sales.day < 50 GROUP BY sales.store"
        empty_cost = model.query_cost(sql, PhysicalDesign.empty())
        projections: list[Projection] = []
        for projection in [
            Projection("sales", ("day", "store", "amount"), (SortColumn("day"),)),
            Projection("sales", ("store", "day", "amount"), (SortColumn("store"),)),
        ]:
            projections.append(projection)
            design = PhysicalDesign.of(*projections)
            assert model.query_cost(sql, design) <= empty_cost + 1e-9
            empty_cost = model.query_cost(sql, design)


class TestMonotonicity:
    def test_more_selective_prefix_is_cheaper(self, model):
        narrow = model.query_cost(
            "SELECT SUM(sales.amount) FROM sales WHERE sales.day BETWEEN 0 AND 3",
            PhysicalDesign.of(
                Projection("sales", ("day", "amount"), (SortColumn("day"),))
            ),
        )
        wide = model.query_cost(
            "SELECT SUM(sales.amount) FROM sales WHERE sales.day BETWEEN 0 AND 180",
            PhysicalDesign.of(
                Projection("sales", ("day", "amount"), (SortColumn("day"),))
            ),
        )
        assert narrow < wide

    def test_wider_reads_cost_more(self, model):
        one = model.query_cost("SELECT sales.amount FROM sales", PhysicalDesign.empty())
        three = model.query_cost(
            "SELECT sales.amount, sales.day, sales.product FROM sales",
            PhysicalDesign.empty(),
        )
        assert three > one

    def test_sorted_group_by_cheaper_than_hash(self, model):
        # Compare the projections directly: query_cost takes the min with
        # the super-projection, which happens to be sorted by ``store``.
        sql = "SELECT sales.product, SUM(sales.amount) FROM sales GROUP BY sales.product"
        profile = model.profile(sql)
        sorted_proj = Projection(
            "sales", ("product", "amount"), (SortColumn("product"),)
        )
        hash_proj = Projection("sales", ("amount", "product"), (SortColumn("amount"),))
        assert model.projection_cost(profile, sorted_proj) < model.projection_cost(
            profile, hash_proj
        )

    def test_join_adds_cost(self, model):
        plain = model.query_cost(
            "SELECT SUM(sales.amount) FROM sales WHERE sales.store = 1",
            PhysicalDesign.empty(),
        )
        joined = model.query_cost(
            "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.store = stores.store_id "
            "WHERE sales.store = 1",
            PhysicalDesign.empty(),
        )
        assert joined > plain


class TestWorkloadCost:
    def test_weighted_average(self, model):
        from repro.workload.query import WorkloadQuery

        cheap = "SELECT sales.amount FROM sales WHERE sales.store = 1"
        queries = [WorkloadQuery(sql=cheap, frequency=3.0)]
        report = model.workload_cost(queries, PhysicalDesign.empty())
        assert report.average_ms == pytest.approx(report.per_query_ms[0])
        assert report.total_ms == pytest.approx(3.0 * report.per_query_ms[0])

    def test_accepts_raw_sql_strings(self, model):
        report = model.workload_cost(
            ["SELECT sales.amount FROM sales"], PhysicalDesign.empty()
        )
        assert len(report.per_query_ms) == 1
        assert report.max_ms == report.per_query_ms[0]

    def test_empty_workload(self, model):
        report = model.workload_cost([], PhysicalDesign.empty())
        assert report.average_ms == 0.0
        assert report.max_ms == 0.0


class TestEstimateVsReality:
    """Cost-model *orderings* must agree with actually measured work."""

    def test_choose_projection_minimizes_real_rows_scanned(
        self, sales_schema, sales_data
    ):
        database = ColumnarDatabase(sales_schema, sales_data)
        executor = ColumnarExecutor(database)
        sql = "SELECT SUM(sales.amount) FROM sales WHERE sales.product = 7"
        design = PhysicalDesign.of(
            Projection("sales", ("product", "amount"), (SortColumn("product"),)),
            Projection("sales", ("day", "product", "amount"), (SortColumn("day"),)),
        )
        result = executor.execute(sql, design)
        # The optimizer must pick the product-sorted projection, and real
        # scanned rows must be far below the table size.
        assert result.stats.projection.sort_key[0] == "product"
        assert result.stats.rows_scanned < 0.2 * 5000

    def test_cost_ordering_matches_scan_ordering(self, sales_schema, sales_data):
        database = ColumnarDatabase(sales_schema, sales_data)
        executor = ColumnarExecutor(database)
        model = executor.cost_model
        sql = "SELECT SUM(sales.amount) FROM sales WHERE sales.store = 3"
        fast_design = PhysicalDesign.of(
            Projection("sales", ("store", "amount"), (SortColumn("store"),))
        )
        slow_design = PhysicalDesign.of(
            Projection("sales", ("amount", "store"), (SortColumn("amount"),))
        )
        cost_fast = model.query_cost(sql, fast_design)
        cost_slow = model.query_cost(sql, slow_design)
        rows_fast = executor.execute(sql, fast_design).stats.rows_scanned
        rows_slow = executor.execute(sql, slow_design).stats.rows_scanned
        assert (cost_fast < cost_slow) == (rows_fast < rows_slow)
