"""Native materialized-view rollup must agree with base-table execution."""

import pytest

from repro.rowstore.design import RowstoreDesign
from repro.rowstore.matview import MaterializedView
from repro.rowstore.storage import RowstoreDatabase, RowstoreExecutor


@pytest.fixture
def executor(sales_schema, sales_data) -> RowstoreExecutor:
    """Executor whose *cost model* sees benchmark-scale statistics (so the
    optimizer genuinely prefers the view) while the stored data stays small
    enough to verify answers exactly."""
    from repro.catalog.schema import Schema, Table
    from repro.rowstore.optimizer import RowstoreCostModel

    big = Schema()
    for table in sales_schema.tables.values():
        big.add_table(
            Table(
                table.name,
                list(table.columns),
                row_count=5_000_000 if table.name == "sales" else table.row_count,
            )
        )
    database = RowstoreDatabase(sales_schema, sales_data)
    return RowstoreExecutor(database, RowstoreCostModel(big))


VIEW = MaterializedView("sales", ("store", "product"), ("amount", "day"))
DESIGN = RowstoreDesign.of(VIEW)

ROLLUP_QUERIES = [
    "SELECT sales.store, SUM(sales.amount) FROM sales GROUP BY sales.store",
    "SELECT sales.store, COUNT(*) FROM sales WHERE sales.product < 50 GROUP BY sales.store",
    "SELECT sales.store, AVG(sales.amount) FROM sales GROUP BY sales.store",
    "SELECT sales.store, MIN(sales.day), MAX(sales.day) FROM sales GROUP BY sales.store",
    "SELECT SUM(sales.amount) FROM sales WHERE sales.store = 3",
    "SELECT COUNT(*) FROM sales WHERE sales.store IN (1, 2)",
]


def normalize(rows):
    return sorted(
        tuple(round(float(v), 5) for v in row) for row in rows
    )


class TestRollupCorrectness:
    @pytest.mark.parametrize("sql", ROLLUP_QUERIES)
    def test_view_answers_match_base(self, executor, sql):
        base_result, base_path = executor.execute(sql)
        view_result, view_path = executor.execute(sql, DESIGN)
        assert base_path.path is None
        assert view_path.path == VIEW, "optimizer should pick the view"
        got = normalize(view_result.rows)
        want = normalize(base_result.rows)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    def test_rollup_touches_fewer_rows(self, executor, sales_data):
        sql = "SELECT sales.store, SUM(sales.amount) FROM sales GROUP BY sales.store"
        _, report = executor.execute(sql, DESIGN)
        assert report.rows_touched < sales_data["sales"]["store"].shape[0]

    def test_empty_filter_result(self, executor):
        sql = "SELECT sales.store, SUM(sales.amount) FROM sales WHERE sales.store = 99999 GROUP BY sales.store"
        result, path = executor.execute(sql, DESIGN)
        assert path.path == VIEW
        assert result.rows == []

    def test_unservable_query_falls_back(self, executor):
        # Filter on a non-grouping column → the view cannot answer; the
        # executor must fall back to the base pipeline.
        sql = "SELECT SUM(sales.amount) FROM sales WHERE sales.day = 5"
        result, path = executor.execute(sql, DESIGN)
        assert path.path is None or not isinstance(path.path, MaterializedView)
        assert result.rows  # still a correct exact answer
