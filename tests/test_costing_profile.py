"""Direct tests for the shared query profiler."""

import pytest

from repro.catalog.statistics import TableStatistics
from repro.costing.memo import BoundedMemo
from repro.costing.profile import QueryProfiler, resolve_column
from repro.obs import get_metrics
from repro.sql.ast import ColumnRef


@pytest.fixture
def profiler(sales_schema) -> QueryProfiler:
    statistics = {
        name: TableStatistics.declared(table)
        for name, table in sales_schema.tables.items()
    }
    return QueryProfiler(sales_schema, statistics)


class TestResolveColumn:
    def test_qualified(self, sales_schema):
        assert resolve_column(sales_schema, ColumnRef("store", "sales"), "sales") == (
            "sales",
            "store",
        )

    def test_bare_prefers_anchor(self, sales_schema):
        assert resolve_column(sales_schema, ColumnRef("store"), "sales") == (
            "sales",
            "store",
        )

    def test_bare_falls_back_to_unique_owner(self, sales_schema):
        assert resolve_column(sales_schema, ColumnRef("region"), "sales") == (
            "stores",
            "region",
        )

    def test_unknown_returns_none(self, sales_schema):
        assert resolve_column(sales_schema, ColumnRef("zzz"), "sales") is None
        assert resolve_column(sales_schema, ColumnRef("x", "nope"), "sales") is None


class TestProfiler:
    def test_aggregates_resolved(self, profiler):
        profile = profiler.profile(
            "SELECT COUNT(*), SUM(sales.amount), COUNT(DISTINCT sales.store) FROM sales"
        )
        specs = profile.aggregates
        assert specs[0].column is None and specs[0].func == "COUNT"
        assert specs[1].column == "amount"
        assert specs[2].distinct

    def test_select_columns_only_anchor(self, profiler):
        profile = profiler.profile(
            "SELECT sales.store, stores.region FROM sales "
            "JOIN stores ON sales.store = stores.store_id"
        )
        assert profile.select_columns == ("store",)
        assert "region" in profile.dimensions[0].needed_columns

    def test_select_star_needs_all_columns(self, profiler, sales_schema):
        profile = profiler.profile("SELECT * FROM sales")
        assert profile.anchor.needed_columns == set(
            sales_schema.table("sales").column_names
        )

    def test_row_bytes_vs_needed_bytes(self, profiler, sales_schema):
        profile = profiler.profile("SELECT sales.amount FROM sales")
        assert profile.anchor.needed_bytes == 8
        assert profile.anchor.row_bytes == sales_schema.table("sales").row_bytes
        assert profile.anchor.row_bytes > profile.anchor.needed_bytes

    def test_predicate_columns_property(self, profiler):
        profile = profiler.profile(
            "SELECT sales.amount FROM sales WHERE sales.store = 1 AND sales.day < 5"
        )
        assert profile.anchor.predicate_columns == {"store", "day"}

    def test_joins_to_unknown_tables_skipped(self, profiler):
        profile = profiler.profile(
            "SELECT sales.amount FROM sales JOIN ghost ON sales.store = ghost.id"
        )
        assert profile.dimensions == ()

    def test_limit_and_order(self, profiler):
        profile = profiler.profile(
            "SELECT sales.amount FROM sales ORDER BY sales.day LIMIT 5"
        )
        assert profile.limit == 5
        assert profile.order_by == ("day",)

    def test_profile_cache_is_bounded(self, profiler):
        assert isinstance(profiler._profiles, BoundedMemo)
        bound = profiler._profiles.max_entries = 4
        before = get_metrics().counter("costing.profile_evictions").value
        texts = [
            f"SELECT sales.amount FROM sales WHERE sales.store = {i}"
            for i in range(bound + 3)
        ]
        first = [profiler.profile(sql) for sql in texts]
        assert len(profiler._profiles) <= bound
        evicted = get_metrics().counter("costing.profile_evictions").value - before
        assert evicted == 3
        # An evicted text is re-parsed into an equal profile; a resident
        # one is served as the same object.
        assert texts[0] not in profiler._profiles
        assert profiler.profile(texts[0]) == first[0]
        assert profiler.profile(texts[-1]) is first[-1]

    def test_annotate_neither_inserts_nor_refreshes(self, profiler):
        """``annotate`` returns what ``profile`` would, keeps no profile,
        and serves a resident text without moving it in the LRU order."""
        texts = [
            f"SELECT sales.amount FROM sales WHERE sales.store = {i}" for i in range(3)
        ]
        fresh, _ = profiler.annotate(texts[0])
        assert len(profiler._profiles) == 0
        assert fresh == profiler.profile(texts[0])
        resident = [profiler.profile(sql) for sql in texts]
        assert profiler.annotate(texts[0])[0] == resident[0]
        assert [sql for sql, _ in profiler._profiles.items()] == texts
