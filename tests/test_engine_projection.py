"""Unit tests for projections and the physical-design container."""

import pytest

from repro.catalog.schema import Column, Schema, Table
from repro.catalog.types import ColumnType
from repro.engine.design import PhysicalDesign
from repro.engine.projection import (
    Projection,
    SortColumn,
    super_projection,
)


@pytest.fixture
def table() -> Table:
    return Table(
        "t",
        [Column(c, ColumnType.INT, ndv=100) for c in ("a", "b", "c", "d")],
        row_count=1_000_000,
    )


class TestProjection:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            Projection("t", (), ())

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            Projection("t", ("a", "a"), ())

    def test_sort_columns_must_be_stored(self):
        with pytest.raises(ValueError):
            Projection("t", ("a",), (SortColumn("b"),))

    def test_covers_is_subset_check(self):
        projection = Projection("t", ("a", "b"), (SortColumn("a"),))
        assert projection.covers({"a"})
        assert projection.covers({"a", "b"})
        assert not projection.covers({"a", "c"})

    def test_size_scales_with_rows_and_width(self, table):
        narrow = Projection("t", ("a",), (SortColumn("a"),))
        wide = Projection("t", ("a", "b", "c"), (SortColumn("a"),))
        assert wide.size_bytes(table) > narrow.size_bytes(table)
        assert narrow.size_bytes(table, row_count=10) < narrow.size_bytes(table)

    def test_sorted_columns_compress_better(self, table):
        sorted_proj = Projection("t", ("a", "b"), (SortColumn("a"), SortColumn("b")))
        unsorted_proj = Projection("t", ("a", "b"), (SortColumn("a"),))
        assert sorted_proj.size_bytes(table) < unsorted_proj.size_bytes(table)

    def test_super_projection_contains_all_columns(self, table):
        projection = super_projection(table)
        assert projection.is_super
        assert projection.column_set == {"a", "b", "c", "d"}

    def test_to_sql_mentions_order(self):
        projection = Projection("t", ("a", "b"), (SortColumn("b", ascending=False),))
        ddl = projection.to_sql()
        assert "CREATE PROJECTION" in ddl
        assert "ORDER BY b DESC" in ddl

    def test_hashable_and_equal_by_value(self):
        first = Projection("t", ("a", "b"), (SortColumn("a"),))
        second = Projection("t", ("a", "b"), (SortColumn("a"),))
        assert first == second
        assert len({first, second}) == 1


class TestPhysicalDesign:
    def test_empty_design(self, table):
        design = PhysicalDesign.empty()
        assert len(design) == 0
        schema = Schema()
        schema.add_table(table)
        assert design.price(schema) == 0

    def test_super_projection_rejected(self, table):
        with pytest.raises(ValueError):
            PhysicalDesign.of(super_projection(table))

    def test_price_sums_projection_sizes(self, table):
        schema = Schema()
        schema.add_table(table)
        p1 = Projection("t", ("a",), (SortColumn("a"),))
        p2 = Projection("t", ("b", "c"), (SortColumn("b"),))
        design = PhysicalDesign.of(p1, p2)
        assert design.price(schema) == p1.size_bytes(table) + p2.size_bytes(table)

    def test_for_table_filters_and_sorts(self, table):
        p1 = Projection("t", ("a",), (SortColumn("a"),))
        p2 = Projection("u", ("x",), (SortColumn("x"),))
        design = PhysicalDesign.of(p1, p2)
        assert design.for_table("t") == [p1]
        assert design.for_table("missing") == []

    def test_iteration_is_deterministic(self):
        projections = [
            Projection("t", (c,), (SortColumn(c),)) for c in ("c", "a", "b")
        ]
        design = PhysicalDesign.of(*projections)
        assert [p.columns[0] for p in design] == ["a", "b", "c"]

    def test_deployment_time_proportional_to_price(self, table):
        schema = Schema()
        schema.add_table(table)
        small = PhysicalDesign.of(Projection("t", ("a",), (SortColumn("a"),)))
        large = PhysicalDesign.of(
            Projection("t", ("a", "b", "c", "d"), (SortColumn("a"),))
        )
        assert large.deployment_seconds(schema) > small.deployment_seconds(schema)
