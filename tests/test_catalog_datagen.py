"""Unit tests for the synthetic data generator."""

import numpy as np

from repro.catalog.datagen import generate_column, generate_database
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import ColumnType


class TestGenerateColumn:
    def test_int_values_within_ndv(self):
        rng = np.random.default_rng(0)
        column = Column("a", ColumnType.INT, ndv=10)
        values = generate_column(column, 1000, rng)
        assert values.min() >= 0
        assert values.max() < 10
        assert values.dtype == np.int64

    def test_float_values_have_jitter(self):
        rng = np.random.default_rng(0)
        column = Column("m", ColumnType.FLOAT, ndv=10)
        values = generate_column(column, 1000, rng)
        assert values.dtype == np.float64
        assert np.unique(values).size > 10  # jitter breaks ties

    def test_bool_column(self):
        rng = np.random.default_rng(0)
        values = generate_column(Column("f", ColumnType.BOOL), 100, rng)
        assert values.dtype == np.bool_

    def test_skew_concentrates_mass(self):
        rng = np.random.default_rng(0)
        uniform = generate_column(Column("a", ColumnType.INT, ndv=100), 20_000, rng)
        skewed = generate_column(
            Column("a", ColumnType.INT, ndv=100, skew=1.2), 20_000, rng
        )
        top_uniform = np.mean(uniform == np.bincount(uniform).argmax())
        top_skewed = np.mean(skewed == np.bincount(skewed).argmax())
        assert top_skewed > top_uniform * 2

    def test_deterministic_given_seed(self):
        column = Column("a", ColumnType.INT, ndv=50)
        first = generate_column(column, 500, np.random.default_rng(7))
        second = generate_column(column, 500, np.random.default_rng(7))
        assert np.array_equal(first, second)


class TestGenerateDatabase:
    def make_schema(self) -> Schema:
        schema = Schema()
        schema.add_table(
            Table("dim", [Column("id", ColumnType.INT, ndv=100)], row_count=100)
        )
        schema.add_table(
            Table(
                "fact",
                [Column("id", ColumnType.INT, ndv=100), Column("m", ColumnType.FLOAT)],
                row_count=1000,
                foreign_keys=[ForeignKey("id", "dim", "id")],
            )
        )
        return schema

    def test_all_tables_generated(self, sales_schema):
        data = generate_database(sales_schema, seed=1)
        assert set(data) == set(sales_schema.tables)
        for name, table in sales_schema.tables.items():
            for column in table.columns:
                assert column.name in data[name]

    def test_scale_shrinks_rows(self, sales_schema):
        data = generate_database(sales_schema, seed=1, scale=0.1)
        assert data["sales"]["store"].shape[0] == 500

    def test_foreign_keys_reference_existing_values(self):
        schema = self.make_schema()
        data = generate_database(schema, seed=2)
        fact_ids = set(data["fact"]["id"].tolist())
        dim_ids = set(data["dim"]["id"].tolist())
        assert fact_ids <= dim_ids

    def test_deterministic(self, sales_schema):
        first = generate_database(sales_schema, seed=9)
        second = generate_database(sales_schema, seed=9)
        for table in first:
            for column in first[table]:
                assert np.array_equal(first[table][column], second[table][column])
