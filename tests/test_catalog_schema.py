"""Unit tests for the schema catalog."""

import pytest

from repro.catalog.schema import Column, Schema, SchemaError, Table
from repro.catalog.types import ColumnType


class TestColumn:
    def test_rejects_nonpositive_ndv(self):
        with pytest.raises(SchemaError):
            Column("a", ColumnType.INT, ndv=0)

    def test_rejects_negative_skew(self):
        with pytest.raises(SchemaError):
            Column("a", ColumnType.INT, skew=-1.0)


class TestTable:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", ColumnType.INT), Column("a", ColumnType.INT)])

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", ColumnType.INT)], row_count=0)

    def test_column_lookup(self):
        table = Table("t", [Column("a", ColumnType.INT)])
        assert table.column("a").name == "a"
        assert table.has_column("a")
        assert not table.has_column("b")
        with pytest.raises(SchemaError):
            table.column("b")

    def test_row_bytes_sums_widths(self):
        table = Table(
            "t",
            [
                Column("a", ColumnType.INT),  # 8
                Column("b", ColumnType.BOOL),  # 1
                Column("c", ColumnType.STRING),  # 16
            ],
        )
        assert table.row_bytes == 25
        assert table.column_names == ["a", "b", "c"]


class TestSchema:
    def make(self) -> Schema:
        schema = Schema()
        schema.add_table(Table("t", [Column("a", ColumnType.INT), Column("shared", ColumnType.INT)]))
        schema.add_table(Table("u", [Column("b", ColumnType.INT), Column("shared", ColumnType.INT)]))
        return schema

    def test_duplicate_table_rejected(self):
        schema = self.make()
        with pytest.raises(SchemaError):
            schema.add_table(Table("t", [Column("x", ColumnType.INT)]))

    def test_resolve_qualified(self):
        schema = self.make()
        table, column = schema.resolve("t.a")
        assert (table.name, column.name) == ("t", "a")

    def test_resolve_bare_unique(self):
        schema = self.make()
        table, column = schema.resolve("b")
        assert (table.name, column.name) == ("u", "b")

    def test_resolve_bare_ambiguous(self):
        schema = self.make()
        with pytest.raises(SchemaError):
            schema.resolve("shared")

    def test_resolve_unknown(self):
        schema = self.make()
        with pytest.raises(SchemaError):
            schema.resolve("nope")
        with pytest.raises(SchemaError):
            schema.resolve("t.nope")

    def test_total_columns(self):
        assert self.make().total_columns == 4


class TestColumnType:
    def test_every_type_has_a_width(self):
        for ct in ColumnType:
            assert ct.byte_width > 0
