"""Vertica-style projections.

A projection materializes a subset of one table's columns, stored sorted by
an ordered sort key::

    CREATE PROJECTION p AS SELECT col1, ..., colN
    FROM anchor_table ORDER BY col1', ..., colK';

The design space is the paper's ``O(2^N · N!)`` per table: any column subset
in any sort order.  The *super-projection* contains every column (its sort
key is the first column by convention) and always exists — it is what
``NoDesign`` queries scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.catalog.schema import Schema, Table
from repro.state.capture import PickleFieldsOnly

#: Sorted, RLE-friendly columns compress better than unsorted ones; these
#: factors keep projection sizes (and therefore budgets) in a realistic
#: relationship to raw data size.
SORTED_COMPRESSION = 0.08
UNSORTED_COMPRESSION = 0.25


@dataclass(frozen=True)
class SortColumn:
    """One component of a projection's sort key."""

    name: str
    ascending: bool = True

    def __str__(self) -> str:
        return self.name if self.ascending else f"{self.name} DESC"


@dataclass(frozen=True)
class Projection(PickleFieldsOnly):
    """An immutable projection definition (hashable; used as a design atom).

    ``column_set`` is derived once, on first use, and never pickled.
    """

    table: str
    columns: tuple[str, ...]
    sort_columns: tuple[SortColumn, ...]
    is_super: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a projection must contain at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate columns in projection on {self.table!r}")
        column_set = set(self.columns)
        for sort_column in self.sort_columns:
            if sort_column.name not in column_set:
                raise ValueError(
                    f"sort column {sort_column.name!r} not in projection columns"
                )

    @cached_property
    def column_set(self) -> frozenset[str]:
        """Unordered view of the stored columns."""
        return frozenset(self.columns)

    @property
    def sort_key(self) -> tuple[str, ...]:
        """Sort column names, in order."""
        return tuple(s.name for s in self.sort_columns)

    def covers(self, needed: frozenset[str] | set[str]) -> bool:
        """True when every needed column is stored in this projection.

        This is the cliff of the paper's cost surface: a projection either
        covers a query's columns (fast path) or the query falls back to the
        super-projection (slow path) — there is no partial credit.
        """
        return needed <= self.column_set

    def size_bytes(self, table: Table, row_count: int | None = None) -> int:
        """Estimated on-disk size, accounting for sort-order compression."""
        rows = table.row_count if row_count is None else row_count
        sorted_names = set(self.sort_key)
        total = 0.0
        for name in self.columns:
            width = table.column(name).type.byte_width
            factor = SORTED_COMPRESSION if name in sorted_names else UNSORTED_COMPRESSION
            total += rows * width * factor
        return int(total)

    def to_sql(self) -> str:
        """Render the defining DDL (for logs and examples)."""
        cols = ", ".join(self.columns)
        order = ", ".join(str(s) for s in self.sort_columns)
        name = f"{self.table}_super" if self.is_super else f"{self.table}_proj"
        ddl = f"CREATE PROJECTION {name} AS SELECT {cols} FROM {self.table}"
        if order:
            ddl += f" ORDER BY {order}"
        return ddl

    def __str__(self) -> str:
        kind = "super" if self.is_super else "proj"
        return f"{kind}({self.table}: {','.join(self.columns)} / {','.join(self.sort_key)})"


def super_projection(table: Table) -> Projection:
    """The implicit all-columns projection of ``table``."""
    columns = tuple(table.column_names)
    return Projection(
        table=table.name,
        columns=columns,
        sort_columns=(SortColumn(columns[0]),),
        is_super=True,
    )


def super_projections(schema: Schema) -> dict[str, Projection]:
    """Super-projections for every table in ``schema``."""
    return {name: super_projection(table) for name, table in schema.tables.items()}
