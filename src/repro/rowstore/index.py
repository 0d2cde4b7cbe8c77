"""Composite sorted indices for the row store.

An :class:`Index` over ``(c1, ..., ck)`` behaves like a B-tree: a query can
seek on the longest prefix of index columns carrying equality predicates,
optionally extended by one range predicate, and then fetches the matching
base rows (paying row-store random-access width).
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from functools import cached_property

from repro.catalog.schema import Table
from repro.state.capture import PickleFieldsOnly

#: Per-entry overhead of an index entry beyond the key bytes (row pointer
#: plus node bookkeeping).
INDEX_ENTRY_OVERHEAD_BYTES = 12


@dataclass(frozen=True)
class Index(PickleFieldsOnly):
    """An immutable composite index definition (hashable design atom).

    ``column_set`` is derived once, on first use, and never pickled.
    """

    table: str
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("an index must have at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate columns in index on {self.table!r}")

    @cached_property
    def column_set(self) -> frozenset[str]:
        return frozenset(self.columns)

    def seek_prefix(
        self, eq_columns: Container[str], range_columns: Container[str]
    ) -> tuple[int, bool]:
        """How much of the key a query can seek on.

        Returns ``(depth, used_range)``: the number of leading key columns
        consumed (equality columns, plus at most one trailing range column).
        ``(0, False)`` means the index is useless for the filter.
        """
        depth = 0
        for name in self.columns:
            if name in eq_columns:
                depth += 1
                continue
            if name in range_columns:
                return depth + 1, True
            break
        return depth, False

    def size_bytes(self, table: Table, row_count: int | None = None) -> int:
        """Estimated size: key bytes plus per-entry overhead."""
        rows = table.row_count if row_count is None else row_count
        key_bytes = sum(table.column(name).type.byte_width for name in self.columns)
        return rows * (key_bytes + INDEX_ENTRY_OVERHEAD_BYTES)

    def to_sql(self) -> str:
        """Render the defining DDL (for logs and examples)."""
        name = f"idx_{self.table}_{'_'.join(self.columns)}"
        return f"CREATE INDEX {name} ON {self.table} ({', '.join(self.columns)})"

    def __str__(self) -> str:
        return f"idx({self.table}: {','.join(self.columns)})"
