"""Schema catalog: tables, columns, foreign keys, and name resolution.

The catalog is pure metadata — actual data lives in the engines.  Both the
columnar and the row-store substrates share one :class:`Schema`, as the
paper's two evaluation targets (Vertica and DBMS-X) shared one workload.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TypeVar

from repro.catalog.types import ColumnType

T = TypeVar("T")


class SchemaError(ValueError):
    """Raised on unknown tables/columns or inconsistent definitions."""


@dataclass(frozen=True)
class Column:
    """A column definition.

    ``ndv`` is the declared number of distinct values and drives both the
    data generator and the cost models' selectivity estimates; ``skew``
    (a Zipf-like exponent, 0 = uniform) shapes the generated value
    distribution.
    """

    name: str
    type: ColumnType
    ndv: int = 1000
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.ndv <= 0:
            raise SchemaError(f"column {self.name!r}: ndv must be positive")
        if self.skew < 0:
            raise SchemaError(f"column {self.name!r}: skew must be >= 0")


@dataclass(frozen=True)
class ForeignKey:
    """``table.column`` references ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass
class Table:
    """A table definition: ordered columns plus a declared row count."""

    name: str
    columns: list[Column]
    row_count: int = 100_000
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.row_count <= 0:
            raise SchemaError(f"table {self.name!r}: row_count must be positive")
        seen: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise SchemaError(
                    f"table {self.name!r}: duplicate column {column.name!r}"
                )
            seen.add(column.name)
        self._by_name = {column.name: column for column in self.columns}
        #: Column names in declaration order.  Shared, not copied per read:
        #: callers iterate or copy it.
        self.column_names: list[str] = list(self._by_name)
        #: Approximate width of one full row, in bytes.
        self.row_bytes: int = sum(column.type.byte_width for column in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by bare name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        """True when the table defines ``name``."""
        return name in self._by_name


@dataclass
class Schema:
    """A set of tables with qualified-name resolution."""

    tables: dict[str, Table] = field(default_factory=dict)

    def add_table(self, table: Table) -> None:
        """Register ``table``; duplicate names are an error."""
        if table.name in self.tables:
            raise SchemaError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no such table: {name!r}") from None

    def resolve(self, qualified: str) -> tuple[Table, Column]:
        """Resolve ``"table.column"`` (or a bare, unambiguous name).

        A bare column name resolves only when exactly one table defines it.
        """
        if "." in qualified:
            table_name, _, column_name = qualified.partition(".")
            table = self.table(table_name)
            return table, table.column(column_name)
        owners = [t for t in self.tables.values() if t.has_column(qualified)]
        if not owners:
            raise SchemaError(f"no table defines column {qualified!r}")
        if len(owners) > 1:
            names = ", ".join(sorted(t.name for t in owners))
            raise SchemaError(f"ambiguous column {qualified!r} (in {names})")
        return owners[0], owners[0].column(qualified)

    @property
    def total_columns(self) -> int:
        """Total column count across all tables (the paper's ``n``)."""
        return sum(len(table.columns) for table in self.tables.values())


def group_by_table(structures: Iterable[T], key: Callable[[T], object]) -> dict[str, list[T]]:
    """Design structures grouped by their ``table``, each group sorted by ``key``.

    The sort is stable, so every group equals
    ``sorted((s for s in structures if s.table == name), key=key)`` —
    ties keep the iteration order of ``structures``.
    """
    groups: dict[str, list[T]] = {}
    for structure in structures:
        groups.setdefault(structure.table, []).append(structure)
    for members in groups.values():
        members.sort(key=key)
    return groups
