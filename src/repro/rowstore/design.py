"""Physical design container for the row store: indices plus views."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.catalog.schema import Schema, group_by_table
from repro.catalog.statistics import TableStatistics
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.state.capture import PickleFieldsOnly

#: Deployment throughput for the Figure 14 model (sort + write per byte).
DEPLOY_SECONDS_PER_GB = 300.0


@dataclass(frozen=True)
class RowstoreDesign(PickleFieldsOnly):
    """An immutable set of indices and materialized views.

    The per-table canonical orders :meth:`indices_for` and
    :meth:`views_for` return are built once per design, on the first
    call, and never pickled.
    """

    indices: frozenset[Index] = frozenset()
    views: frozenset[MaterializedView] = frozenset()

    @classmethod
    def of(cls, *structures: Index | MaterializedView) -> "RowstoreDesign":
        """Convenience constructor from a mix of indices and views."""
        indices = frozenset(s for s in structures if isinstance(s, Index))
        views = frozenset(s for s in structures if isinstance(s, MaterializedView))
        return cls(indices=indices, views=views)

    @classmethod
    def empty(cls) -> "RowstoreDesign":
        """The NoDesign design: every query is a full table scan."""
        return cls()

    def with_structure(self, structure: Index | MaterializedView) -> "RowstoreDesign":
        """Return a new design with ``structure`` added."""
        if isinstance(structure, Index):
            return RowstoreDesign(self.indices | {structure}, self.views)
        return RowstoreDesign(self.indices, self.views | {structure})

    @cached_property
    def _indices_by_table(self) -> dict[str, list[Index]]:
        return group_by_table(self.indices, lambda i: i.columns)

    @cached_property
    def _views_by_table(self) -> dict[str, list[MaterializedView]]:
        return group_by_table(self.views, lambda v: (v.group_columns, v.measure_columns))

    def indices_for(self, table: str) -> list[Index]:
        """Indices anchored on ``table`` (deterministic order; a shared
        list — read it, do not mutate it)."""
        return self._indices_by_table.get(table, [])

    def views_for(self, table: str) -> list[MaterializedView]:
        """Views anchored on ``table`` (deterministic order; a shared
        list — read it, do not mutate it)."""
        return self._views_by_table.get(table, [])

    def price(
        self, schema: Schema, statistics: dict[str, TableStatistics]
    ) -> int:
        """Total bytes of all structures — the paper's ``price(D)``."""
        total = 0
        for index in self.indices:
            total += index.size_bytes(schema.table(index.table))
        for view in self.views:
            total += view.size_bytes(schema.table(view.table), statistics[view.table])
        return total

    def deployment_seconds(
        self, schema: Schema, statistics: dict[str, TableStatistics]
    ) -> float:
        """Modeled wall-clock time to build this design (Figure 14)."""
        return self.price(schema, statistics) / 1e9 * DEPLOY_SECONDS_PER_GB

    def __len__(self) -> int:
        return len(self.indices) + len(self.views)

    def __iter__(self):
        yield from sorted(self.indices, key=lambda i: (i.table, i.columns))
        yield from sorted(
            self.views, key=lambda v: (v.table, v.group_columns, v.measure_columns)
        )

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        if not len(self):
            return "(empty design)"
        return "\n".join(str(s) for s in self)
