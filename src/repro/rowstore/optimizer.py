"""Access-path selection and what-if cost model for the row store.

The row-store cost surface differs from the columnar engine in ways that
mirror the paper's DBMS-X-vs-Vertica contrast:

* a full scan reads **whole rows** (no column pruning), so undesigned
  queries are even more expensive relative to data size,
* a composite index seeks on its equality prefix (plus one range column)
  but pays a random-access penalty per fetched row — unless it is a
  *covering* index, which serves the query at key width,
* a materialized view collapses an aggregate query to a scan over the
  pre-aggregated rows.

Costs are model milliseconds on the same scale as the columnar engine.
"""

from __future__ import annotations

import math

from repro.catalog.schema import Schema
from repro.catalog.statistics import TableStatistics
from repro.costing.profile import QueryProfile, QueryProfiler, TableAccess
from repro.costing.report import WorkloadCostReport
from repro.rowstore.design import RowstoreDesign
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.sql.analyzer import QueryTemplate
from repro.sql.ast import Statement

# -- cost constants (model milliseconds) --------------------------------------

#: Sequential scan cost per byte.
BYTE_COST_MS = 5e-6
#: Random row fetch pays a multiple of the sequential per-byte cost.
RANDOM_READ_FACTOR = 4.0
#: B-tree traversal cost per seek (per log2 level).
SEEK_COST_MS = 0.02
#: Per-row, per-predicate filter evaluation cost.
PREDICATE_COST_MS = 1e-5
#: Hash aggregation per input row.
HASH_AGG_COST_MS = 2e-5
#: Sort cost per element-comparison (× log2 n).
SORT_COST_MS = 2e-6
#: Hash-join build/probe costs.
JOIN_BUILD_COST_MS = 2e-5
JOIN_PROBE_COST_MS = 1e-5
#: Fixed per-query overhead.
QUERY_OVERHEAD_MS = 1.0
#: Per-byte cost of applying a write to a stored structure (shared value
#: across both substrates).
WRITE_BYTE_COST_MS = 1e-5
#: Fixed per-affected-row upkeep of one extra B-tree (node descent plus
#: possible split bookkeeping) — pricier than columnar tuple-mover work.
INDEX_MAINT_ROW_MS = 1e-3
#: Fixed per-affected-row upkeep of an incrementally maintained view.
VIEW_MAINT_ROW_MS = 5e-4


class RowstoreCostModel:
    """What-if cost model for index/view designs."""

    def __init__(
        self,
        schema: Schema,
        statistics: dict[str, TableStatistics] | None = None,
    ):
        self.schema = schema
        self.statistics = statistics or {
            name: TableStatistics.declared(table)
            for name, table in schema.tables.items()
        }
        self.profiler = QueryProfiler(schema, self.statistics)

    def profile(self, sql: str, statement: Statement | None = None) -> QueryProfile:
        """Parse and annotate ``sql`` (cached by exact text; ``statement``
        is ``sql`` already parsed, see :meth:`QueryProfiler.profile`)."""
        return self.profiler.profile(sql, statement)

    def annotate(self, sql: str) -> tuple[QueryProfile, QueryTemplate]:
        """The profile of a text priced once, not memoised, and its
        template (see :meth:`QueryProfiler.annotate`)."""
        return self.profiler.annotate(sql)

    # -- access paths ------------------------------------------------------------

    def _scan_cost(self, access: TableAccess) -> float:
        """Full-table-scan cost (the NoDesign path)."""
        rows = max(access.row_count, 1)
        cost = rows * access.row_bytes * BYTE_COST_MS
        cost += rows * access.predicate_count * PREDICATE_COST_MS
        return cost

    # Every pricing call reads an access's selectivity lookups once
    # (``TableAccess.eq_map`` / ``range_map`` build a dict each) and hands
    # them to the per-structure helpers below.

    def _index_access_cost(
        self, access: TableAccess, index: Index, eq_map: dict, range_map: dict
    ) -> float | None:
        """Cost of driving ``access`` through ``index`` (None if useless)."""
        depth, used_range = index.seek_prefix(eq_map, range_map)
        if depth == 0:
            return None
        selectivity = 1.0
        for name in index.columns[:depth]:
            selectivity *= eq_map.get(name, range_map.get(name, 1.0))
        matched = max(access.row_count * selectivity, 1.0)
        cost = SEEK_COST_MS * math.log2(max(access.row_count, 2))
        covering = access.needed_columns <= index.column_set
        if covering:
            table = self.schema.table(access.table)
            key_bytes = sum(
                table.column(c).type.byte_width for c in index.columns
            )
            cost += matched * key_bytes * BYTE_COST_MS
        else:
            cost += matched * access.row_bytes * BYTE_COST_MS * RANDOM_READ_FACTOR
        # Index columns are distinct: the seek consumed ``depth`` of them.
        remaining = max(access.predicate_count - depth, 0)
        cost += matched * remaining * PREDICATE_COST_MS
        return cost

    def _view_cost(
        self, profile: QueryProfile, view: MaterializedView
    ) -> float | None:
        """Cost of answering ``profile`` from ``view`` by rollup."""
        if not view.answers(profile):
            return None
        stats = self.statistics[view.table]
        view_rows = view.estimated_rows(stats)
        table = self.schema.table(view.table)
        row_bytes = view.row_bytes(table)
        cost = view_rows * row_bytes * BYTE_COST_MS
        cost += view_rows * profile.anchor.predicate_count * PREDICATE_COST_MS
        # Roll the filtered view rows up to the query's grouping.
        filtered = max(view_rows * profile.anchor.total_selectivity, 1.0)
        cost += filtered * HASH_AGG_COST_MS
        if profile.order_by or any(True for _ in profile.aggregates):
            groups = max(min(profile.group_cardinality, filtered), 1.0)
            if profile.order_by:
                cost += groups * math.log2(max(groups, 2.0)) * SORT_COST_MS
        return cost

    # -- query costing -------------------------------------------------------------

    def structure_cost(
        self, profile: QueryProfile, structure: Index | MaterializedView
    ) -> float | None:
        """Full query cost when the anchor is served by ``structure``.

        ``None`` when the structure cannot serve the query.
        """
        access = profile.anchor
        return self._structure_cost(profile, structure, access.eq_map, access.range_map)

    def _structure_cost(
        self,
        profile: QueryProfile,
        structure: Index | MaterializedView,
        eq_map: dict,
        range_map: dict,
    ) -> float | None:
        """:meth:`structure_cost` with the anchor's lookups already read."""
        if isinstance(structure, MaterializedView):
            # Views fully answer the query; no post work.
            return self._view_cost(profile, structure)
        base = self._index_access_cost(profile.anchor, structure, eq_map, range_map)
        return None if base is None else base + self._post_cost(profile)

    def _post_cost(self, profile: QueryProfile) -> float:
        """Aggregation/sort/join work after the anchor rows are fetched."""
        access = profile.anchor
        rows_out = max(access.row_count * access.total_selectivity, 1.0)
        cost = 0.0
        if profile.group_by or profile.has_aggregates:
            cost += rows_out * HASH_AGG_COST_MS
            result_rows = max(min(profile.group_cardinality, rows_out), 1.0)
        else:
            result_rows = rows_out
        if profile.order_by:
            n = max(result_rows, 2.0)
            cost += n * math.log2(n) * SORT_COST_MS
        cost += rows_out * len(profile.dimensions) * JOIN_PROBE_COST_MS
        return cost

    def _dimension_cost(self, access: TableAccess, design: RowstoreDesign) -> float:
        """Best-path cost of reading one joined dimension table."""
        eq_map, range_map = access.eq_map, access.range_map
        best = self._scan_cost(access)
        for index in design.indices_for(access.table):
            cost = self._index_access_cost(access, index, eq_map, range_map)
            if cost is not None and cost < best:
                best = cost
        rows = max(access.row_count * access.total_selectivity, 1.0)
        return best + rows * JOIN_BUILD_COST_MS

    def choose_path(
        self, profile: QueryProfile, design: RowstoreDesign
    ) -> Index | MaterializedView | None:
        """The structure the optimizer would use (None = full scan)."""
        return self._best_path(profile, design)[0]

    @staticmethod
    def _structures(design: RowstoreDesign, table: str) -> tuple:
        """``table``'s indices, then its views, in the design's order."""
        return (*design.indices_for(table), *design.views_for(table))

    def _best_path(
        self, profile: QueryProfile, design: RowstoreDesign
    ) -> tuple[Index | MaterializedView | None, float]:
        """The cheapest anchor path — a full scan (``None``) or one of the
        design's structures — and its cost, post-fetch work included."""
        access = profile.anchor
        eq_map, range_map = access.eq_map, access.range_map
        best_structure: Index | MaterializedView | None = None
        best_cost = self._scan_cost(access) + self._post_cost(profile)
        for structure in self._structures(design, access.table):
            cost = self._structure_cost(profile, structure, eq_map, range_map)
            if cost is not None and cost < best_cost:
                best_structure, best_cost = structure, cost
        return best_structure, best_cost

    # -- write costing -------------------------------------------------------------

    def base_write_cost(self, profile: QueryProfile) -> float:
        """Design-independent cost of applying the write to base storage."""
        return (profile.affected_rows * profile.written_bytes) * WRITE_BYTE_COST_MS

    def maintenance_weight(self, structure: Index | MaterializedView) -> float:
        """Per-affected-row cost of keeping ``structure`` current."""
        if isinstance(structure, MaterializedView):
            return VIEW_MAINT_ROW_MS
        table = self.schema.table(structure.table)
        key_bytes = sum(
            table.column(c).type.byte_width for c in structure.columns
        )
        return INDEX_MAINT_ROW_MS + key_bytes * WRITE_BYTE_COST_MS

    def write_touches(
        self, profile: QueryProfile, structure: Index | MaterializedView
    ) -> bool:
        """Whether ``profile``'s write forces maintenance of ``structure``.

        Inserts and deletes touch every structure of the written table;
        updates only touch structures referencing a written column (index
        keys, view groupings or measures).
        """
        if not profile.is_write or structure.table != profile.anchor.table:
            return False
        if profile.statement_kind != "update":
            return True
        written = profile.written_columns
        if isinstance(structure, MaterializedView):
            return not (
                structure.group_set.isdisjoint(written)
                and structure.measure_set.isdisjoint(written)
            )
        return not structure.column_set.isdisjoint(written)

    def _write_cost(self, profile: QueryProfile, design: RowstoreDesign) -> float:
        """DML cost: locate the affected rows, apply the base write, then
        charge per-structure maintenance for every index/view the write
        touches."""
        if profile.statement_kind == "insert":
            locate = 0.0
        else:
            _, locate = self._best_path(profile, design)
        total = (QUERY_OVERHEAD_MS + locate) + self.base_write_cost(profile)
        for structure in self._structures(design, profile.anchor.table):
            if self.write_touches(profile, structure):
                total = total + profile.affected_rows * self.maintenance_weight(
                    structure
                )
        return total

    def query_cost(
        self, sql_or_profile: str | QueryProfile, design: RowstoreDesign
    ) -> float:
        """Estimated latency (model ms) of one query under ``design``."""
        profile = (
            sql_or_profile
            if isinstance(sql_or_profile, QueryProfile)
            else self.profile(sql_or_profile)
        )
        if profile.is_write:
            return self._write_cost(profile, design)
        _, best = self._best_path(profile, design)
        dim_cost = sum(self._dimension_cost(d, design) for d in profile.dimensions)
        return QUERY_OVERHEAD_MS + best + dim_cost

    def workload_cost(self, queries, design: RowstoreDesign) -> WorkloadCostReport:
        """Cost every query in ``queries`` under ``design``."""
        costs: list[float] = []
        weights: list[float] = []
        for query in queries:
            if isinstance(query, str):
                sql, weight = query, 1.0
            else:
                sql, weight = query.sql, float(query.frequency)
            costs.append(self.query_cost(sql, design))
            weights.append(weight)
        return WorkloadCostReport(per_query_ms=costs, weights=weights)
