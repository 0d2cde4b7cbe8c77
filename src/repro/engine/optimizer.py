"""Projection choice and the what-if cost model for the columnar engine.

This is the paper's cost function ``f(W, D)``: the estimated latency of a
workload under a physical design.  The paper notes latency "can only be
measured by executing the query itself or approximated using the query
optimizer's cost estimates"; like a what-if designer (and like the
HypoPG-style route suggested for reproduction), we use optimizer estimates
as the primary signal.  The executor in :mod:`repro.engine.executor` runs
the same plans for real on generated data so tests can check that estimated
orderings match actual work.

The cost surface has the paper's characteristic cliffs:

* a projection either **covers** a query's columns or the query falls back
  to the super-projection (no partial credit),
* a matching **sort-key prefix** turns a full scan into a binary-searched
  range scan, cutting scanned rows by the predicate selectivity,
* matching sort orders make ``GROUP BY``/``ORDER BY`` nearly free.

Costs are reported in model milliseconds, calibrated so that the headline
numbers land in the same ranges as the paper's Vertica cluster (full fact
scans in seconds, well-designed point queries in milliseconds).
"""

from __future__ import annotations

import math

from repro.catalog.schema import Schema
from repro.catalog.statistics import TableStatistics
from repro.costing.profile import QueryProfile, QueryProfiler, TableAccess, resolve_column
from repro.costing.report import WorkloadCostReport
from repro.engine.design import PhysicalDesign
from repro.engine.projection import Projection, super_projection
from repro.sql.analyzer import QueryTemplate
from repro.sql.ast import Statement

__all__ = [
    "ColumnarCostModel",
    "QueryProfile",
    "resolve_column",
]

# -- cost constants (model milliseconds) --------------------------------------

#: Sequential-scan cost per byte read (≈200 MB/s effective scan rate).
BYTE_COST_MS = 5e-6
#: Per-row, per-predicate filter evaluation cost.
PREDICATE_COST_MS = 1e-5
#: Per-row hash-aggregation cost (vs. nearly-free sorted aggregation).
HASH_AGG_COST_MS = 2e-5
SORTED_AGG_COST_MS = 4e-6
#: Per-element comparison cost for an explicit sort (× log2 n).
SORT_COST_MS = 2e-6
#: Hash-join build (per dimension row) and probe (per fact row) costs.
JOIN_BUILD_COST_MS = 2e-5
JOIN_PROBE_COST_MS = 1e-5
#: Fixed per-query overhead (parse/plan/dispatch).
QUERY_OVERHEAD_MS = 1.0
#: Per-byte cost of applying a write to a stored structure (WOS/ROS
#: moveout amortized per byte; shared value across both substrates).
WRITE_BYTE_COST_MS = 1e-5
#: Fixed per-affected-row upkeep of keeping one extra projection current
#: (tuple mover bookkeeping, positional index update).
PROJECTION_MAINT_ROW_MS = 5e-4


class ColumnarCostModel:
    """What-if cost model: profiles queries and costs them against designs.

    Query profiles are memoized (by SQL text); costs are computed on every
    call — this is the reference implementation the vectorized kernel is
    held bit-identical to.
    """

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
        self._super: dict[str, Projection] = {
            name: super_projection(table) for name, table in schema.tables.items()
        }

    def profile(self, sql: str, statement: Statement | None = None) -> QueryProfile:
        """Parse and annotate ``sql`` (cached by exact text; ``statement``
        is ``sql`` already parsed, see :meth:`QueryProfiler.profile`)."""
        return self.profiler.profile(sql, statement)

    def annotate(self, sql: str) -> tuple[QueryProfile, QueryTemplate]:
        """The profile of a text priced once, not memoised, and its
        template (see :meth:`QueryProfiler.annotate`)."""
        return self.profiler.annotate(sql)

    # -- costing ---------------------------------------------------------------

    # Every pricing call reads the anchor's selectivity lookups once
    # (``TableAccess.eq_map`` / ``range_map`` build a dict each) and hands
    # them to the per-projection helpers below.

    @staticmethod
    def _scan_cost(
        access: TableAccess, projection: Projection, eq_map: dict, range_map: dict
    ) -> tuple[float, float] | None:
        """``(rows scanned, scan + filter cost)`` of serving ``access`` from
        ``projection`` — the rows left after binary search on the sort-key
        prefix — or ``None`` when the projection does not cover it."""
        if not projection.covers(access.needed_columns):
            return None
        selectivity = 1.0
        for sort_column in projection.sort_columns:
            name = sort_column.name
            if name in eq_map:
                selectivity *= eq_map[name]
                continue
            if name in range_map:
                selectivity *= range_map[name]
            break
        rows_scanned = max(access.row_count * selectivity, 1.0)
        cost = rows_scanned * access.needed_bytes * BYTE_COST_MS
        cost += rows_scanned * access.predicate_count * PREDICATE_COST_MS
        return rows_scanned, cost

    def projection_cost(self, profile: QueryProfile, projection: Projection) -> float | None:
        """Cost of answering ``profile``'s anchor access via ``projection``.

        Returns ``None`` when the projection does not cover the query (the
        optimizer would never choose it).
        """
        access = profile.anchor
        return self._projection_cost(profile, projection, access.eq_map, access.range_map)

    def _projection_cost(
        self, profile: QueryProfile, projection: Projection, eq_map: dict, range_map: dict
    ) -> float | None:
        """:meth:`projection_cost` with the anchor's lookups already read."""
        access = profile.anchor
        if projection.table != access.table:
            return None
        scan = self._scan_cost(access, projection, eq_map, range_map)
        if scan is None:
            return None
        rows_scanned, cost = scan
        rows_out = max(access.row_count * access.total_selectivity, 1.0)

        if profile.group_by:
            groups = max(min(profile.group_cardinality, rows_out), 1.0)
            if self._sorted_groups(profile.group_by, projection):
                cost += rows_out * SORTED_AGG_COST_MS
            else:
                cost += rows_out * HASH_AGG_COST_MS
            result_rows = groups
        else:
            result_rows = rows_out

        if profile.order_by:
            free = (
                not profile.group_by
                and projection.sort_key[: len(profile.order_by)] == profile.order_by
            )
            if not free:
                n = max(result_rows, 2.0)
                cost += n * math.log2(n) * SORT_COST_MS

        # Joins: the dimension-side read is priced in query_cost (it depends
        # on the whole design); the per-fact-row probe work is charged here.
        cost += rows_scanned * len(profile.dimensions) * JOIN_PROBE_COST_MS
        return cost

    @staticmethod
    def _sorted_groups(group_by: tuple[str, ...], projection: Projection) -> bool:
        """Whether GROUP BY can stream off the projection's sort order."""
        prefix = projection.sort_key[: len(group_by)]
        return set(prefix) == set(group_by) and len(prefix) == len(group_by)

    def _best_projection(
        self, profile: QueryProfile, design: PhysicalDesign
    ) -> tuple[Projection, float]:
        """The cheapest anchor path — the super-projection or a design
        projection — and its cost."""
        access = profile.anchor
        eq_map, range_map = access.eq_map, access.range_map
        best = self._super[access.table]
        best_cost = self._projection_cost(profile, best, eq_map, range_map)
        for projection in design.for_table(access.table):
            cost = self._projection_cost(profile, projection, eq_map, range_map)
            if cost is not None and (best_cost is None or cost < best_cost):
                best, best_cost = projection, cost
        return best, best_cost

    def _dimension_cost(self, access: TableAccess, design: PhysicalDesign) -> float:
        """Best-path cost of reading one joined dimension table."""
        eq_map, range_map = access.eq_map, access.range_map
        best = None
        for projection in (self._super[access.table], *design.for_table(access.table)):
            scan = self._scan_cost(access, projection, eq_map, range_map)
            if scan is not None and (best is None or scan[1] < best):
                best = scan[1]
        rows = max(access.row_count * access.total_selectivity, 1.0)
        return (best or 0.0) + rows * JOIN_BUILD_COST_MS

    def choose_projection(
        self, profile: QueryProfile, design: PhysicalDesign
    ) -> Projection:
        """The projection the optimizer would pick for the anchor access."""
        return self._best_projection(profile, design)[0]

    # -- write costing ---------------------------------------------------------

    def base_write_cost(self, profile: QueryProfile) -> float:
        """Design-independent cost of applying the write to base storage."""
        return (profile.affected_rows * profile.written_bytes) * WRITE_BYTE_COST_MS

    def maintenance_weight(self, projection: Projection) -> float:
        """Per-affected-row cost of keeping ``projection`` current."""
        table = self.schema.table(projection.table)
        width = sum(table.column(c).type.byte_width for c in projection.columns)
        return PROJECTION_MAINT_ROW_MS + width * WRITE_BYTE_COST_MS

    def write_touches(self, profile: QueryProfile, projection: Projection) -> bool:
        """Whether ``profile``'s write forces maintenance of ``projection``.

        Inserts and deletes touch every projection of the written table
        (each stores every row); updates only touch projections storing at
        least one written column.
        """
        if not profile.is_write or projection.table != profile.anchor.table:
            return False
        if profile.statement_kind != "update":
            return True
        return not projection.column_set.isdisjoint(profile.written_columns)

    def _write_cost(self, profile: QueryProfile, design: PhysicalDesign) -> float:
        """DML cost: locate the affected rows, apply the base write, then
        charge per-structure maintenance for every projection the write
        touches (the robustness penalty of over-designing a hot table)."""
        if profile.statement_kind == "insert":
            locate = 0.0
        else:
            _, locate = self._best_projection(profile, design)
        cost = (QUERY_OVERHEAD_MS + locate) + self.base_write_cost(profile)
        for projection in design.for_table(profile.anchor.table):
            if self.write_touches(profile, projection):
                cost = cost + profile.affected_rows * self.maintenance_weight(projection)
        return cost

    def query_cost(self, sql_or_profile: str | QueryProfile, design: PhysicalDesign) -> float:
        """Estimated latency (model ms) of one query under ``design``."""
        profile = (
            sql_or_profile
            if isinstance(sql_or_profile, QueryProfile)
            else self.profile(sql_or_profile)
        )
        if profile.is_write:
            return self._write_cost(profile, design)
        _, anchor_cost = self._best_projection(profile, design)
        dim_cost = sum(self._dimension_cost(d, design) for d in profile.dimensions)
        return QUERY_OVERHEAD_MS + anchor_cost + dim_cost

    def workload_cost(self, queries, design: PhysicalDesign) -> WorkloadCostReport:
        """Cost every query in ``queries`` under ``design``.

        ``queries`` is an iterable of objects with ``sql`` and ``frequency``
        attributes (see :class:`repro.workload.query.WorkloadQuery`) or raw
        SQL strings (frequency 1).
        """
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
