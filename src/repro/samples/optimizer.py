"""What-if cost model for stratified-sample designs.

A sample can answer an aggregate query when every column the answer's
correctness depends on — filters and groupings — is a stratum column, so
each qualifying group is guaranteed representation in the sample.  The
query then scans ``fraction`` of the table instead of all of it; queries
no sample can serve run exactly on the base table.

Costs are model milliseconds on the same scale as the other two engines.
"""

from __future__ import annotations

from repro.catalog.schema import Schema
from repro.catalog.statistics import TableStatistics
from repro.costing.profile import QueryProfile, QueryProfiler
from repro.costing.report import WorkloadCostReport
from repro.samples.design import SampleDesign, StratifiedSample
from repro.sql.ast import Statement

#: Sequential scan cost per byte (matches the other engines).
BYTE_COST_MS = 5e-6
#: Per-row, per-predicate filter evaluation cost.
PREDICATE_COST_MS = 1e-5
#: Hash aggregation per input row.
HASH_AGG_COST_MS = 2e-5
#: Fixed per-query overhead.
QUERY_OVERHEAD_MS = 1.0
#: Per-byte cost of applying a write to a stored structure (shared value
#: across all three substrates).
WRITE_BYTE_COST_MS = 1e-5
#: Fixed per-affected-row upkeep of one stratified sample (reservoir
#: membership test plus stratum counter update).
SAMPLE_MAINT_ROW_MS = 1e-4
#: Queries whose estimated relative error would exceed this cannot be
#: served approximately (the optimizer refuses, as AQP systems do).
MAX_RELATIVE_ERROR = 0.12


class SamplesCostModel:
    """Prices queries against stratified-sample designs."""

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

    def annotate(self, sql: str, statement: Statement) -> QueryProfile:
        """The profile of a text priced once, not memoised (see
        :meth:`QueryProfiler.annotate`)."""
        return self.profiler.annotate(sql, statement)

    # -- serviceability -----------------------------------------------------------

    def answers(self, profile: QueryProfile, sample: StratifiedSample) -> bool:
        """Whether ``sample`` can answer ``profile`` with bounded error."""
        if profile.anchor.table != sample.table or profile.dimensions:
            return False
        if not profile.has_aggregates:
            return False  # samples answer aggregates, not row retrieval
        if any(agg.distinct for agg in profile.aggregates):
            return False  # COUNT(DISTINCT) does not scale from a sample
        depends_on = profile.anchor.predicate_columns | set(profile.group_by)
        if not depends_on <= sample.strata_set:
            return False
        stats = self.statistics[sample.table]
        return sample.relative_error(stats) <= MAX_RELATIVE_ERROR

    # -- costing --------------------------------------------------------------------

    def _scan_cost(self, profile: QueryProfile, rows: float) -> float:
        access = profile.anchor
        cost = rows * access.needed_bytes * BYTE_COST_MS
        cost += rows * access.predicate_count * PREDICATE_COST_MS
        filtered = max(rows * access.total_selectivity, 1.0)
        if profile.group_by or profile.has_aggregates:
            cost += filtered * HASH_AGG_COST_MS
        return cost

    def sample_cost(
        self, profile: QueryProfile, sample: StratifiedSample
    ) -> float | None:
        """Cost of answering ``profile`` from ``sample`` (None = cannot)."""
        if not self.answers(profile, sample):
            return None
        stats = self.statistics[sample.table]
        return self._scan_cost(profile, float(sample.sample_rows(stats)))

    # DesignAdapter-compatible alias.
    structure_cost = sample_cost

    def exact_cost(self, profile: QueryProfile) -> float:
        """Full-table (exact) execution cost."""
        rows = float(self.statistics[profile.anchor.table].row_count)
        dims = sum(
            self._scan_cost_dim(d) for d in profile.dimensions
        )
        return self._scan_cost(profile, rows) + dims

    def _scan_cost_dim(self, access) -> float:
        rows = float(self.statistics[access.table].row_count)
        return rows * access.row_bytes * BYTE_COST_MS

    # -- write costing --------------------------------------------------------------

    def base_write_cost(self, profile: QueryProfile) -> float:
        """Design-independent cost of applying the write to base storage."""
        return (profile.affected_rows * profile.written_bytes) * WRITE_BYTE_COST_MS

    def maintenance_weight(self, sample: StratifiedSample) -> float:
        """Per-affected-row cost of keeping ``sample`` current.

        Only ``fraction`` of the written rows land in the sample, so the
        byte component scales with the sampling rate.
        """
        table = self.schema.table(sample.table)
        return SAMPLE_MAINT_ROW_MS + (
            sample.fraction * table.row_bytes
        ) * WRITE_BYTE_COST_MS

    def write_touches(self, profile: QueryProfile, sample: StratifiedSample) -> bool:
        """Whether ``profile``'s write forces maintenance of ``sample``.

        Inserts and deletes change sample membership; updates only matter
        when they rewrite a stratum column (the stratification itself).
        """
        if not profile.is_write or sample.table != profile.anchor.table:
            return False
        if profile.statement_kind != "update":
            return True
        return bool(sample.strata_set & set(profile.written_columns))

    def _write_cost(self, profile: QueryProfile, design: SampleDesign) -> float:
        """DML cost: locate the affected rows (always on the base table —
        samples cannot answer writes), apply the base write, then charge
        per-sample maintenance."""
        if profile.statement_kind == "insert":
            locate = 0.0
        else:
            locate = self.exact_cost(profile)
        cost = (QUERY_OVERHEAD_MS + locate) + self.base_write_cost(profile)
        for sample in design.for_table(profile.anchor.table):
            if self.write_touches(profile, sample):
                cost = cost + profile.affected_rows * self.maintenance_weight(sample)
        return cost

    def query_cost(self, sql_or_profile, design: SampleDesign) -> float:
        """Estimated latency (model ms) of one query under ``design``."""
        profile = (
            sql_or_profile
            if isinstance(sql_or_profile, QueryProfile)
            else self.profile(sql_or_profile)
        )
        if profile.is_write:
            return self._write_cost(profile, design)
        _, best = self._best_sample(profile, design)
        return QUERY_OVERHEAD_MS + best

    def choose_sample(
        self, profile: QueryProfile, design: SampleDesign
    ) -> StratifiedSample | None:
        """The sample the optimizer would use (None = exact execution)."""
        return self._best_sample(profile, design)[0]

    def _best_sample(
        self, profile: QueryProfile, design: SampleDesign
    ) -> tuple[StratifiedSample | None, float]:
        """The cheapest path — exact execution (``None``) or one of the
        design's samples — and its cost."""
        best_sample = None
        best = self.exact_cost(profile)
        for sample in design.for_table(profile.anchor.table):
            cost = self.sample_cost(profile, sample)
            if cost is not None and cost < best:
                best_sample, best = sample, cost
        return best_sample, best

    def workload_cost(self, queries, design: SampleDesign) -> WorkloadCostReport:
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
