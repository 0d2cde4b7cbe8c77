"""Column statistics and selectivity estimation.

Both what-if cost models estimate predicate selectivities from the same
statistics a production optimizer would keep: distinct-value counts,
min/max bounds, and equi-width histograms.  Statistics can be *declared*
(derived from the schema, for cost-only runs) or *measured* from generated
data (for runs that also execute queries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.catalog.schema import Column, Table
from repro.catalog.types import ColumnType
from repro.sql.ast import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    IsNullPredicate,
    LikePredicate,
    PredicateType,
)

#: Default selectivity for predicate shapes the estimator cannot reason
#: about precisely (mirrors the classic System R magic numbers).
DEFAULT_LIKE_SELECTIVITY = 0.1
DEFAULT_NULL_FRACTION = 0.01
#: Histogram resolution for measured statistics.
HISTOGRAM_BINS = 64


@dataclass
class ColumnStatistics:
    """Statistics for one column."""

    ndv: int
    min_value: float
    max_value: float
    null_fraction: float = 0.0
    histogram: np.ndarray | None = None  # normalized equi-width bin masses
    histogram_edges: np.ndarray | None = None

    @classmethod
    def declared(cls, column: Column, row_count: int) -> "ColumnStatistics":
        """Build statistics from the schema declaration alone.

        Values are assumed to span ``[0, ndv)`` — exactly what the data
        generator produces for codes — so declared and measured statistics
        agree in expectation.
        """
        ndv = min(column.ndv, row_count)
        if column.type is ColumnType.BOOL:
            ndv = 2
        return cls(ndv=ndv, min_value=0.0, max_value=float(max(ndv - 1, 0)))

    @classmethod
    def measured(cls, values: np.ndarray) -> "ColumnStatistics":
        """Compute statistics from actual column values."""
        if values.size == 0:
            return cls(ndv=1, min_value=0.0, max_value=0.0)
        if values.dtype == np.bool_:
            values = values.astype(np.int64)
        finite = values[np.isfinite(values.astype(np.float64))]
        if finite.size == 0:  # pragma: no cover - NaN-only columns
            return cls(ndv=1, min_value=0.0, max_value=0.0)
        lo = float(finite.min())
        hi = float(finite.max())
        ndv = int(np.unique(finite).size)
        hist, edges = np.histogram(
            finite.astype(np.float64), bins=HISTOGRAM_BINS, range=(lo, max(hi, lo + 1e-9))
        )
        mass = hist.astype(np.float64)
        total = mass.sum()
        if total > 0:
            mass /= total
        return cls(
            ndv=max(ndv, 1),
            min_value=lo,
            max_value=hi,
            histogram=mass,
            histogram_edges=edges,
        )

    # -- selectivity primitives ------------------------------------------------

    def equality_selectivity(self) -> float:
        """Selectivity of ``col = const`` (uniform over NDV)."""
        return 1.0 / max(self.ndv, 1)

    def range_fraction(self, low: float, high: float) -> float:
        """Fraction of values in ``[low, high]``.

        Uses the histogram when available, otherwise assumes a uniform
        spread between min and max.
        """
        if high < low:
            return 0.0
        lo = max(low, self.min_value)
        hi = min(high, self.max_value)
        if hi < lo:
            return 0.0
        span = self.max_value - self.min_value
        if span <= 0:
            return 1.0
        if self.histogram is None or self.histogram_edges is None:
            return min(1.0, max(0.0, (hi - lo) / span))
        edges = self.histogram_edges
        mass = 0.0
        for i, bin_mass in enumerate(self.histogram):
            b_lo, b_hi = edges[i], edges[i + 1]
            width = b_hi - b_lo
            if width <= 0:
                continue
            overlap = max(0.0, min(hi, b_hi) - max(lo, b_lo))
            mass += bin_mass * (overlap / width)
        return min(1.0, max(0.0, mass))


def _literal_as_float(value: object) -> float | None:
    """A range bound as a float; ``None`` for a string constant.

    String constants are compared by dictionary code in the engines; for
    estimation we fall back to NDV-based uniformity.  An integer beyond
    the float range reads as ±inf, which :meth:`range_fraction` clamps.
    """
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return None


@dataclass
class TableStatistics:
    """Statistics for a whole table."""

    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    @classmethod
    def declared(cls, table: Table) -> "TableStatistics":
        """Derive statistics from the table declaration."""
        return cls(
            row_count=table.row_count,
            columns={
                column.name: ColumnStatistics.declared(column, table.row_count)
                for column in table.columns
            },
        )

    def column(self, name: str) -> ColumnStatistics:
        """Look up statistics for a column by bare name."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"no statistics for column {name!r}") from None

    def predicate_selectivity(self, predicate: PredicateType) -> float:
        """Estimate the selectivity of one predicate against this table.

        Unknown columns estimate conservatively at 1.0 (no filtering) so a
        workload referencing stale schema never crashes the designers — the
        paper's real trace had exactly this property (only 15.5K of 430K
        queries conformed to the latest schema).
        """
        name = predicate.column.name
        if name not in self.columns:
            return 1.0
        stats = self.columns[name]
        if isinstance(predicate, ComparisonPredicate):
            if predicate.op == "=":
                return stats.equality_selectivity()
            if predicate.op == "!=":
                return max(0.0, 1.0 - stats.equality_selectivity())
            value = _literal_as_float(predicate.value.value)
            if value is None:
                # Range over a non-numeric literal: assume a third passes.
                return 1.0 / 3.0
            if predicate.op in ("<", "<="):
                return stats.range_fraction(stats.min_value, value)
            return stats.range_fraction(value, stats.max_value)
        if isinstance(predicate, BetweenPredicate):
            low = _literal_as_float(predicate.low.value)
            high = _literal_as_float(predicate.high.value)
            if low is None or high is None:
                return 1.0 / 4.0
            return stats.range_fraction(low, high)
        if isinstance(predicate, InPredicate):
            return min(1.0, len(predicate.values) * stats.equality_selectivity())
        if isinstance(predicate, LikePredicate):
            return DEFAULT_LIKE_SELECTIVITY
        if isinstance(predicate, IsNullPredicate):
            null_fraction = stats.null_fraction or DEFAULT_NULL_FRACTION
            return (1.0 - null_fraction) if predicate.negated else null_fraction
        raise TypeError(f"unknown predicate type: {type(predicate).__name__}")
