"""Engine-agnostic costing infrastructure.

Both engines price queries from the same parsed, schema-resolved,
selectivity-annotated :class:`QueryProfile`; only the translation from
profile to milliseconds differs per engine.  On top of that shared
profile sits the :class:`CostEvaluationService` — batched neighborhood
evaluation over compiled workload arenas, with instrumentation — which
every :class:`repro.designers.base.DesignAdapter` routes its what-if
calls through.
"""

from repro.costing.kernel import kernel_for
from repro.costing.memo import BoundedMemo
from repro.costing.profile import QueryProfile, QueryProfiler, TableAccess
from repro.costing.report import WorkloadCostReport
from repro.costing.service import (
    CostEvaluationService,
    CostModel,
    CostServiceStats,
    design_fingerprint,
    query_fingerprint,
    workload_fingerprint,
)

__all__ = [
    "BoundedMemo",
    "CostEvaluationService",
    "CostModel",
    "CostServiceStats",
    "QueryProfile",
    "QueryProfiler",
    "TableAccess",
    "WorkloadCostReport",
    "design_fingerprint",
    "kernel_for",
    "query_fingerprint",
    "workload_fingerprint",
]
