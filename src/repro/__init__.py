"""CliffGuard: a principled framework for finding robust database designs.

A full reproduction of Mozafari, Goh, Yoon (SIGMOD 2015), including the
substrates the paper ran on: a columnar engine with Vertica-style
projections, a DBMS-X-style row store with indices and materialized views,
nominal designers for both, the workload distance metrics and
Γ-neighborhood sampler, the CliffGuard robust designer, the baseline
designers of Section 6.1, and a replay harness regenerating every table
and figure of the evaluation.

Quick start — the supported entry point is the :mod:`repro.api` facade::

    from repro import RobustDesignSession, RunConfig

    with RobustDesignSession(RunConfig(workload="R1", backend="process", jobs=4)) as s:
        outcome = s.design()       # robust design for the latest window
        comparison = s.replay()    # Figure 7: the designer comparison
        sweep = s.sweep()          # Figures 8-9: the robustness knob

Online tuning (design-as-a-service) runs through the same facade: pair
the batch ``RunConfig`` with a streaming ``ServeConfig`` and the session
becomes a crash-restartable daemon (docs/serving.md)::

    outcome = repro.serve_session(workload="R1").serve(max_queries=500)

The building blocks remain importable for hand-wired setups::

    from repro import (
        build_star_schema, r1_profile, TraceGenerator, split_windows,
        ColumnarCostModel, ColumnarAdapter, ColumnarNominalDesigner,
        WorkloadDistance, NeighborhoodSampler, CliffGuard,
    )

    schema, roles = build_star_schema()
    trace = TraceGenerator(schema, roles, r1_profile(), seed=1).generate(90)
    windows = split_windows(trace, 28)

    adapter = ColumnarAdapter(ColumnarCostModel(schema))
    nominal = ColumnarNominalDesigner(adapter)
    distance = WorkloadDistance(schema.total_columns)
    sampler = NeighborhoodSampler(distance, schema)

    robust = CliffGuard(nominal, adapter, sampler, gamma=0.001)
    design = robust.design(windows[0])
"""

from repro.catalog import Column, ColumnType, ForeignKey, Schema, Table
from repro.core import CliffGuard, bnt_minimize, gamma_from_history, move_workload
from repro.designers import (
    ColumnarAdapter,
    ColumnarNominalDesigner,
    FutureKnowingDesigner,
    MajorityVoteDesigner,
    NoDesign,
    OptimalLocalSearchDesigner,
    RowstoreAdapter,
    RowstoreNominalDesigner,
    default_budget_bytes,
)
from repro.engine import (
    ColumnarCostModel,
    ColumnarDatabase,
    ColumnarExecutor,
    PhysicalDesign,
    Projection,
    SortColumn,
)
from repro.harness import replay
from repro.obs import (
    MetricsRegistry,
    RunTracer,
    get_metrics,
    set_tracer,
    trace_to,
    tracer,
)
from repro.rowstore import (
    Index,
    MaterializedView,
    RowstoreCostModel,
    RowstoreDatabase,
    RowstoreDesign,
    RowstoreExecutor,
)
from repro.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.workload import (
    NeighborhoodSampler,
    TraceGenerator,
    Workload,
    WorkloadDistance,
    WorkloadQuery,
    build_star_schema,
    ecommerce_profile,
    htap_profile,
    oltp_profile,
    r1_profile,
    s1_profile,
    s2_profile,
    split_windows,
)

from repro.serve import (
    QuerySource,
    QueueSource,
    ServeConfig,
    SocketSource,
    TraceSource,
)

# The facade imports the experiment harness, which imports the designer and
# engine layers above — so it must come last.
from repro.api import (
    DesignOutcome,
    RobustDesignSession,
    RunConfig,
    ServeOutcome,
    serve_session,
)

__version__ = "1.3.0"

__all__ = [
    "CliffGuard",
    "DesignOutcome",
    "ExecutionBackend",
    "ProcessBackend",
    "QuerySource",
    "QueueSource",
    "RobustDesignSession",
    "RunConfig",
    "SerialBackend",
    "ServeConfig",
    "ServeOutcome",
    "SocketSource",
    "TraceSource",
    "ThreadBackend",
    "Column",
    "ColumnType",
    "ColumnarAdapter",
    "ColumnarCostModel",
    "ColumnarDatabase",
    "ColumnarExecutor",
    "ColumnarNominalDesigner",
    "ForeignKey",
    "FutureKnowingDesigner",
    "Index",
    "MajorityVoteDesigner",
    "MaterializedView",
    "MetricsRegistry",
    "NeighborhoodSampler",
    "NoDesign",
    "OptimalLocalSearchDesigner",
    "PhysicalDesign",
    "Projection",
    "RowstoreAdapter",
    "RowstoreCostModel",
    "RowstoreDatabase",
    "RowstoreDesign",
    "RowstoreExecutor",
    "RowstoreNominalDesigner",
    "RunTracer",
    "Schema",
    "SortColumn",
    "Table",
    "TraceGenerator",
    "Workload",
    "WorkloadDistance",
    "WorkloadQuery",
    "bnt_minimize",
    "build_star_schema",
    "default_budget_bytes",
    "gamma_from_history",
    "get_metrics",
    "move_workload",
    "ecommerce_profile",
    "htap_profile",
    "oltp_profile",
    "r1_profile",
    "replay",
    "s1_profile",
    "s2_profile",
    "serve_session",
    "set_tracer",
    "split_windows",
    "trace_to",
    "tracer",
]
