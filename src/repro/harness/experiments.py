"""One entry point per paper table and figure.

Every function takes an :class:`ExperimentScale` so the same code runs at
bench scale (fast, seeded) or closer to the paper's full scale.  Results
are structured objects plus rendered text (see
:mod:`repro.harness.reporting`); the benchmark files under ``benchmarks/``
print them.

Experiment ↔ paper mapping (see DESIGN.md §4 for the full index):

========  =======================================================
T1        Table 1 — δ statistics of R1/S1/S2
F5        Figure 5 — template-sharing decay vs window lag
F6        Figure 6 — distance-vs-performance soundness
F7        Figure 7 — designer comparison, columnar, R1/S1/S2
F8, F9    Figures 8–9 — Γ sweeps on R1 and S2
F10, F15  Figures 10, 15 — designer comparison, row store
F11       Figure 11 — distance-metric ablation
F12, F13  Figures 12–13 — sample-size and iteration sweeps
F14       Figure 14 — offline design time vs deployment time
F16       Figure 16 — δ_latency correlation at ω = 0.1 / 0.2
========  =======================================================
"""

from __future__ import annotations

import statistics as stats_module
from dataclasses import astuple, dataclass, field

import numpy as np

from repro.core.knob import drift_history, gamma_from_history
from repro.designers import registry
from repro.designers.base import (
    ColumnarAdapter,
    DesignAdapter,
    RowstoreAdapter,
    default_budget_bytes,
)
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.obs import tracer
from repro.parallel.backends import ExecutionBackend, resolve_backend
from repro.rowstore.optimizer import RowstoreCostModel
from repro.serve.policy import PeriodicPolicy, RedesignPolicy
from repro.serve.sources import TraceSource
from repro.state import CheckpointMismatchError, RunCheckpointer, run_key
from repro.workload.distance import SWGO, LatencyAwareDistance, WorkloadDistance
from repro.workload.families import ecommerce_profile, htap_profile, oltp_profile
from repro.workload.generator import (
    DriftProfile,
    TraceGenerator,
    build_star_schema,
    r1_profile,
    s1_profile,
    s2_profile,
)
from repro.workload.query import WorkloadQuery
from repro.workload.sampler import NeighborhoodSampler
from repro.workload.windows import shared_template_fraction, split_windows
from repro.workload.workload import Workload
from repro.harness.replay import DesignerRun, ReplayResult, replay


@dataclass
class ExperimentScale:
    """Size knobs shared by all experiments."""

    days: int = 168
    window_days: int = 28
    queries_per_day: int = 30
    n_samples: int = 10
    iterations: int = 5
    seed: int = 42
    legacy_tables: int = 200
    #: Cap on train→test transitions per replay (None = all).
    max_transitions: int | None = None
    #: Transitions to skip at the start of every replay.  The generators
    #: model recurring workloads, so the first windows carry no history for
    #: any designer to exploit; skipping them reduces warm-up noise.
    skip_transitions: int = 3
    #: Budget as a fraction of raw data bytes (Vertica picked ~1/3).
    budget_fraction: float = 0.5


def smoke_scale() -> ExperimentScale:
    """Fast seeded scale for the benchmark suite and integration tests."""
    return ExperimentScale(
        days=196,
        queries_per_day=18,
        n_samples=12,
        max_transitions=2,
        skip_transitions=4,
    )


def paper_scale() -> ExperimentScale:
    """Closer to the paper's 12-month trace and n = 20 samples."""
    return ExperimentScale(days=364, queries_per_day=40, n_samples=20)


# -- shared context ------------------------------------------------------------------


@dataclass
class ExperimentContext:
    """Schema, traces, windows, and distance shared by the experiments."""

    scale: ExperimentScale
    schema: object = None
    roles: object = None
    distance: WorkloadDistance = None
    traces: dict[str, list[WorkloadQuery]] = field(default_factory=dict)
    windows: dict[str, list[Workload]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.schema, self.roles = build_star_schema(
            legacy_tables=self.scale.legacy_tables
        )
        self.distance = WorkloadDistance(self.schema.total_columns)

    def profile_for(self, name: str) -> DriftProfile:
        factories = {
            "R1": r1_profile,
            "S1": s1_profile,
            "S2": s2_profile,
            "OLTP": oltp_profile,
            "ECOMMERCE": ecommerce_profile,
            "HTAP": htap_profile,
        }
        return factories[name](queries_per_day=self.scale.queries_per_day)

    def trace(self, name: str) -> list[WorkloadQuery]:
        if name not in self.traces:
            generator = TraceGenerator(
                self.schema, self.roles, self.profile_for(name), seed=self.scale.seed
            )
            self.traces[name] = generator.generate(days=self.scale.days)
        return self.traces[name]

    def trace_windows(self, name: str) -> list[Workload]:
        if name not in self.windows:
            self.windows[name] = split_windows(
                self.trace(name), self.scale.window_days
            )
        return self.windows[name]

    def default_gamma(self, name: str) -> float:
        """The paper's simplest knob strategy: average past drift."""
        history = drift_history(self.trace_windows(name), self.distance)
        return gamma_from_history(history, strategy="avg")

    def window_source(self, name: str) -> TraceSource:
        """The trace wrapped as a bounded :class:`QuerySource`.

        The source carries the cached window list verbatim: every call
        hands the harness the same ``Workload`` objects.
        """
        return TraceSource.from_windows(
            self.trace_windows(name), window_days=self.scale.window_days
        )

    # -- engine stacks -----------------------------------------------------------

    # ``backend`` on the two adapter factories is accepted and ignored:
    # costing is in-process on every backend, but the frozen end-to-end
    # benchmark (benchmarks/e2e/workloads.py) still passes it.

    def columnar_adapter(self, backend=None) -> ColumnarAdapter:
        return ColumnarAdapter(
            ColumnarCostModel(self.schema),
            default_budget_bytes(self.schema, self.scale.budget_fraction),
        )

    def rowstore_adapter(self, backend=None) -> RowstoreAdapter:
        # The paper gave DBMS-X a proportionally larger budget than Vertica
        # (10 GB for a 20 GB dataset vs 50 GB for 151 GB): row-store
        # structures are less byte-efficient, so the same workload needs a
        # bigger fraction of the data size.
        return RowstoreAdapter(
            RowstoreCostModel(self.schema),
            default_budget_bytes(
                self.schema, min(1.0, self.scale.budget_fraction * 1.6)
            ),
        )

    def sampler(self, distance: WorkloadDistance | None = None) -> NeighborhoodSampler:
        return NeighborhoodSampler(
            distance or self.distance, self.schema, seed=self.scale.seed
        )


def _engine_stack(context: ExperimentContext, engine: str):
    """(adapter, nominal designer) for one engine name."""
    if engine == "columnar":
        adapter = context.columnar_adapter()
        return adapter, ColumnarNominalDesigner(adapter)
    if engine == "rowstore":
        adapter = context.rowstore_adapter()
        return adapter, RowstoreNominalDesigner(adapter)
    raise ValueError(f"unknown engine {engine!r}")


def _build_designers(
    context: ExperimentContext,
    adapter: DesignAdapter,
    nominal,
    gamma: float,
    which: list[str] | None = None,
    distance: WorkloadDistance | None = None,
    **cfg,
) -> tuple[dict, list[NeighborhoodSampler]]:
    """The Section 6.1 designer zoo, built through the designer registry.

    ``cfg`` overrides the scale's ``n_samples`` / ``max_iterations``; the
    registry forwards any other keyword to ``CliffGuard``'s constructor.
    """
    scale = context.scale
    cfg = {"n_samples": scale.n_samples, "max_iterations": scale.iterations, **cfg}
    return registry.build_all(
        adapter, nominal, gamma, lambda: context.sampler(distance), which, **cfg
    )


def _past_pool_hook(
    trace: list[WorkloadQuery], samplers: list[NeighborhoodSampler], before_train=False
):
    """Replay hook: before each transition, restrict the samplers' pools to
    queries that happened strictly before the test window — or before the
    train window, with ``before_train``."""

    def hook(_index: int, train: Workload, test: Workload) -> None:
        start, _ = (train if before_train else test).span_days
        past = [q for q in trace if q.timestamp < start]
        for sampler in samplers:
            sampler.set_pool(past)

    return hook


def _replay(
    context: ExperimentContext,
    workload: str,
    designers: dict,
    samplers: list[NeighborhoodSampler],
    adapter: DesignAdapter,
    nominal,
    checkpointer: RunCheckpointer | None = None,
    state_key: str | None = None,
    policy: RedesignPolicy | None = None,
) -> ReplayResult:
    """The one replay protocol behind every figure: the scale's transition
    window, the beneficial-query filter, sampler pools kept in the past.

    A re-design ``policy`` runs the schedule comparison's protocol
    instead: every transition, each priced on its whole test window, and
    pools kept before the train window a design is built from.
    """
    scheduled = policy is not None
    return replay(
        context.window_source(workload),
        designers,
        adapter,
        candidate_source=None if scheduled else nominal,
        workload_name=workload,
        max_transitions=None if scheduled else context.scale.max_transitions,
        skip_transitions=0 if scheduled else context.scale.skip_transitions,
        before_transition=_past_pool_hook(
            context.trace(workload), samplers, before_train=scheduled
        ),
        checkpointer=checkpointer,
        state_key=state_key,
        policy=policy,
    )


def _cliffguard_point(
    context: ExperimentContext,
    adapter: DesignAdapter,
    nominal,
    workload: str,
    gamma: float,
    distance: WorkloadDistance | None = None,
    **cfg,
):
    """Replay one CliffGuard variant: ``((avg, max) latency, designer)``."""
    designers, samplers = _build_designers(
        context, adapter, nominal, gamma, ["CliffGuard"], distance, **cfg
    )
    outcome = _replay(context, workload, designers, samplers, adapter, nominal)
    run = outcome.run("CliffGuard")
    return (run.mean_average_ms, run.mean_max_ms), designers["CliffGuard"]


def _cell_stack(context: ExperimentContext, engine: str):
    """A sweep cell's own mutable state: ``(adapter, nominal, distance)``.

    Cells read the context's traces and windows (shared by reference in
    process, pickled to a worker) but share no cost service — it carries
    the counters a cell reports — and no distance metric — it assigns
    column bits on first sight, a race between cells on a thread pool.
    That keeps results and counters independent of the worker count.
    """
    adapter, nominal = _engine_stack(context, engine)
    return adapter, nominal, WorkloadDistance(context.schema.total_columns)


def _run_cells(
    kind: str,
    state_key: str,
    state: dict,
    done_field: str,
    cells: dict,
    task,
    backend: ExecutionBackend | str,
    checkpointer: RunCheckpointer | None,
    finish=None,
    snapshot=None,
) -> dict:
    """The one resumable fan-out behind the three sweeps.

    ``cells`` maps each cell's key to its task tuple; ``state`` is the
    fresh checkpoint payload of this ``kind`` and ``state[done_field]``
    its ``{key: result}`` dict.  Restores the latest snapshot when
    resuming, maps the pending cells on the backend, stores each result
    — what ``finish(state, key, result)`` returns, when given — and
    checkpoints the payload, or what ``snapshot(state)`` returns when
    given.  Returns the payload with its
    finished cells in ``cells`` order.
    """
    executor = resolve_backend(backend)
    loaded = checkpointer.load(kind, state_key) if checkpointer is not None else None
    if loaded is not None:
        state = loaded
    done = state[done_field]
    # The run key covers the requested cells, but a forged or hand-moved
    # snapshot could still carry others; returning them would be silent
    # corruption, so reject loudly instead.
    stale = [key for key in done if key not in cells]
    if stale:
        raise CheckpointMismatchError(
            f"{kind} resume: snapshot contains cells {stale} "
            f"not in the requested selection {list(cells)}"
        )
    pending = [key for key in cells if key not in done]
    # One worker runs the cells one after another however they are
    # submitted, so it gets one ``map`` — and one checkpoint — per cell;
    # a wider pool gets them all at once and checkpoints when they land.
    width = 1 if executor.jobs == 1 else max(1, len(pending))
    for first in range(0, len(pending), width):
        batch = pending[first : first + width]
        results = executor.map(task, [cells[key] for key in batch])
        for key, result in zip(batch, results):
            done[key] = result if finish is None else finish(state, key, result)
        if checkpointer is not None:
            checkpointer.step(
                kind, state_key, lambda: state if snapshot is None else snapshot(state)
            )
    state[done_field] = {key: done[key] for key in cells}
    return state


# -- T1: Table 1 ------------------------------------------------------------------------


@dataclass
class Table1Row:
    workload: str
    minimum: float
    maximum: float
    average: float
    std: float


def run_table1(context: ExperimentContext) -> list[Table1Row]:
    """δ(W_i, W_{i+1}) statistics per workload (paper Table 1)."""
    rows: list[Table1Row] = []
    for name in ("R1", "S1", "S2"):
        windows = context.trace_windows(name)
        deltas = drift_history(windows, context.distance)
        rows.append(
            Table1Row(
                workload=name,
                minimum=min(deltas),
                maximum=max(deltas),
                average=stats_module.fmean(deltas),
                std=stats_module.pstdev(deltas) if len(deltas) > 1 else 0.0,
            )
        )
    return rows


# -- F5: Figure 5 ------------------------------------------------------------------------


def run_fig5(
    context: ExperimentContext,
    window_sizes: tuple[int, ...] = (7, 14, 21, 28),
) -> dict[int, list[tuple[int, float]]]:
    """Shared-template fraction vs window lag, per window size, on R1."""
    trace = context.trace("R1")
    curves: dict[int, list[tuple[int, float]]] = {}
    for window_days in window_sizes:
        windows = split_windows(trace, window_days)
        points: list[tuple[int, float]] = []
        max_lag = len(windows) - 1
        for lag in range(1, max_lag + 1):
            fractions = [
                shared_template_fraction(windows[i], windows[i + lag])
                for i in range(len(windows) - lag)
            ]
            if fractions:
                points.append((lag, float(np.mean(fractions))))
        curves[window_days] = points
    return curves


# -- F6: Figure 6 ------------------------------------------------------------------------


def run_fig6(
    context: ExperimentContext,
    n_probes: int = 8,
    anchors: int = 3,
) -> list[tuple[float, float]]:
    """(distance from W0, avg latency on W0's design) pairs, on R1.

    For several anchor windows W0: design nominally for W0, then sample
    workloads at increasing distances and measure their latency under that
    design — the soundness experiment behind Figure 6.  Like the paper
    (which averages many windows per distance), each probe distance is
    averaged over the anchors and over three independent samples.
    """
    adapter, nominal = _engine_stack(context, "columnar")
    windows = [w for w in context.trace_windows("R1") if len(w) > 0]
    sampler = context.sampler()
    gamma = context.default_gamma("R1") * 4
    anchor_windows = windows[: max(1, min(anchors, len(windows)))]
    alphas = np.linspace(0.0, gamma, n_probes)
    sums = np.zeros((n_probes, 2))
    counts = np.zeros(n_probes)
    for anchor in anchor_windows:
        design = nominal.design(anchor)
        sampler.set_pool(
            [q for w in windows if w is not anchor for q in w]
        )
        for i, alpha in enumerate(alphas):
            for _ in range(3):
                probe = sampler.sample_at(anchor, float(alpha))
                achieved = context.distance(anchor, probe)
                latency = adapter.workload_cost(probe, design).average_ms
                sums[i] += (achieved, latency)
                counts[i] += 1
    points = [
        (float(sums[i][0] / counts[i]), float(sums[i][1] / counts[i]))
        for i in range(n_probes)
        if counts[i]
    ]
    points.sort(key=lambda p: p[0])
    return points


# -- F7 / F10 / F15: designer comparisons -----------------------------------------------


def run_designer_comparison(
    context: ExperimentContext,
    workload: str,
    engine: str = "columnar",
    which: list[str] | None = None,
    gamma: float | None = None,
    backend: ExecutionBackend | str = "serial",
    checkpointer: RunCheckpointer | None = None,
) -> ReplayResult:
    """The Figure 7 / 10 / 15 experiment for one workload and engine.

    On a one-worker ``backend`` the designers share one adapter (and its
    warm cost service) in a single replay; on more workers every designer
    replays as an isolated cell (its own adapter and seeded sampler over
    the shared context) and the comparison fans out.  Window outcomes,
    learner stats and evaluated-query counts are the same either way.

    ``checkpointer`` makes the comparison resumable: per window transition
    in the shared replay (through :func:`replay`), per finished designer
    on the cell path (:func:`_run_cells`).  See docs/state.md.
    """
    if gamma is None:
        gamma = context.default_gamma(workload)
    # Duplicate or unknown names would double-run designers and corrupt
    # the name-keyed resume dict below; reject them before any work.
    names = registry.validate_names(which) if which is not None else registry.names()
    state_key = run_key(
        "designer_comparison", astuple(context.scale), workload, engine, tuple(names), gamma
    )
    executor = resolve_backend(backend)
    if executor.jobs == 1:
        # One worker would run the cells one after another, each warming
        # a service of its own; one shared service gives the same results
        # in less time (docs/api.md).
        adapter, nominal = _engine_stack(context, engine)
        designers, samplers = _build_designers(context, adapter, nominal, gamma, which)
        return _replay(
            context, workload, designers, samplers, adapter, nominal, checkpointer, state_key
        )
    context.trace_windows(workload)  # generated once here, not once per worker
    t = tracer()

    def finish(state: dict, name: str, result) -> DesignerRun:
        _, run, counts = result
        # Every designer replays the identical window sequence, so the
        # evaluated-query counts are a per-designer invariant; adopting
        # the first cell's list and trusting the rest would let a
        # divergent replay slip through unnoticed.
        if not state["counts"]:
            state["counts"] = counts
        elif counts != state["counts"]:
            raise RuntimeError(
                f"designer_comparison: evaluated-query counts diverged for "
                f"{name!r}: expected {state['counts']}, task produced {counts} — "
                "designer tasks no longer replay identical windows"
            )
        if t.enabled:
            # Worker processes carry the null tracer, so fanned-out
            # replays surface here as one summary event per designer.
            t.emit(
                "designer_result", workload=workload, engine=engine, designer=name,
                avg_ms=run.mean_average_ms, max_ms=run.mean_max_ms,
            )
        return run

    cells = {name: (context, workload, engine, name, gamma) for name in names}
    state = _run_cells(
        "designer_comparison", state_key, {"runs": {}, "counts": []}, "runs",
        cells, _designer_comparison_task, executor, checkpointer, finish,
        snapshot=lambda state: {
            **state, "runs": {name: run.without_timings() for name, run in state["runs"].items()}
        },
    )
    return ReplayResult(
        workload_name=workload, runs=state["runs"], evaluated_query_counts=state["counts"]
    )


def _designer_comparison_task(task) -> tuple[str, DesignerRun, list[int]]:
    """One designer's full replay (module-level: process-backend task)."""
    context, workload, engine, name, gamma = task
    adapter, nominal, distance = _cell_stack(context, engine)
    designers, samplers = _build_designers(context, adapter, nominal, gamma, [name], distance)
    outcome = _replay(context, workload, designers, samplers, adapter, nominal)
    return name, outcome.runs[name], outcome.evaluated_query_counts


# -- F8 / F9: the Γ sweep ---------------------------------------------------------------


def run_gamma_sweep(
    context: ExperimentContext,
    workload: str,
    gammas: list[float] | None = None,
    backend: ExecutionBackend | str = "serial",
    checkpointer: RunCheckpointer | None = None,
) -> dict[float, tuple[float, float]]:
    """CliffGuard's (avg, max) latency per Γ; Γ = 0 is the nominal case.

    Every Γ replays as an independent cell (its own adapter and seeded
    sampler over the shared context) on the execution ``backend``, so the
    sweep is bit-identical at any worker count.

    ``checkpointer`` makes the sweep resumable at Γ-point granularity
    (:func:`_run_cells`, docs/state.md): on resume only pending Γ-points run.
    """
    base_gamma = context.default_gamma(workload)
    if gammas is None:
        gammas = [0.0, 0.25 * base_gamma, base_gamma, 2 * base_gamma, 6 * base_gamma]
    t = tracer()

    def finish(_state: dict, gamma: float, point: tuple[float, float]):
        if t.enabled:
            avg_ms, max_ms = point
            t.emit("gamma_result", workload=workload, gamma=gamma, avg_ms=avg_ms, max_ms=max_ms)
        return point

    state_key = run_key("gamma_sweep", astuple(context.scale), workload, tuple(gammas))
    cells = {gamma: (context, workload, gamma) for gamma in gammas}
    state = _run_cells(
        "gamma_sweep", state_key, {"results": {}}, "results",
        cells, _gamma_sweep_task, backend, checkpointer, finish,
    )
    return state["results"]


def _gamma_sweep_task(task) -> tuple[float, float]:
    """One Γ of the sweep (module-level: process-backend task)."""
    context, workload, gamma = task
    adapter, nominal, distance = _cell_stack(context, "columnar")
    return _cliffguard_point(context, adapter, nominal, workload, gamma, distance)[0]


# -- F11: distance ablation -------------------------------------------------------------


def run_distance_ablation(
    context: ExperimentContext,
) -> dict[str, tuple[float, float]]:
    """CliffGuard under different distance metrics on R1 (Figure 11)."""
    adapter, nominal = _engine_stack(context, "columnar")
    windows = context.trace_windows("R1")
    n = context.schema.total_columns
    variants: dict[str, WorkloadDistance | LatencyAwareDistance] = {
        "Euc-union (S)": WorkloadDistance(n, ("select",)),
        "Euc-union (W)": WorkloadDistance(n, ("where",)),
        "Euc-union (G)": WorkloadDistance(n, ("group_by",)),
        "Euc-union (O)": WorkloadDistance(n, ("order_by",)),
        "Euc-union (SWGO)": WorkloadDistance(n, SWGO),
        "Euc-separate": WorkloadDistance(n, "separate"),
        "Euc-latency": LatencyAwareDistance(
            WorkloadDistance(n, SWGO),
            baseline_cost=lambda w: adapter.workload_cost(
                w, adapter.empty_design()
            ).total_ms,
            omega=0.2,
        ),
    }
    results: dict[str, tuple[float, float]] = {}
    for label, metric in variants.items():
        # Γ-neighborhood *sampling* always uses the structural metric — the
        # paper itself notes sampling "becomes computationally prohibitive
        # when our distance metric involves computing the latency of
        # different queries" (Section 5).  The latency-aware variant enters
        # through the Γ calibration (and our worst-neighbor ranking is
        # already latency-based, unlike the paper's purely structural one).
        structural = metric.base if isinstance(metric, LatencyAwareDistance) else metric
        gamma = gamma_from_history(drift_history(windows, metric), "avg")
        results[label] = _cliffguard_point(
            context, adapter, nominal, "R1", gamma, structural
        )[0]
    return results


# -- F12 / F13: sample-size and iteration sweeps -----------------------------------------


def run_sample_size_sweep(
    context: ExperimentContext,
    sample_sizes: tuple[int, ...] = (2, 5, 10, 20, 40),
) -> dict[int, tuple[float, float]]:
    """CliffGuard's latency vs neighborhood sample count n on R1 (Figure 12)."""
    adapter, nominal = _engine_stack(context, "columnar")
    gamma = context.default_gamma("R1")
    return {
        n: _cliffguard_point(context, adapter, nominal, "R1", gamma, n_samples=n)[0]
        for n in sample_sizes
    }


def run_iteration_sweep(
    context: ExperimentContext,
    iteration_counts: tuple[int, ...] = (0, 1, 2, 5, 10, 20),
) -> dict[int, tuple[float, float]]:
    """CliffGuard's latency vs iteration budget on R1 (Figure 13)."""
    adapter, nominal = _engine_stack(context, "columnar")
    gamma = context.default_gamma("R1")
    return {
        n: _cliffguard_point(context, adapter, nominal, "R1", gamma, max_iterations=n)[0]
        for n in iteration_counts
    }


# -- F14: offline time -------------------------------------------------------------------


@dataclass
class OfflineTimeRow:
    designer: str
    design_seconds: float
    deployment_seconds: float


def run_offline_time(
    context: ExperimentContext,
    which: list[str] | None = None,
) -> list[OfflineTimeRow]:
    """Wall-clock design time vs modeled deployment time on R1 (Figure 14)."""
    adapter, nominal = _engine_stack(context, "columnar")
    gamma = context.default_gamma("R1")
    designers, samplers = _build_designers(context, adapter, nominal, gamma, which)
    outcome = _replay(context, "R1", designers, samplers, adapter, nominal)
    return [
        OfflineTimeRow(
            designer=name,
            design_seconds=run.mean_design_seconds,
            deployment_seconds=adapter.deployment_seconds(
                run.windows[-1].design_price_bytes if run.windows else 0
            ),
        )
        for name, run in outcome.runs.items()
    ]


# -- costing instrumentation (the `repro stats` CLI view) ---------------------------------


@dataclass
class CostingStatsOutcome:
    """Evaluation-service instrumentation for one CliffGuard replay."""

    workload: str
    engine: str
    replay: ReplayResult
    service_stats: object  # repro.costing.CostServiceStats
    cliffguard_report: object | None  # repro.core.cliffguard.CliffGuardReport


def run_costing_stats(
    context: ExperimentContext,
    workload: str,
    engine: str = "columnar",
    checkpointer: RunCheckpointer | None = None,
) -> CostingStatsOutcome:
    """Replay CliffGuard once and capture the cost-service counters.

    Backs ``python -m repro stats``: how many what-if calls the run
    requested, how many the model priced, the dedup ratio of the
    batched neighborhood evaluation, and the wall-time spent costing.
    ``checkpointer`` makes the replay resumable per window transition;
    the service counters survive through the checkpointed export.
    """
    adapter, nominal = _engine_stack(context, engine)
    gamma = context.default_gamma(workload)
    designers, samplers = _build_designers(context, adapter, nominal, gamma, ["CliffGuard"])
    state_key = run_key("costing_stats", astuple(context.scale), workload, engine, gamma)
    outcome = _replay(
        context, workload, designers, samplers, adapter, nominal, checkpointer, state_key
    )
    adapter.costing.publish_metrics()
    return CostingStatsOutcome(
        workload=workload,
        engine=engine,
        replay=outcome,
        service_stats=adapter.costing.stats.snapshot(),
        cliffguard_report=designers["CliffGuard"].last_report,
    )


# -- re-design scheduling (the operational-cost extension) --------------------------------


def run_schedule_comparison(
    context: ExperimentContext,
    workload: str = "R1",
    engine: str = "columnar",
    everies: tuple[int, ...] = (1, 2),
    designers: tuple[str, ...] = ("ExistingDesigner", "CliffGuard"),
    gamma: float | None = None,
    iterations: int | None = None,
    backend: ExecutionBackend | str = "serial",
    checkpointer: RunCheckpointer | None = None,
) -> dict[tuple[str, int], DesignerRun]:
    """A periodic-policy replay for every (designer, re-design period) pair.

    The executable form of the paper's claim (d): how much latency each
    designer loses when its designs must serve longer between re-designs.
    A run's ``redesign_count`` and ``deployment_seconds(adapter)`` give the
    operational cost.  Each (designer, period) pair is an independent
    deterministic cell (its own adapter and seeded sampler over the shared
    context) on the execution ``backend``.

    ``checkpointer`` records completed cells (see :func:`_run_cells`) and
    on resume runs only the pending ones.
    """
    if gamma is None:
        gamma = context.default_gamma(workload)
    context.trace_windows(workload)  # generated once here, not once per worker
    # "DesignerRun" keys the cells' result type: a snapshot whose cells
    # are the older schedule outcomes is refused, not unpickled.
    state_key = run_key(
        "schedule_comparison", astuple(context.scale), workload, engine,
        tuple(designers), tuple(everies), gamma, iterations, "DesignerRun",
    )
    cells = {
        (name, every): (context, workload, engine, name, every, gamma, iterations)
        for name in designers
        for every in everies
    }
    state = _run_cells(
        "schedule_comparison", state_key, {"outcomes": {}}, "outcomes",
        cells, _schedule_task, backend, checkpointer,
        snapshot=lambda state: {
            "outcomes": {key: run.without_timings() for key, run in state["outcomes"].items()}
        },
    )
    return state["outcomes"]


def _schedule_task(task) -> DesignerRun:
    """One (designer, period) periodic replay (process-backend task)."""
    context, workload, engine, name, every, gamma, iterations = task
    adapter, nominal, distance = _cell_stack(context, engine)
    cfg = {} if iterations is None else {"max_iterations": iterations}
    designers, samplers = _build_designers(
        context, adapter, nominal, gamma, [name], distance, **cfg
    )
    outcome = _replay(
        context, workload, designers, samplers, adapter, nominal,
        policy=PeriodicPolicy(every=every),
    )
    return outcome.run(name)


# -- F16: δ_latency correlation ------------------------------------------------------------


def run_latency_metric_correlation(
    context: ExperimentContext,
    omegas: tuple[float, ...] = (0.1, 0.2),
    n_probes: int = 10,
) -> dict[float, list[tuple[float, float]]]:
    """(δ_latency, latency ratio) scatter per ω on R1 (Figure 16).

    For each probe workload W1 at increasing structural distance from W0,
    the y-value is W1's latency under W0's design divided by W0's own
    latency under that design.
    """
    adapter, nominal = _engine_stack(context, "columnar")
    windows = [w for w in context.trace_windows("R1") if len(w) > 0]
    anchor = windows[0]
    design = nominal.design(anchor)
    base_latency = adapter.workload_cost(anchor, design).average_ms
    sampler = context.sampler()
    sampler.set_pool([q for w in windows[1:] for q in w])
    gamma = context.default_gamma("R1") * 4
    curves: dict[float, list[tuple[float, float]]] = {}
    probes = [
        sampler.sample_at(anchor, float(alpha))
        for alpha in np.linspace(0.0, gamma, n_probes)
    ]
    # The probes' latencies under the design do not depend on ω: price
    # them once, in one batched request.
    latencies = [
        report.average_ms
        for report in adapter.evaluate_neighborhood([design], probes)[0]
    ]
    for omega in omegas:
        metric = LatencyAwareDistance(
            context.distance,
            baseline_cost=lambda w: adapter.workload_cost(
                w, adapter.empty_design()
            ).total_ms,
            omega=omega,
        )
        points: list[tuple[float, float]] = []
        for probe, latency in zip(probes, latencies):
            distance = metric(anchor, probe)
            ratio = latency / base_latency if base_latency else 0.0
            points.append((distance, ratio))
        points.sort(key=lambda p: p[0])
        curves[omega] = points
    return curves
