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

from repro.core.cliffguard import CliffGuard
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
from repro.serve.sources import TraceSource
from repro.state import (
    CheckpointMismatchError,
    RunCheckpointer,
    costing_state,
    restore_costing,
    run_key,
)
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
from repro.harness.scheduler import PeriodicPolicy, ScheduleOutcome, scheduled_replay


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

        The source carries the cached window list verbatim, so harness
        calls taking a source produce bit-identical windows to the old
        raw-list signature.
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
) -> tuple[dict, list[NeighborhoodSampler]]:
    """The Section 6.1 designer zoo, built through the designer registry."""
    return registry.build_all(
        adapter,
        nominal,
        gamma,
        make_sampler=lambda: context.sampler(distance),
        which=which,
        n_samples=context.scale.n_samples,
        max_iterations=context.scale.iterations,
    )


def _past_pool_hook(trace: list[WorkloadQuery], samplers: list[NeighborhoodSampler]):
    """Replay hook: before each transition, restrict the samplers' pools to
    queries that happened strictly before the test window."""

    def hook(_index: int, _train: Workload, test: Workload) -> None:
        start, _ = test.span_days
        past = [q for q in trace if q.timestamp < start]
        for sampler in samplers:
            sampler.set_pool(past)

    return hook


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
    workload: str = "R1",
) -> dict[int, list[tuple[int, float]]]:
    """Shared-template fraction vs window lag, per window size."""
    trace = context.trace(workload)
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
    workload: str = "R1",
    n_probes: int = 8,
    anchors: int = 3,
    repeats: int = 3,
) -> list[tuple[float, float]]:
    """(distance from W0, avg latency on W0's design) pairs.

    For several anchor windows W0: design nominally for W0, then sample
    workloads at increasing distances and measure their latency under that
    design — the soundness experiment behind Figure 6.  Like the paper
    (which averages many windows per distance), each probe distance is
    averaged over the anchors and over ``repeats`` independent samples.
    """
    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    windows = [w for w in context.trace_windows(workload) if len(w) > 0]
    sampler = context.sampler()
    gamma = context.default_gamma(workload) * 4
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
            for _ in range(repeats):
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
    backend: ExecutionBackend | str | None = None,
    checkpointer: RunCheckpointer | None = None,
) -> ReplayResult:
    """The Figure 7 / 10 / 15 experiment for one workload and engine.

    With an execution ``backend``, every designer replays as an
    independent task (its own context, adapter, and seeded sampler), so
    the comparison fans out across workers; results are bit-identical at
    any worker count because each task is deterministic given the scale's
    seed.  Without a backend the designers share one adapter (and its
    warm cost cache) exactly as before.

    ``checkpointer`` makes the comparison resumable: the serial path
    checkpoints after every window transition (through :func:`replay`);
    the backend path records completed designers and, on resume, fans
    out only the pending ones (each designer task is independent, so
    skipping finished ones is value-preserving).  See docs/state.md.
    """
    if gamma is None:
        gamma = context.default_gamma(workload)
    # Duplicate or unknown names would double-run designers and corrupt
    # the name-keyed resume dict below; reject them before any work.
    names = registry.validate_names(which) if which is not None else registry.names()
    state_key = run_key(
        "designer_comparison",
        astuple(context.scale),
        workload,
        engine,
        tuple(names),
        gamma,
    )
    executor = resolve_backend(backend)
    if executor is None:
        adapter, nominal = _engine_stack(context, engine)
        designers, samplers = _build_designers(context, adapter, nominal, gamma, which)
        return replay(
            context.window_source(workload),
            designers,
            adapter,
            candidate_source=nominal,
            workload_name=workload,
            max_transitions=context.scale.max_transitions,
            skip_transitions=context.scale.skip_transitions,
            before_transition=_past_pool_hook(context.trace(workload), samplers),
            checkpointer=checkpointer,
            state_key=state_key,
        )
    done: dict[str, DesignerRun] = {}
    counts: list[int] = []
    if checkpointer is not None:
        state = checkpointer.load("designer_comparison", state_key)
        if state is not None:
            done = state["runs"]
            counts = state["counts"]
            # The run key covers the requested names, but a forged or
            # hand-moved snapshot could still carry designers this call
            # never asked for; replaying them into the result would be
            # silent corruption, so reject loudly instead.
            stale = sorted(set(done) - set(names))
            if stale:
                raise CheckpointMismatchError(
                    f"designer_comparison resume: snapshot contains designers "
                    f"{stale} not in the requested selection {list(names)}"
                )
    pending = [name for name in names if name not in done]
    tasks = [(context.scale, workload, engine, name, gamma) for name in pending]
    result = ReplayResult(workload_name=workload)
    t = tracer()
    for name, run, task_counts in executor.map(_designer_comparison_task, tasks):
        done[name] = run
        # Every designer replays the identical window sequence, so the
        # evaluated-query counts are a per-designer invariant; adopting
        # the first task's list and trusting the rest would let a
        # divergent replay slip through unnoticed.
        if not counts:
            counts = task_counts
        elif task_counts != counts:
            raise RuntimeError(
                f"designer_comparison: evaluated-query counts diverged for "
                f"{name!r}: expected {counts}, task produced {task_counts} — "
                "designer tasks no longer replay identical windows"
            )
        if t.enabled:
            # Worker processes carry the null tracer, so fanned-out
            # replays surface here as one summary event per designer.
            t.emit(
                "designer_result",
                workload=workload,
                engine=engine,
                designer=name,
                avg_ms=run.mean_average_ms,
                max_ms=run.mean_max_ms,
            )
    if checkpointer is not None and pending:
        checkpointer.step(
            "designer_comparison",
            state_key,
            lambda: {"runs": done, "counts": counts},
        )
    result.runs = {name: done[name] for name in names if name in done}
    result.evaluated_query_counts = counts
    return result


def _designer_comparison_task(task) -> tuple[str, DesignerRun, list[int]]:
    """One designer's full replay (module-level: process-backend task).

    Rebuilds the experiment context from the scale — deterministic given
    the scale's seed, so the replay is bit-identical to the same designer's
    run in the serial loop.
    """
    scale, workload, engine, name, gamma = task
    context = ExperimentContext(scale)
    adapter, nominal = _engine_stack(context, engine)
    designers, samplers = _build_designers(context, adapter, nominal, gamma, which=[name])
    outcome = replay(
        context.window_source(workload),
        designers,
        adapter,
        candidate_source=nominal,
        workload_name=workload,
        max_transitions=scale.max_transitions,
        skip_transitions=scale.skip_transitions,
        before_transition=_past_pool_hook(context.trace(workload), samplers),
    )
    return name, outcome.runs[name], outcome.evaluated_query_counts


# -- F8 / F9: the Γ sweep ---------------------------------------------------------------


def run_gamma_sweep(
    context: ExperimentContext,
    workload: str,
    gammas: list[float] | None = None,
    backend: ExecutionBackend | str | None = None,
    checkpointer: RunCheckpointer | None = None,
) -> dict[float, tuple[float, float]]:
    """CliffGuard's (avg, max) latency per Γ; Γ = 0 is the nominal case.

    With an execution ``backend``, every Γ replays as an independent task
    (its own context and seeded sampler) — the per-Γ runs were already
    independent in the serial loop, so fanning them out is value-preserving
    at any worker count.

    ``checkpointer`` makes the sweep resumable at Γ-point granularity:
    completed Γ-points are recorded after each replay (the serial path
    also snapshots the shared adapter's warm cost cache, so a resumed
    sweep's effort counters match the uninterrupted run); on resume only
    pending Γ-points run.  See docs/state.md.
    """
    base_gamma = context.default_gamma(workload)
    if gammas is None:
        gammas = [0.0, 0.25 * base_gamma, base_gamma, 2 * base_gamma, 6 * base_gamma]
    state_key = run_key(
        "gamma_sweep", astuple(context.scale), workload, tuple(gammas)
    )
    executor = resolve_backend(backend)
    t = tracer()
    if executor is None:
        adapter, nominal = _engine_stack(context, "columnar")
        results: dict[float, tuple[float, float]] = {}
        if checkpointer is not None:
            state = checkpointer.load("gamma_sweep", state_key)
            if state is not None:
                results = state["results"]
                restore_costing(adapter, state["costing"])
        for gamma in gammas:
            if gamma in results:
                continue
            results[gamma] = _cliffguard_gamma_run(
                context, adapter, nominal, workload, gamma
            )
            if t.enabled:
                t.emit(
                    "gamma_result",
                    workload=workload,
                    gamma=gamma,
                    avg_ms=results[gamma][0],
                    max_ms=results[gamma][1],
                )
            if checkpointer is not None:
                checkpointer.step(
                    "gamma_sweep",
                    state_key,
                    lambda: {
                        "results": results,
                        "costing": costing_state(adapter),
                    },
                )
        return {gamma: results[gamma] for gamma in gammas}
    results = {}
    if checkpointer is not None:
        state = checkpointer.load("gamma_sweep", state_key)
        if state is not None:
            results = state["results"]
    pending = [gamma for gamma in gammas if gamma not in results]
    tasks = [(context.scale, workload, gamma) for gamma in pending]
    for gamma, point in executor.map(_gamma_sweep_task, tasks):
        results[gamma] = point
        if t.enabled:
            t.emit(
                "gamma_result",
                workload=workload,
                gamma=gamma,
                avg_ms=point[0],
                max_ms=point[1],
            )
    if checkpointer is not None and pending:
        checkpointer.step(
            "gamma_sweep",
            state_key,
            lambda: {"results": results, "costing": None},
        )
    return {gamma: results[gamma] for gamma in gammas}


def _cliffguard_gamma_run(
    context: ExperimentContext,
    adapter: DesignAdapter,
    nominal,
    workload: str,
    gamma: float,
) -> tuple[float, float]:
    """One CliffGuard replay at one Γ (shared by serial loop and tasks)."""
    designers, samplers = _build_designers(
        context, adapter, nominal, gamma, which=["CliffGuard"]
    )
    outcome = replay(
        context.window_source(workload),
        designers,
        adapter,
        candidate_source=nominal,
        workload_name=workload,
        max_transitions=context.scale.max_transitions,
        skip_transitions=context.scale.skip_transitions,
        before_transition=_past_pool_hook(context.trace(workload), samplers),
    )
    run = outcome.run("CliffGuard")
    return (run.mean_average_ms, run.mean_max_ms)


def _gamma_sweep_task(task) -> tuple[float, tuple[float, float]]:
    """One Γ of the sweep (module-level: process-backend task)."""
    scale, workload, gamma = task
    context = ExperimentContext(scale)
    adapter, nominal = _engine_stack(context, "columnar")
    return gamma, _cliffguard_gamma_run(context, adapter, nominal, workload, gamma)


# -- F11: distance ablation -------------------------------------------------------------


def run_distance_ablation(
    context: ExperimentContext,
    workload: str = "R1",
) -> dict[str, tuple[float, float]]:
    """CliffGuard under different distance metrics (Figure 11)."""
    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    windows = context.trace_windows(workload)
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
        history = drift_history(windows, metric)
        gamma = gamma_from_history(history, "avg")
        sampler = NeighborhoodSampler(structural, context.schema, seed=context.scale.seed)
        designer = CliffGuard(
            nominal,
            adapter,
            sampler,
            gamma,
            n_samples=context.scale.n_samples,
            max_iterations=context.scale.iterations,
        )
        outcome = replay(
            TraceSource.from_windows(windows, window_days=context.scale.window_days),
            {"CliffGuard": designer},
            adapter,
            candidate_source=nominal,
            workload_name=workload,
            max_transitions=context.scale.max_transitions,
        skip_transitions=context.scale.skip_transitions,
            before_transition=_past_pool_hook(context.trace(workload), [sampler]),
        )
        run = outcome.run("CliffGuard")
        results[label] = (run.mean_average_ms, run.mean_max_ms)
    return results


# -- F12 / F13: sample-size and iteration sweeps -----------------------------------------


def run_sample_size_sweep(
    context: ExperimentContext,
    workload: str = "R1",
    sample_sizes: tuple[int, ...] = (2, 5, 10, 20, 40),
) -> dict[int, tuple[float, float]]:
    """CliffGuard's latency vs neighborhood sample count n (Figure 12)."""
    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    windows = context.window_source(workload)
    gamma = context.default_gamma(workload)
    results: dict[int, tuple[float, float]] = {}
    for n in sample_sizes:
        sampler = context.sampler()
        designer = CliffGuard(
            nominal, adapter, sampler, gamma, n_samples=n,
            max_iterations=context.scale.iterations,
        )
        outcome = replay(
            windows,
            {"CliffGuard": designer},
            adapter,
            candidate_source=nominal,
            workload_name=workload,
            max_transitions=context.scale.max_transitions,
        skip_transitions=context.scale.skip_transitions,
            before_transition=_past_pool_hook(context.trace(workload), [sampler]),
        )
        run = outcome.run("CliffGuard")
        results[n] = (run.mean_average_ms, run.mean_max_ms)
    return results


def run_iteration_sweep(
    context: ExperimentContext,
    workload: str = "R1",
    iteration_counts: tuple[int, ...] = (0, 1, 2, 5, 10, 20),
) -> dict[int, tuple[float, float]]:
    """CliffGuard's latency vs iteration budget (Figure 13)."""
    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    windows = context.window_source(workload)
    gamma = context.default_gamma(workload)
    results: dict[int, tuple[float, float]] = {}
    for iterations in iteration_counts:
        sampler = context.sampler()
        designer = CliffGuard(
            nominal, adapter, sampler, gamma,
            n_samples=context.scale.n_samples, max_iterations=iterations,
        )
        outcome = replay(
            windows,
            {"CliffGuard": designer},
            adapter,
            candidate_source=nominal,
            workload_name=workload,
            max_transitions=context.scale.max_transitions,
        skip_transitions=context.scale.skip_transitions,
            before_transition=_past_pool_hook(context.trace(workload), [sampler]),
        )
        run = outcome.run("CliffGuard")
        results[iterations] = (run.mean_average_ms, run.mean_max_ms)
    return results


# -- F14: offline time -------------------------------------------------------------------


@dataclass
class OfflineTimeRow:
    designer: str
    design_seconds: float
    deployment_seconds: float


def run_offline_time(
    context: ExperimentContext,
    workload: str = "R1",
    which: list[str] | None = None,
) -> list[OfflineTimeRow]:
    """Wall-clock design time vs modeled deployment time (Figure 14)."""
    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    gamma = context.default_gamma(workload)
    designers, samplers = _build_designers(context, adapter, nominal, gamma, which)
    outcome = replay(
        context.window_source(workload),
        designers,
        adapter,
        candidate_source=nominal,
        workload_name=workload,
        max_transitions=context.scale.max_transitions,
        skip_transitions=context.scale.skip_transitions,
        before_transition=_past_pool_hook(context.trace(workload), samplers),
    )
    rows: list[OfflineTimeRow] = []
    for name, run in outcome.runs.items():
        if run.windows:
            price = run.windows[-1].design_price_bytes
            deployment = price / 1e9 * 360.0  # engine.design.DEPLOY_SECONDS_PER_GB
        else:
            deployment = 0.0
        rows.append(
            OfflineTimeRow(
                designer=name,
                design_seconds=run.mean_design_seconds,
                deployment_seconds=deployment,
            )
        )
    return rows


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
    requested, how many the memo cache absorbed, the dedup ratio of the
    batched neighborhood evaluation, and the wall-time spent costing.
    ``checkpointer`` makes the replay resumable per window transition;
    the service counters survive through the checkpointed cache export.
    """
    adapter, nominal = _engine_stack(context, engine)
    gamma = context.default_gamma(workload)
    designers, samplers = _build_designers(
        context, adapter, nominal, gamma, which=["CliffGuard"]
    )
    outcome = replay(
        context.window_source(workload),
        designers,
        adapter,
        candidate_source=nominal,
        workload_name=workload,
        max_transitions=context.scale.max_transitions,
        skip_transitions=context.scale.skip_transitions,
        before_transition=_past_pool_hook(context.trace(workload), samplers),
        checkpointer=checkpointer,
        state_key=run_key(
            "costing_stats", astuple(context.scale), workload, engine, gamma
        )
        if checkpointer is not None
        else None,
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
    backend: ExecutionBackend | str | None = None,
    checkpointer: RunCheckpointer | None = None,
) -> dict[tuple[str, int], ScheduleOutcome]:
    """Scheduled replay for every (designer, re-design period) pair.

    The executable form of the paper's claim (d): how much latency each
    designer loses when its designs must serve longer between re-designs.
    Each (designer, period) pair is an independent deterministic task, so
    the grid fans out over the execution backend; ``backend=None`` runs
    the same tasks inline.

    ``checkpointer`` records completed (designer, period) cells — after
    each cell on the serial path, at completion on the backend path — and
    on resume runs only the pending cells (each cell rebuilds its own
    context, so skipping finished ones is value-preserving).
    """
    if gamma is None:
        gamma = context.default_gamma(workload)
    tasks = [
        (context.scale, workload, engine, name, every, gamma, iterations)
        for name in designers
        for every in everies
    ]
    state_key = run_key(
        "schedule_comparison",
        astuple(context.scale),
        workload,
        engine,
        tuple(designers),
        tuple(everies),
        gamma,
        iterations,
    )
    done: dict[tuple[str, int], ScheduleOutcome] = {}
    if checkpointer is not None:
        state = checkpointer.load("schedule_comparison", state_key)
        if state is not None:
            done = state["outcomes"]
    pending = [task for task in tasks if (task[3], task[4]) not in done]
    executor = resolve_backend(backend)
    if executor is None:
        for task in pending:
            name, every, outcome = _schedule_task(task)
            done[(name, every)] = outcome
            if checkpointer is not None:
                checkpointer.step(
                    "schedule_comparison", state_key, lambda: {"outcomes": done}
                )
    else:
        for name, every, outcome in executor.map(_schedule_task, pending):
            done[(name, every)] = outcome
        if checkpointer is not None and pending:
            checkpointer.step(
                "schedule_comparison", state_key, lambda: {"outcomes": done}
            )
    return {
        (task[3], task[4]): done[(task[3], task[4])]
        for task in tasks
        if (task[3], task[4]) in done
    }


def _schedule_task(task) -> tuple[str, int, ScheduleOutcome]:
    """One (designer, period) scheduled replay (process-backend task)."""
    scale, workload, engine, name, every, gamma, iterations = task
    context = ExperimentContext(scale)
    adapter, nominal = _engine_stack(context, engine)
    windows = context.trace_windows(workload)
    trace = context.trace(workload)
    designer, sampler = registry.get(
        name,
        adapter,
        nominal,
        gamma,
        make_sampler=context.sampler,
        n_samples=scale.n_samples,
        max_iterations=iterations if iterations is not None else scale.iterations,
    )
    samplers = [sampler] if sampler is not None else []

    def refresh(i: int) -> None:
        start, _ = windows[i].span_days
        past = [q for q in trace if q.timestamp < start]
        for s in samplers:
            s.set_pool(past)

    outcome = scheduled_replay(
        TraceSource.from_windows(windows, window_days=scale.window_days),
        designer,
        adapter,
        PeriodicPolicy(every=every),
        before_design=refresh,
    )
    return name, every, outcome


# -- F16: δ_latency correlation ------------------------------------------------------------


def run_latency_metric_correlation(
    context: ExperimentContext,
    workload: str = "R1",
    omegas: tuple[float, ...] = (0.1, 0.2),
    n_probes: int = 10,
) -> dict[float, list[tuple[float, float]]]:
    """(δ_latency, latency ratio) scatter per ω (Figure 16).

    For each probe workload W1 at increasing structural distance from W0,
    the y-value is W1's latency under W0's design divided by W0's own
    latency under that design.
    """
    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    windows = [w for w in context.trace_windows(workload) if len(w) > 0]
    anchor = windows[0]
    design = nominal.design(anchor)
    base_latency = adapter.workload_cost(anchor, design).average_ms
    sampler = context.sampler()
    sampler.set_pool([q for w in windows[1:] for q in w])
    gamma = context.default_gamma(workload) * 4
    curves: dict[float, list[tuple[float, float]]] = {}
    probes = [
        sampler.sample_at(anchor, float(alpha))
        for alpha in np.linspace(0.0, gamma, n_probes)
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
        for probe in probes:
            distance = metric(anchor, probe)
            latency = adapter.workload_cost(probe, design).average_ms
            ratio = latency / base_latency if base_latency else 0.0
            points.append((distance, ratio))
        points.sort(key=lambda p: p[0])
        curves[omega] = points
    return curves
