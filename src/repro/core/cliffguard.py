"""Algorithm 2: the CliffGuard robust designer.

CliffGuard wraps an existing (nominal) designer — a black box — and
iterates:

1. **Neighborhood exploration**: evaluate the current design on ``n``
   perturbed workloads sampled in the Γ-neighborhood of ``W0``; the most
   expensive ones are the worst neighbors.  Following Section 4.3, the
   selection is loosened from the strict max to a top fraction to mitigate
   finite-sample bias; the default uses the whole neighborhood (every
   sample informs the move), and the ablation benches sweep the fraction.
2. **Robust local move**: build ``W_moved`` (Algorithm 3) and ask the
   nominal designer for its design.  Accept it only when it improves the
   worst-case cost over the sampled neighborhood; adapt the step size with
   backtracking line search (``α ← α·λ_success`` on success,
   ``α ← α·λ_failure`` on failure).
3. Stop after ``max_iterations`` or when improvement stalls.

Defaults mirror the paper's Section 6.1: ``n = 20`` samples, 5 iterations,
``λ_success = 5``, ``λ_failure = 0.5``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.costing.service import WorkloadBatch, workload_fingerprint
from repro.designers.base import DesignAdapter, Designer
from repro.designers.scope import DesignScope
from repro.obs import tracer
from repro.state import (
    RunCheckpointer,
    costing_state,
    restore_costing,
    restore_sampler,
    run_key,
    sampler_state,
)
from repro.workload.sampler import NeighborhoodSampler
from repro.workload.workload import Workload


@dataclass
class CliffGuardReport:
    """Trace of one CliffGuard run (useful for the ablation benches)."""

    iterations: int = 0
    accepted_moves: int = 0
    worst_case_history: list[float] = field(default_factory=list)
    alpha_history: list[float] = field(default_factory=list)
    designer_calls: int = 0
    #: Query-cost evaluations requested during this run, counting the
    #: duplicates batched evaluation collapsed — the designer-effort
    #: number the A1–A3 benches report.
    query_cost_calls: int = 0
    #: (design, query) pairs the cost model actually priced.
    raw_cost_model_calls: int = 0
    #: The step size after the last accepted/rejected move.
    final_alpha: float = 0.0
    #: Wall-clock seconds spent inside cost evaluation during this run
    #: (a resumed run: since the resume).
    eval_wall_seconds: float = 0.0
    #: Structure-store cells this run read from columns priced earlier
    #: (``ArenaStats.matrix_hits``).
    matrix_hits: int = 0
    #: Structure-store cells the kernel priced during this run
    #: (``ArenaStats.matrix_pairs_priced``).
    matrix_pairs_priced: int = 0
    #: Wall-clock seconds spent inside the nominal designer's ``design``
    #: calls (candidate generation + pricing + greedy selection; a
    #: resumed run: since the resume).
    nominal_wall_seconds: float = 0.0

    #: Fields a resumed run may legitimately report differently from the
    #: uninterrupted run: wall-clock times, plus every counter derived
    #: from non-exported cache state (the structure store is rebuilt
    #: cold after a resume; see docs/state.md).
    RESUME_EXEMPT_FIELDS: ClassVar[tuple[str, ...]] = (
        "eval_wall_seconds",
        "matrix_hits",
        "matrix_pairs_priced",
        "nominal_wall_seconds",
    )


class CliffGuard(Designer):
    """The robust designer (paper Algorithm 2)."""

    name = "CliffGuard"
    #: The step size α of the first iteration (Algorithm 2's α₀).
    initial_alpha = 1.0

    def __init__(
        self,
        nominal: Designer,
        adapter: DesignAdapter,
        sampler: NeighborhoodSampler,
        gamma: float,
        n_samples: int = 20,
        max_iterations: int = 5,
        lambda_success: float = 5.0,
        lambda_failure: float = 0.5,
        worst_fraction: float = 1.0,
        min_worst: int = 1,
        patience: int | None = None,
        keep_base_in_move: bool = True,
    ):
        if not 0 <= gamma < math.inf:
            raise ValueError(f"gamma must be finite and non-negative, got {gamma!r}")
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if min_worst < 1:
            raise ValueError("min_worst must be at least 1")
        if not 0 < worst_fraction <= 1:
            raise ValueError("worst_fraction must be in (0, 1]")
        if not 1 < lambda_success < math.inf:
            raise ValueError(
                f"lambda_success must be finite and exceed 1, got {lambda_success!r}"
            )
        if not 0 < lambda_failure < 1:
            raise ValueError("lambda_failure must be in (0, 1)")
        if patience is not None and patience < 1:
            raise ValueError("patience must be at least 1 when set")
        self.nominal = nominal
        self.adapter = adapter
        self.sampler = sampler
        self.gamma = gamma
        self.n_samples = n_samples
        self.max_iterations = max_iterations
        self.lambda_success = lambda_success
        self.lambda_failure = lambda_failure
        self.worst_fraction = worst_fraction
        self.min_worst = min_worst
        self.patience = patience
        self.keep_base_in_move = keep_base_in_move
        self.last_report: CliffGuardReport | None = None
        #: Optional :class:`repro.state.RunCheckpointer`; when set,
        #: :meth:`design` snapshots the loop at every iteration boundary
        #: and resumes from the latest snapshot (see docs/state.md).
        self.checkpointer: RunCheckpointer | None = None

    # -- neighborhood machinery ----------------------------------------------------

    def _neighborhood_costs(
        self, batch: WorkloadBatch, design
    ) -> tuple[list[float], dict[str, float]]:
        """``(f(W_i, D) per neighbor, {sql: cost under D})``.

        Evaluated through the adapter's batched neighborhood API over
        ``batch``, the neighborhood's SQL lists built once per design: the
        neighbors overwhelmingly share queries (they come from the same
        history pool), so each distinct query is costed once per design
        instead of once per neighbor.  The per-SQL map covers every
        query of the neighborhood — ``W0`` included — which is exactly
        what MoveWorkload needs priced under the incumbent, so the
        incumbent's map is kept instead of asking the service again.
        """
        reports = self.adapter.evaluate_neighborhood([design], batch)[0]
        per_sql: dict[str, float] = {}
        for (sqls, _), report in zip(batch.per_workload, reports):
            per_sql.update(zip(sqls, report.per_query_ms))
        return [report.average_ms for report in reports], per_sql

    def _worst_neighbors(
        self, neighborhood: list[Workload], costs: list[float]
    ) -> list[Workload]:
        """Top-fraction most expensive neighbors (Section 4.3's loosened
        selection — strict max would inherit finite-sample bias).

        ``k`` is clamped to the neighborhood size: ``min_worst`` larger
        than the sample count must select the whole neighborhood rather
        than silently degrading through an oversized slice.
        """
        k = max(self.min_worst, math.ceil(len(neighborhood) * self.worst_fraction))
        k = min(k, len(neighborhood))
        ranked = sorted(range(len(neighborhood)), key=lambda i: -costs[i])
        return [neighborhood[i] for i in ranked[:k]]

    # -- the designer -------------------------------------------------------------------

    def design(self, workload: Workload):
        """Run Algorithm 2 and return the robust design.

        With a ``checkpointer`` attached, the loop state (iteration,
        α, accepted design, its per-query and neighborhood costs,
        worst-case history, the sampler's bit-generator state, and the
        cost service's counters) is
        snapshotted after the initial neighborhood evaluation and after
        every iteration; a killed run resumed from any of those
        boundaries produces a bit-identical design and report (see
        docs/state.md).

        The call's weight-independent work — parsing, the nominal
        designer's per-text proposals, the fixed neighborhood's weights
        and SQL lists — is done once, in a :class:`DesignScope` that
        lives as long as the call (see :mod:`repro.designers.scope`).
        """
        scope = DesignScope()
        with self.nominal.scoped(scope):
            return self._design(workload, scope)

    def _design(self, workload: Workload, scope: DesignScope):
        from repro.core.move import WorkloadDigest, move_workload

        report = CliffGuardReport()
        self.last_report = report
        service = self.adapter.costing
        baseline = service.stats.snapshot()
        # Arena/store counters are derived state (never checkpointed), so
        # their baseline is taken fresh on every call — resumed runs
        # legitimately report different store numbers (see
        # CliffGuardReport.RESUME_EXEMPT_FIELDS).
        arena_baseline = service.arena_stats.snapshot()
        t = tracer()
        ckpt = self.checkpointer
        key = None
        state = None
        if ckpt is not None:
            key = run_key(
                "cliffguard",
                self.name,
                self.gamma,
                self.n_samples,
                self.max_iterations,
                self.initial_alpha,
                self.worst_fraction,
                self.min_worst,
                self.patience,
                workload_fingerprint(workload),
            )
            state = ckpt.load("cliffguard", key)

        def checkpoint(next_iteration: int) -> None:
            if ckpt is None:
                return
            # The wall-clock fields are pickled as 0 (copies; the live
            # report keeps its timings), so two same-seed runs write the
            # same bytes; a resumed run times itself from the resume.
            ckpt.step(
                "cliffguard",
                key,
                lambda: {
                    "next_iteration": next_iteration,
                    "design": design,
                    "neighborhood": neighborhood,
                    "costs": costs,
                    "incumbent_costs": incumbent_costs,
                    "worst_case": worst_case,
                    "alpha": alpha,
                    "stale": stale,
                    "report": replace(report, nominal_wall_seconds=0.0),
                    "baseline": replace(baseline, eval_seconds=0.0),
                    "sampler": sampler_state(self.sampler),
                    "costing": costing_state(self.adapter),
                },
            )

        if state is None:
            if t.enabled:
                t.emit(
                    "design_start",
                    designer=self.name,
                    gamma=self.gamma,
                    n_samples=self.n_samples,
                    max_iterations=self.max_iterations,
                    queries=len(workload),
                )

            explores = self.gamma > 0 and self.max_iterations > 0 and bool(workload)
            if explores:
                # W0 is parsed once: the profiler annotates these
                # statements, and the sampler compiles its chains from them.
                scope.parse_texts(workload)
                scope.hand_off(self.adapter)
                # The neighborhood is drawn before the initial design (the
                # sampler has its own generator and reads no design, so no
                # draw moves) and its arena compiled first: W0 and every
                # moved workload are views of it, so each structure of the
                # run is priced once, into one store.
                neighborhood = [workload] + self.sampler.sample(
                    workload, self.gamma, self.n_samples, statements=scope.statements
                )
                # The picked mutations' statements, annotated before the
                # neighborhood is priced, so no one parses their texts.
                scope.hand_off(self.adapter)
                batch = WorkloadBatch.of(neighborhood)
                service.compile_arena(batch.unique)
            nominal_started = time.perf_counter()
            design = self.nominal.design(workload)  # Line 1: initial nominal design
            report.nominal_wall_seconds += time.perf_counter() - nominal_started
            report.designer_calls += 1
            if not explores:
                # Γ = 0 degenerates to the nominal design by definition.
                self._finish(
                    report, service, baseline, self.initial_alpha, arena_baseline
                )
                return design

            costs, incumbent_costs = self._neighborhood_costs(batch, design)
            worst_case = max(costs) if costs else 0.0
            report.worst_case_history.append(worst_case)

            alpha = self.initial_alpha
            stale = 0
            next_iteration = 0
            checkpoint(0)
        else:
            design = state["design"]
            neighborhood = state["neighborhood"]
            costs = state["costs"]
            incumbent_costs = state["incumbent_costs"]
            worst_case = state["worst_case"]
            alpha = state["alpha"]
            stale = state["stale"]
            next_iteration = state["next_iteration"]
            report = state["report"]
            # Timed from the resume, like eval_wall_seconds (the
            # baseline below); a snapshot may predate the zeroed copy.
            report.nominal_wall_seconds = 0.0
            self.last_report = report
            restore_sampler(self.sampler, state["sampler"])
            restore_costing(self.adapter, state["costing"])
            # The service's eval_seconds is this process's wall-clock
            # (never restored), so a resumed run times its evaluation
            # from here: the snapshot's reading may be a later one.
            baseline = replace(
                state["baseline"], eval_seconds=service.stats.eval_seconds
            )
            batch = WorkloadBatch.of(neighborhood)

        # The neighborhood is fixed from here on: what MoveWorkload reads
        # of W0 and of each neighbor is computed once.  (A fresh run's
        # neighborhood[0] is W0 itself; a resumed run's is a copy.)
        digests: dict[int, WorkloadDigest] = {}
        for w in (workload, *neighborhood):
            if id(w) not in digests:
                digests[id(w)] = WorkloadDigest(w)

        for _ in range(next_iteration, self.max_iterations):
            report.iterations += 1
            report.alpha_history.append(alpha)
            if t.enabled:
                t.emit(
                    "iteration",
                    designer=self.name,
                    index=report.iterations,
                    alpha=alpha,
                    worst_case=worst_case,
                )
            stop = False
            worst = self._worst_neighbors(neighborhood, costs)
            moved = move_workload(
                workload,
                worst,
                cost=incumbent_costs.__getitem__,
                alpha=alpha,
                keep_base=self.keep_base_in_move,
                digest=lambda w: digests[id(w)],
            )
            if t.enabled:
                t.emit(
                    "move",
                    designer=self.name,
                    index=report.iterations,
                    worst_neighbors=len(worst),
                    moved_queries=len(moved),
                    alpha=alpha,
                )
            nominal_started = time.perf_counter()
            candidate = self.nominal.design(moved)
            report.nominal_wall_seconds += time.perf_counter() - nominal_started
            report.designer_calls += 1
            candidate_costs, candidate_per_sql = self._neighborhood_costs(
                batch, candidate
            )
            candidate_worst = max(candidate_costs) if candidate_costs else 0.0
            if candidate_worst < worst_case:
                design = candidate
                costs = candidate_costs
                incumbent_costs = candidate_per_sql
                worst_case = candidate_worst
                alpha *= self.lambda_success
                report.accepted_moves += 1
                stale = 0
                if t.enabled:
                    t.emit(
                        "accept",
                        designer=self.name,
                        index=report.iterations,
                        worst_case=candidate_worst,
                    )
                    t.emit("alpha", designer=self.name, value=alpha, reason="success")
            else:
                alpha *= self.lambda_failure
                stale += 1
                if t.enabled:
                    t.emit(
                        "reject",
                        designer=self.name,
                        index=report.iterations,
                        candidate_worst=candidate_worst,
                        worst_case=worst_case,
                    )
                    t.emit("alpha", designer=self.name, value=alpha, reason="failure")
                if self.patience is not None and stale >= self.patience:
                    stop = True
            if not stop:
                report.worst_case_history.append(worst_case)
            checkpoint(self.max_iterations if stop else report.iterations)
            if stop:
                break
        self._finish(report, service, baseline, alpha, arena_baseline)
        return design

    def _finish(
        self,
        report: CliffGuardReport,
        service,
        baseline,
        alpha: float,
        arena_baseline,
    ) -> None:
        """Record designer effort (cost-call counters) and the final α."""
        report.final_alpha = alpha
        delta = service.stats.since(baseline)
        report.eval_wall_seconds = delta.eval_seconds
        # Total query-cost evaluations the run asked for, counting the
        # duplicates the batched API collapsed — the effort a designer
        # without the evaluation service would have paid.
        report.query_cost_calls = delta.query_requests + delta.dedup_saved
        report.raw_cost_model_calls = delta.raw_model_calls
        arena_delta = service.arena_stats.since(arena_baseline)
        report.matrix_hits = arena_delta.matrix_hits
        report.matrix_pairs_priced = arena_delta.matrix_pairs_priced
        t = tracer()
        if t.enabled:
            t.emit(
                "design_finish",
                designer=self.name,
                iterations=report.iterations,
                accepted_moves=report.accepted_moves,
                designer_calls=report.designer_calls,
                final_alpha=report.final_alpha,
                worst_case=(
                    report.worst_case_history[-1]
                    if report.worst_case_history
                    else None
                ),
            )
