"""The windowed design→evaluate replay loop (paper Section 6.1).

Queries are split into fixed windows ``W_0, W_1, …``; at the end of each
window every designer produces a design from ``W_i`` (the oracle
:class:`~repro.designers.future_knowing.FutureKnowingDesigner` gets
``W_{i+1}`` instead), and the design is evaluated on ``W_{i+1}``.
Reported numbers are the per-window average and maximum query latencies,
averaged over all windows — exactly the bars of Figures 7, 10, and 15.

Evaluation is restricted to *beneficial* queries: the paper keeps only
queries "for which there existed an ideal design (no matter how expensive)
that could improve on their bare table-scan latency by at least a factor
of 3×" (515 of R1's 15.5K parseable queries).

Each transition does its per-text work once.  The filter, every
designer and the evaluation passes of one transition run inside one
:class:`~repro.designers.scope.DesignScope` (each designer's
:meth:`~repro.designers.base.Designer.scoped` block): the filter's
per-query proposals for ``W_{i+1}`` are the ones the oracle's design of
``W_{i+1}`` reads, and every candidate's column key and size are
computed once for the transition.  The scope is left before the
transition's checkpoint, so no snapshot carries it and memory stays
bounded by one transition's texts.

Each window is designed once across transitions: the oracle's design of
``W_{i+1}`` at transition ``i`` is the design ExistingDesigner gets for
the same window object at ``i + 1``, from the nominal designer's memo
(:func:`~repro.designers.base.remembered_design`), with the same
counters charged.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.costing.service import workload_fingerprint
from repro.designers.base import DesignAdapter, Designer
from repro.designers.scope import DesignScope
from repro.obs import tracer
from repro.serve.sources import QuerySource, as_windows
from repro.state import (
    RunCheckpointer,
    costing_state,
    designer_state,
    restore_costing,
    restore_designer,
    run_key,
)
from repro.workload.workload import Workload

#: The paper's benefit threshold for including a query in the evaluation.
BENEFIT_FACTOR = 3.0


@contextmanager
def _scoped(scope: DesignScope, designers):
    """Every designer that takes a scope (``scoped``) runs in ``scope``
    inside the block, and none is left holding it after."""
    with ExitStack() as stack:
        for designer in designers:
            scoped = getattr(designer, "scoped", None)
            if scoped is not None:
                stack.enter_context(scoped(scope))
        yield


def beneficial_queries(
    adapter: DesignAdapter,
    candidate_source,
    workload: Workload,
    factor: float = BENEFIT_FACTOR,
) -> Workload:
    """Queries whose ideal dedicated structure beats the bare scan ≥ ``factor``×.

    ``candidate_source`` is a nominal designer; the ideal cost of a query
    is its best cost across the candidates generated for that query
    alone, which its ``own_candidates`` lists for the whole window in one
    pass.

    ``factor`` must be a finite number ≥ 0: ``base / best >= nan`` is
    always false, so NaN (or an infinite factor) would keep no query at
    all and evaluate nothing, silently.
    """
    if not (math.isfinite(factor) and factor >= 0):
        raise ValueError(f"factor must be a finite number >= 0, got {factor!r}")
    queries: list = []
    profiles: list = []
    for query in workload.collapsed():
        try:
            profiles.append(adapter.profile(query.sql))
        except ValueError:
            continue
        queries.append(query)
    if not queries:
        return Workload([])
    # One batched sweep prices every base cost (vectorized when the
    # costing service has a kernel for this substrate).
    (base_report,) = adapter.workload_costs_batch(
        [adapter.empty_design()], [query.sql for query in queries]
    )
    bases = base_report.per_query_ms
    own = candidate_source.own_candidates(queries)
    service = adapter.costing
    ideal = list(bases)
    if getattr(service, "kernel", None) is not None:
        # One matrix per window: the per-query candidate lists are interned
        # into a de-duplicated union and priced against every query in one
        # call; each query is credited with its *own* rows only.  A cell
        # does not depend on what shares the batch, unservable cells are
        # inf and off-table cells equal the base cost, so folding into
        # ``bases`` reproduces the scalar per-query minimum bit for bit.
        row_of: dict = {}
        rows = [row_of.setdefault(c, len(row_of)) for own_q in own for c in own_q]
        cols = [q for q, own_q in enumerate(own) for _ in own_q]
        if rows:
            _, matrix = service.candidate_costs(profiles, list(row_of))
            best = np.array(bases, dtype=np.float64)
            np.minimum.at(best, cols, matrix[rows, cols])
            ideal = best.tolist()
    else:
        for q, (profile, own_q) in enumerate(zip(profiles, own)):
            for candidate in own_q:
                single = adapter.make_design([candidate])
                ideal[q] = min(ideal[q], adapter.query_cost(profile, single))
    kept = [
        query
        for query, base, best in zip(queries, bases, ideal)
        if best > 0 and base / best >= factor
    ]
    return Workload(kept)


@dataclass
class WindowOutcome:
    """One designer's result on one train→test window transition."""

    window_index: int
    average_ms: float
    max_ms: float
    design_seconds: float
    design_price_bytes: int
    structure_count: int
    #: Query-cost evaluations this designer requested for this window
    #: (duplicates collapsed by the batched API counted back in).
    query_cost_calls: int = 0
    #: (design, query) pairs the cost model actually priced.
    raw_cost_model_calls: int = 0
    #: Per-query observed costs under the window's active design
    #: (``sql -> ms``).  Recorded only for online-learning designers
    #: (``learns_online``) — it is the reward signal their ``observe``
    #: hook consumes — so checkpoint sizes for the classic zoo stay flat.
    observed_query_ms: dict[str, float] | None = None


@dataclass
class DesignerRun:
    """All window outcomes for one designer."""

    name: str
    windows: list[WindowOutcome] = field(default_factory=list)
    #: Designer-reported counters (``designer.stats()``), refreshed after
    #: every window; ``None`` for designers that report none.  The bandit
    #: surfaces its rounds/observations/safety-fallback counts and model
    #: digest here, and they travel through backend fan-out intact.
    stats: dict | None = None

    @property
    def mean_average_ms(self) -> float:
        """Average latency, averaged over windows (the paper's "Avg")."""
        if not self.windows:
            return 0.0
        return sum(w.average_ms for w in self.windows) / len(self.windows)

    @property
    def mean_max_ms(self) -> float:
        """Max latency, averaged over windows (the paper's "Max")."""
        if not self.windows:
            return 0.0
        return sum(w.max_ms for w in self.windows) / len(self.windows)

    @property
    def mean_design_seconds(self) -> float:
        """Wall-clock designer time per window (Figure 14's design bar)."""
        if not self.windows:
            return 0.0
        return sum(w.design_seconds for w in self.windows) / len(self.windows)

    @property
    def total_query_cost_calls(self) -> int:
        """Designer effort: query-cost evaluations across all windows."""
        return sum(w.query_cost_calls for w in self.windows)

    @property
    def total_raw_cost_model_calls(self) -> int:
        """Raw cost-model invocations actually paid across all windows."""
        return sum(w.raw_cost_model_calls for w in self.windows)

    def without_timings(self) -> "DesignerRun":
        """A copy with every ``design_seconds`` at 0: the form a snapshot
        holds, since no checkpoint carries a wall-clock value
        (docs/state.md)."""
        return replace(self, windows=[replace(w, design_seconds=0.0) for w in self.windows])


@dataclass
class ReplayResult:
    """Replay outcomes for a set of designers over one trace."""

    workload_name: str
    runs: dict[str, DesignerRun] = field(default_factory=dict)
    evaluated_query_counts: list[int] = field(default_factory=list)

    def run(self, name: str) -> DesignerRun:
        return self.runs[name]

    def without_timings(self) -> "ReplayResult":
        """A copy whose runs hold no wall-clock value (see
        :meth:`DesignerRun.without_timings`)."""
        return replace(self, runs={name: run.without_timings() for name, run in self.runs.items()})

    def speedup(self, baseline: str, target: str) -> tuple[float, float]:
        """(avg, max) latency improvement factors of ``target`` over
        ``baseline``."""
        base = self.runs[baseline]
        other = self.runs[target]
        avg = base.mean_average_ms / other.mean_average_ms if other.mean_average_ms else float("inf")
        mx = base.mean_max_ms / other.mean_max_ms if other.mean_max_ms else float("inf")
        return avg, mx


def replay(
    windows: QuerySource,
    designers: dict[str, Designer],
    adapter: DesignAdapter,
    candidate_source=None,
    workload_name: str = "workload",
    max_transitions: int | None = None,
    skip_transitions: int = 0,
    before_transition=None,
    checkpointer: RunCheckpointer | None = None,
    state_key: str | None = None,
) -> ReplayResult:
    """Run the full replay; see the module docstring for the protocol.

    ``windows`` is a bounded :class:`~repro.serve.sources.QuerySource`
    (typically a :class:`~repro.serve.sources.TraceSource` carrying its
    window length) — batch and serve share one source-of-queries
    abstraction; wrap fixed windows with ``TraceSource.from_windows``.

    ``candidate_source`` (a nominal designer) drives the beneficial-query
    filter; pass ``None`` to evaluate on every parseable query.

    ``skip_transitions`` drops the first transitions from the evaluation —
    the trace generators model recurring workloads, so early windows have
    no history for anyone to exploit and would only add noise.

    ``before_transition(i, train, test)`` is called before each transition;
    experiments use it to refresh sampler pools with only-past queries (so
    neighborhood sampling never peeks at the future).

    ``checkpointer`` snapshots the partial result after every completed
    window transition (plus each designer's sampler stream and the cost
    service's counters) and resumes from the latest snapshot; a resumed
    replay is bit-identical to an uninterrupted one (docs/state.md).  ``state_key``
    overrides the derived run-identity key when the caller already knows
    its run configuration digest.
    """
    windows = as_windows(windows)
    if checkpointer is not None and state_key is None:
        state_key = run_key(
            "replay",
            workload_name,
            sorted(designers),
            BENEFIT_FACTOR,
            max_transitions,
            skip_transitions,
            [workload_fingerprint(window) for window in windows],
        )
    state = (
        checkpointer.load("replay", state_key) if checkpointer is not None else None
    )
    if state is not None:
        result = state["result"]
        for name, designer in designers.items():
            restore_designer(designer, state["designers"].get(name))
        restore_costing(adapter, state["costing"])
        start = state["next_transition"]
    else:
        result = ReplayResult(workload_name=workload_name)
        for name in designers:
            result.runs[name] = DesignerRun(name=name)
        start = skip_transitions

    service = adapter.costing
    transitions = len(windows) - 1
    if max_transitions is not None:
        transitions = min(transitions, skip_transitions + max_transitions)

    for i in range(start, transitions):
        train, test = windows[i], windows[i + 1]
        if not train or not test:
            continue
        if before_transition is not None:
            before_transition(i, train, test)
        with _scoped(DesignScope(), [candidate_source, *designers.values()]):
            if candidate_source is not None:
                evaluation = beneficial_queries(adapter, candidate_source, test)
            else:
                evaluation = test.collapsed()
            if not evaluation:
                continue
            result.evaluated_query_counts.append(len(evaluation))
            t = tracer()
            if t.enabled:
                t.emit(
                    "window",
                    workload=workload_name,
                    index=i,
                    train_queries=len(train),
                    evaluated_queries=len(evaluation),
                )
            for name, designer in designers.items():
                input_window = test if getattr(designer, "is_oracle", False) else train
                baseline = service.stats.snapshot()
                started = time.perf_counter()
                design = designer.design(input_window)
                design_seconds = time.perf_counter() - started
                report = adapter.workload_cost(evaluation, design)
                delta = service.stats.since(baseline)
                outcome = WindowOutcome(
                    window_index=i,
                    average_ms=report.average_ms,
                    max_ms=report.max_ms,
                    design_seconds=design_seconds,
                    design_price_bytes=adapter.design_price(design),
                    structure_count=len(adapter.structures(design)),
                    query_cost_calls=delta.query_requests + delta.dedup_saved,
                    raw_cost_model_calls=delta.raw_model_calls,
                )
                if getattr(designer, "learns_online", False):
                    # The observed per-query costs are the learner's reward
                    # signal, and the evaluation pass just priced them.
                    observed = {
                        query.sql: cost
                        for query, cost in zip(evaluation, report.per_query_ms)
                    }
                    outcome.observed_query_ms = observed
                    designer.observe(evaluation, design, observed)
                result.runs[name].windows.append(outcome)
                stats = getattr(designer, "stats", None)
                if callable(stats):
                    result.runs[name].stats = stats()
                if t.enabled:
                    t.emit(
                        "redesign",
                        workload=workload_name,
                        window=i,
                        designer=name,
                        avg_ms=outcome.average_ms,
                        max_ms=outcome.max_ms,
                        price_bytes=outcome.design_price_bytes,
                        structures=outcome.structure_count,
                        seconds=design_seconds,
                    )
        if checkpointer is not None:
            checkpointer.step(
                "replay",
                state_key,
                lambda: {
                    "next_transition": i + 1,
                    "result": result.without_timings(),
                    "designers": {
                        name: designer_state(d) for name, d in designers.items()
                    },
                    "costing": costing_state(adapter),
                },
            )
    return result
