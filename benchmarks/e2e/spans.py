"""Span tracing installed from outside ``src/`` (the traced pass).

The benchmark wraps the public callables at each layer boundary, records
one span per call — ``(name, start, end, parent)`` — in memory, and
aggregates at exit.  A layer's *self time* is its spans' duration minus
the part covered by their direct child spans, so self times of all spans
under one root add up to that root's duration.

Nothing under ``src/`` changes: methods are rebound on their classes,
and module-level functions are rebound in every ``repro`` module that
holds a ``from x import f`` reference to them.  :meth:`Tracer.uninstall`
restores every original object by identity.  Tracing inside ``src/`` is
ROADMAP item 5, a later change.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import ModuleType

#: Spans that may open with no parent.  Everything else is recorded only
#: inside one of these, so set-up work and the benchmark's own output
#: checks never leak into the per-layer numbers.
ROOT_SPANS = (
    "core.cliffguard.design",
    "harness.replay.replay",
    "serve.daemon.run",
    "workload.generator.generate",
)

#: The roots that are a workload's timed unit; their summed duration is
#: the traced wall time that ``<span>.share`` is a fraction of.
UNIT_ROOTS = ROOT_SPANS[:3]

#: span name -> [(module, qualified attribute), ...].  Several targets
#: under one name are one layer with one implementation per substrate.
SPAN_TARGETS: dict[str, list[tuple[str, str]]] = {
    "sql.parse": [("repro.sql.parser", "parse")],
    "sql.extract_template": [("repro.sql.analyzer", "extract_template")],
    "costing.profile.profile": [("repro.costing.profile", "QueryProfiler.profile")],
    "workload.sampler.sample": [("repro.workload.sampler", "NeighborhoodSampler.sample")],
    "workload.distance.call": [("repro.workload.distance", "WorkloadDistance.__call__")],
    "core.move.move_workload": [("repro.core.move", "move_workload")],
    "core.cliffguard.design": [("repro.core.cliffguard", "CliffGuard.design")],
    "designers.nominal.design": [
        ("repro.designers.columnar_nominal", "ColumnarNominalDesigner.design"),
        ("repro.designers.rowstore_nominal", "RowstoreNominalDesigner.design"),
    ],
    "designers.generate_candidates": [
        ("repro.designers.columnar_nominal", "ColumnarNominalDesigner.generate_candidates"),
        ("repro.designers.rowstore_nominal", "RowstoreNominalDesigner.generate_candidates"),
    ],
    "designers.evaluate_candidates": [("repro.designers.greedy", "evaluate_candidates")],
    "designers.greedy_select": [("repro.designers.greedy", "greedy_select")],
    "costing.service.evaluate_neighborhood": [
        ("repro.costing.service", "CostEvaluationService.evaluate_neighborhood")
    ],
    "costing.service.candidate_costs": [
        ("repro.costing.service", "CostEvaluationService.candidate_costs")
    ],
    "costing.service.workload_cost": [
        ("repro.costing.service", "CostEvaluationService.workload_cost")
    ],
    "costing.service.workload_costs_batch": [
        ("repro.costing.service", "CostEvaluationService.workload_costs_batch")
    ],
    "costing.service.query_cost": [
        ("repro.costing.service", "CostEvaluationService.query_cost")
    ],
    "costing.kernel.compile_queries": [
        ("repro.costing.kernel", "ColumnarKernel.compile_queries"),
        ("repro.costing.kernel", "RowstoreKernel.compile_queries"),
    ],
    "costing.kernel.bind": [
        ("repro.costing.kernel", "ColumnarKernel.bind"),
        ("repro.costing.kernel", "RowstoreKernel.bind"),
    ],
    "costing.kernel.reduce": [
        ("repro.costing.kernel", f"{batch}.{method}")
        for batch in ("ColumnarBatch", "RowstoreBatch")
        for method in ("design_costs", "candidate_costs", "delta_design_costs")
    ],
    "engine.optimizer.query_cost": [("repro.engine.optimizer", "ColumnarCostModel.query_cost")],
    "rowstore.optimizer.query_cost": [("repro.rowstore.optimizer", "RowstoreCostModel.query_cost")],
    "harness.replay.beneficial_queries": [("repro.harness.replay", "beneficial_queries")],
    "harness.replay.replay": [("repro.harness.replay", "replay")],
    "workload.monitor.observe": [("repro.workload.monitor", "WorkloadMonitor.observe")],
    "state.checkpoint.save": [("repro.state.checkpoint", "RunCheckpointer.save")],
    "serve.daemon.run": [("repro.serve.daemon", "ServeDaemon.run")],
    "workload.generator.generate": [("repro.workload.generator", "TraceGenerator.generate")],
}

#: Public stats counters reported per layer: metric name -> (stats
#: object on the service, field).  They repeat exactly run to run.
STATS_COUNTERS: dict[str, tuple[str, str]] = {
    "costing.service.query_requests": ("stats", "query_requests"),
    "costing.service.query_hits": ("stats", "query_hits"),
    "costing.service.raw_model_calls": ("stats", "raw_model_calls"),
    "costing.service.dedup_saved": ("stats", "dedup_saved"),
    "costing.service.evictions": ("stats", "evictions"),
    "costing.kernel.pairs_priced": ("stats", "kernel_pairs_priced"),
    "costing.service.arena_builds": ("arena_stats", "builds"),
    "costing.service.arena_hits": ("arena_stats", "hits"),
    "costing.service.arena_evictions": ("arena_stats", "evictions"),
    "costing.service.matrix_hit_cells": ("arena_stats", "matrix_hits"),
    "costing.service.matrix_pairs_priced": ("arena_stats", "matrix_pairs_priced"),
    "costing.service.delta_pairs_saved": ("arena_stats", "delta_pairs_saved"),
}


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, original)`` for one target."""
    # import_module, not attribute access: ``repro.harness.replay`` the
    # attribute is the re-exported function, not the module.
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, vars(owner)[attribute]


class Tracer:
    """In-memory span recorder plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in order of *opening*.
        self.spans: list[list] = []
        #: Plain call counts that are not worth a span of their own.
        self.counts: dict[str, int] = {
            "workload.sampler.mutations": 0,
            "state.checkpoint.bytes_written": 0,
        }
        #: Every ``CostEvaluationService`` built while installed.
        self.services: list = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._baseline: dict[str, int] | None = None

    # -- recording ---------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` runs
        once the span has closed (outside its measured time)."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter
        is_root = name in ROOT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not open_ and not is_root:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(record)
            open_.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_calls(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall -----------------------------------------------------

    def _rebind(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, original))
        if not isinstance(owner, ModuleType):
            return
        # A module-level function: importer modules hold their own
        # ``from x import f`` reference, which must be rebound too.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, replacement)
                    self._restore.append((module, alias, original))

    def install(self) -> None:
        """Wrap every target.  Call before any stack is built."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, targets in SPAN_TARGETS.items():
            for module_name, qualname in targets:
                owner, attribute, original = _resolve(module_name, qualname)
                after = self._checkpoint_bytes if name == "state.checkpoint.save" else None
                self._rebind(owner, attribute, original, self.wrap(name, original, after))
        owner, attribute, original = _resolve("repro.workload.sampler", "mutate_query")
        self._rebind(
            owner, attribute, original,
            self._count_calls("workload.sampler.mutations", original),
        )
        owner, attribute, original = _resolve(
            "repro.costing.service", "CostEvaluationService.__init__"
        )
        services = self.services

        @functools.wraps(original)
        def registering_init(service, *args, **kwargs):
            original(service, *args, **kwargs)
            services.append(service)

        self._rebind(owner, attribute, original, registering_init)

    def uninstall(self) -> None:
        """Put every original object back (identity-restoring)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _checkpoint_bytes(self, args, _result) -> None:
        checkpointer = args[0]
        self.counts["state.checkpoint.bytes_written"] += checkpointer.path.stat().st_size

    # -- public stats deltas -----------------------------------------------------

    def _stats_totals(self) -> dict[str, int]:
        totals = dict.fromkeys(STATS_COUNTERS, 0)
        for service in self.services:
            for metric, (holder, field) in STATS_COUNTERS.items():
                totals[metric] += getattr(getattr(service, holder), field)
        return totals

    def mark(self) -> None:
        """Start of the measured units: later stats are deltas from here."""
        self._baseline = self._stats_totals()

    def stats_delta(self) -> dict[str, int]:
        baseline = self._baseline or dict.fromkeys(STATS_COUNTERS, 0)
        return {
            metric: total - baseline[metric]
            for metric, total in self._stats_totals().items()
        }

    # -- aggregation -------------------------------------------------------------

    def aggregate(self) -> tuple[dict[str, dict[str, float]], float]:
        """``({span: {self_s, calls}}, traced wall seconds of the units)``."""
        if self._open:
            raise RuntimeError("aggregate() with spans still open")
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_TARGETS}
        wall = 0.0
        for (name, start, end, parent), child_time in zip(self.spans, covered):
            layer = layers[name]
            layer["self_s"] += (end - start) - child_time
            layer["calls"] += 1
            if parent < 0 and name in UNIT_ROOTS:
                wall += end - start
        return layers, wall



def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call (measured on a no-op)."""
    tracer = Tracer()

    def noop():
        return None

    child = tracer.wrap("sql.parse", noop)

    def loop(fn):
        began = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - began

    traced = tracer.wrap(ROOT_SPANS[0], lambda: loop(child))()
    return max(traced - loop(noop), 0.0) / calls
