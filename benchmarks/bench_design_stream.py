"""Design-stream re-costing: warm structure store vs the cold rebuild,
end to end through CliffGuard's outer loop.

A tuning session is a *stream* of designer invocations over largely
overlapping workloads: every CliffGuard iteration re-invokes the nominal
designer on a moved workload, every serve-daemon window re-designs over
a slid window, every replay transition re-prices the same recurring
queries.  Without the store each invocation binds every structure it
names again; with it each structure is bound once per root arena and
kept as a column in ``CostEvaluationService``'s per-arena store, so a
request over a subset of the root's texts binds only the structures the
store has never seen.  This benchmark times three stream shapes:

* ``matrix-stream-*`` — a sliding-window ``candidate_costs`` stream per
  substrate (columnar / rowstore) over one root arena (the
  stream's texts, compiled first, as CliffGuard compiles its
  neighborhood's), the designer-invocation inner loop in isolation;
* ``cliffguard-*`` — end-to-end ``CliffGuard.design`` over successive
  trace windows (the serve-daemon re-design stream), columnar and
  rowstore;
* ``comparison-columnar`` — ``run_designer_comparison`` (the Figure 7
  harness) with the CliffGuard designer;

in two modes each — ``cold`` (a zero-cell store budget: every call
binds its structures again) and ``warm`` (the default budget) — asserts
both modes' outputs are bit-identical, and writes
``BENCH_design_stream.json``::

    PYTHONPATH=src python benchmarks/bench_design_stream.py           # full
    PYTHONPATH=src python benchmarks/bench_design_stream.py --smoke   # CI leg

Either run exits non-zero only if a config's modes diverge bitwise
(an ``equal: false`` row); the speedups are recorded, not gated.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.cliffguard import CliffGuard
from repro.costing.service import CostEvaluationService
from repro.designers.base import ColumnarAdapter, RowstoreAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    _engine_stack,
    run_designer_comparison,
)
from repro.rowstore.optimizer import RowstoreCostModel
from repro.serve.handle import design_digest
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile
from repro.workload.workload import Workload

#: Matrix-stream shape: ``windows`` sliding query windows (slide =
#: ``step`` sqls, each a view of the stream's root), each re-priced ``repeats`` times
#: with a candidate set growing by ``cstep`` per call — the shape of
#: CliffGuard's repeated nominal invocations, the multi-designer
#: comparison, and serve-daemon re-designs over one boundary.
MATRIX_FULL = {
    "sqls": 400, "window": 260, "step": 20,
    "pool": 640, "c0": 480, "cstep": 8,
    "windows": 4, "repeats": 6,
}
MATRIX_SMOKE = {
    "sqls": 60, "window": 40, "step": 10,
    "pool": 80, "c0": 56, "cstep": 4,
    "windows": 2, "repeats": 4,
}

#: CliffGuard-stream shape: successive trace windows re-designed.
CLIFF_FULL = ExperimentScale(
    days=224,
    window_days=28,
    queries_per_day=30,
    n_samples=8,
    iterations=4,
    legacy_tables=8,
)
CLIFF_SMOKE = ExperimentScale(
    days=112,
    window_days=28,
    queries_per_day=6,
    n_samples=3,
    iterations=2,
    legacy_tables=2,
)
CLIFF_FULL_WINDOWS = 4
CLIFF_SMOKE_WINDOWS = 2

COMPARISON_FULL = ExperimentScale(
    days=168,
    window_days=28,
    queries_per_day=18,
    n_samples=6,
    iterations=3,
    legacy_tables=4,
    max_transitions=2,
    skip_transitions=3,
)
COMPARISON_SMOKE = ExperimentScale(
    days=112,
    window_days=28,
    queries_per_day=6,
    n_samples=2,
    iterations=1,
    legacy_tables=2,
    max_transitions=1,
    skip_transitions=2,
)


@contextmanager
def _toggles(enabled: bool):
    """Every service built inside the block keeps store columns across
    calls (``enabled``) or none (a zero-cell budget: the cold rebuild);
    the harness builds its own stacks."""
    original = CostEvaluationService.__init__

    def patched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if not enabled:
            self.max_store_cells = 0

    CostEvaluationService.__init__ = patched
    try:
        yield
    finally:
        CostEvaluationService.__init__ = original


# -- matrix-stream configs ---------------------------------------------------------


@lru_cache(maxsize=1)
def _matrix_environment(distinct: int):
    schema, roles = build_star_schema(
        fact_tables=3,
        fact_rows=1_000_000,
        fact_attributes=14,
        legacy_tables=2,
        legacy_columns=3,
        seed=7,
    )
    profile = r1_profile(queries_per_day=24, topic_count=8, templates_per_topic=8)
    trace = TraceGenerator(schema, roles, profile, seed=9).generate(days=240)
    sqls = list(dict.fromkeys(q.sql for q in trace))
    if len(sqls) < distinct:
        raise SystemExit(
            f"trace produced only {len(sqls)} distinct queries, need {distinct}"
        )
    return schema, sqls[:distinct]


def _matrix_substrate(substrate: str, shape: dict):
    schema, sqls = _matrix_environment(shape["sqls"])
    if substrate == "columnar":
        model = ColumnarCostModel(schema)
        nominal = ColumnarNominalDesigner(ColumnarAdapter(model))
    else:
        model = RowstoreCostModel(schema)
        nominal = RowstoreNominalDesigner(RowstoreAdapter(model))
    profiles = [model.profile(sql) for sql in sqls]
    pool = nominal.generate_candidates(Workload.from_sql(sqls))
    if len(pool) < shape["pool"]:
        # A small pool (sparse templates) caps the stream's candidate count.
        shape = dict(shape, pool=len(pool), c0=min(shape["c0"], len(pool)))
    return model, pool[: shape["pool"]], profiles, shape


def _matrix_calls(shape: dict):
    """The (query-slice, candidate-slice) stream: each window is a view
    of the stream's root; the ``repeats`` calls that follow re-price the
    same queries with a candidate set growing per call — the warm path
    binds only the fresh candidates and gathers the rest."""
    calls = []
    call_index = 0
    for w in range(shape["windows"]):
        lo = min(w * shape["step"], max(0, shape["sqls"] - shape["window"]))
        hi = min(lo + shape["window"], shape["sqls"])
        for _ in range(shape["repeats"]):
            n_cand = min(shape["c0"] + call_index * shape["cstep"], shape["pool"])
            calls.append((slice(lo, hi), slice(0, n_cand)))
            call_index += 1
    return calls


def _adapter_for(model, service):
    if isinstance(model, ColumnarCostModel):
        return ColumnarAdapter(model, costing=service)
    return RowstoreAdapter(model, costing=service)


def _run_matrix_stream(substrate: str, shape: dict):
    model, pool, profiles, shape = _matrix_substrate(substrate, shape)
    calls = _matrix_calls(shape)
    seconds: dict[str, float] = {}
    outputs: dict[str, list] = {}
    span = slice(min(q.start for q, _ in calls), max(q.stop for q, _ in calls))
    for mode in ("cold", "warm"):
        service = CostEvaluationService(model)
        if mode == "cold":
            service.max_store_cells = 0
        adapter = _adapter_for(model, service)
        out = []
        # Accumulated heap from earlier configs penalizes whichever
        # mode runs later; settle the collector before each timing.
        gc.collect()
        started = time.perf_counter()
        service.compile_arena([p.sql for p in profiles[span]])
        for q_slice, c_slice in calls:
            base, matrix = service.candidate_costs(profiles[q_slice], pool[c_slice])
            out.append((base, matrix))
        seconds[mode] = time.perf_counter() - started
        outputs[mode] = out
    reference = outputs["cold"]
    equal = all(
        all(
            np.array_equal(base, ref_base) and np.array_equal(matrix, ref_matrix)
            for (base, matrix), (ref_base, ref_matrix) in zip(series, reference)
        )
        for series in outputs.values()
    )
    pairs = sum(
        (q.stop - q.start) * (c.stop - c.start) for q, c in calls
    )
    facts = {
        "distinct_sqls": shape["sqls"],
        "window": shape["window"],
        "candidates": shape["pool"],
        "calls": len(calls),
        "request_pairs": pairs,
    }
    return seconds, equal, facts


# -- CliffGuard-stream configs -----------------------------------------------------


def _report_facts(report):
    exempt = type(report).RESUME_EXEMPT_FIELDS
    return tuple(
        (name, getattr(report, name))
        for name in (
            "iterations",
            "accepted_moves",
            "query_cost_calls",
            "raw_cost_model_calls",
            "final_alpha",
        )
        if name not in exempt
    )


def _run_cliffguard_stream(engine: str, scale: ExperimentScale, windows: int):
    workload = "R1"
    seconds: dict[str, float] = {}
    outputs: dict[str, list] = {}
    for mode in ("cold", "warm"):
        with _toggles(mode != "cold"):
            context = ExperimentContext(scale)
            adapter, nominal = _engine_stack(context, engine)
            gamma = context.default_gamma(workload)
            sampler = context.sampler()
            sampler.set_pool(context.trace(workload))
            designer = CliffGuard(
                nominal,
                adapter,
                sampler,
                gamma,
                n_samples=scale.n_samples,
                max_iterations=scale.iterations,
            )
            stream = context.trace_windows(workload)[
                scale.skip_transitions : scale.skip_transitions + windows
            ]
            out = []
            gc.collect()
            started = time.perf_counter()
            for window in stream:
                design = designer.design(window)
                out.append(
                    (
                        design_digest(adapter, design),
                        _report_facts(designer.last_report),
                    )
                )
            seconds[mode] = time.perf_counter() - started
            outputs[mode] = out
    equal = all(series == outputs["cold"] for series in outputs.values())
    facts = {
        "windows": len(outputs["cold"]),
        "n_samples": scale.n_samples,
        "iterations": scale.iterations,
    }
    return seconds, equal, facts


def _run_comparison(scale: ExperimentScale):
    seconds: dict[str, float] = {}
    outputs: dict[str, tuple] = {}
    for mode in ("cold", "warm"):
        with _toggles(mode != "cold"):
            context = ExperimentContext(scale)
            gc.collect()
            started = time.perf_counter()
            result = run_designer_comparison(
                context, "R1", engine="columnar", which=["CliffGuard"]
            )
            seconds[mode] = time.perf_counter() - started
            run = result.run("CliffGuard")
            outputs[mode] = (
                run.mean_average_ms,
                run.mean_max_ms,
                tuple(
                    (w.average_ms, w.max_ms, w.design_price_bytes, w.structure_count)
                    for w in run.windows
                ),
            )
    equal = outputs["warm"] == outputs["cold"]
    facts = {"transitions": len(outputs["cold"][2])}
    return seconds, equal, facts


# -- driver ------------------------------------------------------------------------


def run(smoke: bool, out_path: Path) -> dict:
    matrix_shape = MATRIX_SMOKE if smoke else MATRIX_FULL
    cliff_scale = CLIFF_SMOKE if smoke else CLIFF_FULL
    cliff_windows = CLIFF_SMOKE_WINDOWS if smoke else CLIFF_FULL_WINDOWS
    comparison_scale = COMPARISON_SMOKE if smoke else COMPARISON_FULL
    configs = [
        ("matrix-stream-columnar", _run_matrix_stream, ("columnar", matrix_shape)),
        ("matrix-stream-rowstore", _run_matrix_stream, ("rowstore", matrix_shape)),
        (
            "cliffguard-columnar",
            _run_cliffguard_stream,
            ("columnar", cliff_scale, cliff_windows),
        ),
        (
            "cliffguard-rowstore",
            _run_cliffguard_stream,
            ("rowstore", cliff_scale, cliff_windows),
        ),
        ("comparison-columnar", _run_comparison, (comparison_scale,)),
    ]
    results = []
    for name, runner, args in configs:
        seconds, equal, facts = runner(*args)
        record = {
            "name": name,
            **facts,
            "seconds": seconds,
            "equal": equal,
            "speedup": seconds["cold"] / seconds["warm"],
        }
        results.append(record)
        shown = "  ".join(f"{mode} {wall:.3f}s" for mode, wall in seconds.items())
        print(f"{name}: {shown}  warm {record['speedup']:.1f}x  equal={equal}")
        if not equal:
            raise SystemExit(f"{name}: modes diverged bitwise")
    payload = {"benchmark": "design_stream", "configs": results}
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: exercises equivalence and the JSON format only",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_design_stream.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    out = args.out
    if args.smoke and out.name == "BENCH_design_stream.json":
        # The smoke leg must not clobber the checked-in full-run record.
        out = out.with_name("BENCH_design_stream.smoke.json")
    run(args.smoke, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
