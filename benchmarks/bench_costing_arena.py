"""Compile-once arena reuse vs recompile-per-batch (the iteration hot path).

Every CliffGuard iteration, greedy sweep, and replay window re-prices one
workload under a stream of designs in which successive designs differ by
a single structure — the ``core/move.py`` neighborhood step and the
greedy grow-by-one sweep.  Before the arena refactor each design in the
stream recompiled the query-side arrays and re-reduced every query; now
``compile_queries`` runs once per workload, ``bind`` runs once per
stream, and each subsequent design is priced by ``delta_design_costs``
(re-reducing only the queries the changed structure can touch — a
kernel primitive no service path calls: it saved under 0.5 % of priced
pairs on real traffic, and stays for the frozen ledger's
``costing.kernel.reduce`` span and this microbench).  This benchmark
times one such stream — a base design of ``design size`` structures
grown by one pool structure per iteration — in two modes:

* ``recompile``  — ``kernel.compile(profiles, structures)`` +
  full reduction per design (the PR-4 per-batch path),
* ``arena``      — ``compile_queries`` once, ``bind`` once over the
  stream's union, then one ``delta_design_costs`` per step,

asserts the two cost vectors are bit-identical, and writes a JSON
record (``BENCH_costing_arena.json``)::

    PYTHONPATH=src python benchmarks/bench_costing_arena.py            # full
    PYTHONPATH=src python benchmarks/bench_costing_arena.py --smoke   # CI leg

The grid tops out at 100k query instances x 10k candidate structures;
the full-pool sweep at that scale runs arena-mode only (recompiling the
query side per 10k-structure batch is exactly the cost this refactor
removes) with the reduction chunked over the query axis to bound peak
memory.  Query
*instances* are workload weights over the distinct SQL texts — the
kernel prices each distinct query once regardless of its frequency, so
both counts are recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.costing.kernel import kernel_for
from repro.designers.base import ColumnarAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.engine.projection import Projection, SortColumn
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile
from repro.workload.workload import Workload

#: (name, query instances, distinct sqls, candidate pool, design size,
#: iterations, modes).  ``design size`` is the base design's structure
#: count; the stream grows it by one pool structure per iteration — the
#: CliffGuard/greedy iteration shape; ``design size >= pool`` prices the
#: whole pool every iteration (the sweep shape, reduction chunked over
#: the query axis).
ALL_MODES = ("recompile", "arena")
FULL_CONFIGS = [
    ("small", 5_000, 500, 1_000, 16, 8, ALL_MODES),
    ("medium", 20_000, 1_500, 4_000, 16, 8, ALL_MODES),
    ("large", 100_000, 5_000, 10_000, 16, 8, ALL_MODES),
    # The headline sweep: every pool structure bound at once, arena-only
    # (recompiling the query side per 10k-structure batch is exactly the
    # cost this refactor removes).
    ("xlarge-sweep", 100_000, 5_000, 10_000, 10_000, 2, ("arena",)),
]
SMOKE_CONFIGS = [
    ("smoke-small", 100, 10, 20, 4, 2, ALL_MODES),
    ("smoke-large", 1_000, 20, 60, 8, 2, ALL_MODES),
]

#: Query-axis chunk for the chunked (sweep) reduction.
CHUNK_QUERIES = 64


@lru_cache(maxsize=1)
def _trace_pool():
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
    return schema, list(dict.fromkeys(q.sql for q in trace))


def _environment(distinct: int):
    schema, sqls = _trace_pool()
    if len(sqls) < distinct:
        raise SystemExit(
            f"trace produced only {len(sqls)} distinct queries, need {distinct}"
        )
    return schema, sqls[:distinct]


def _synthetic_projections(schema, count: int, seed: int) -> list[Projection]:
    rng = np.random.default_rng(seed)
    facts = [
        name
        for name, table in sorted(schema.tables.items())
        if len(table.column_names) >= 6
    ]
    out: list[Projection] = []
    seen: set[Projection] = set()
    while len(out) < count:
        table = facts[int(rng.integers(len(facts)))]
        names = schema.table(table).column_names
        width = int(rng.integers(2, min(len(names), 8)))
        picked = tuple(
            names[i] for i in sorted(rng.choice(len(names), size=width, replace=False))
        )
        sort_width = int(rng.integers(1, min(3, width) + 1))
        order = rng.permutation(width)[:sort_width]
        projection = Projection(
            table=table,
            columns=picked,
            sort_columns=tuple(SortColumn(picked[int(i)]) for i in order),
        )
        if projection not in seen:
            seen.add(projection)
            out.append(projection)
    return out


def _candidates(schema, sqls: list[str], count: int) -> list[Projection]:
    model = ColumnarCostModel(schema)
    nominal = ColumnarNominalDesigner(ColumnarAdapter(model))
    pool = nominal.generate_candidates(Workload.from_sql(sqls))[:count]
    if len(pool) < count:
        for projection in _synthetic_projections(schema, count * 2, seed=13):
            if len(pool) >= count:
                break
            if projection not in pool:
                pool.append(projection)
    return pool[:count]


def _instance_weights(distinct: int, instances: int) -> list[int]:
    """Integer frequencies over ``distinct`` sqls summing to ``instances``."""
    rng = np.random.default_rng(41)
    weights = rng.multinomial(instances - distinct, [1.0 / distinct] * distinct)
    return [int(w) + 1 for w in weights]


def _chunks(count: int, size: int) -> list[list[int]]:
    return [list(range(lo, min(lo + size, count))) for lo in range(0, count, size)]


def _design_walk(pool: int, design_size: int, iterations: int) -> list[list[int]]:
    """Deterministic grow-by-one stream of pool indices: a base design of
    ``design_size`` structures plus one new structure per iteration —
    every mode prices the exact same stream."""
    if design_size >= pool:
        return [list(range(pool))] * iterations
    rng = np.random.default_rng(17)
    union = [
        int(i)
        for i in rng.choice(pool, design_size + iterations - 1, replace=False)
    ]
    return [union[: design_size + k] for k in range(iterations)]


def _run_config(schema, sqls, candidates, design_size, iterations, modes):
    """Per-mode wall clock of ``iterations`` design evaluations.

    Profiling is hoisted out of every timed region (the profiler memoizes
    by SQL text; all modes would pay it identically on a warm service) —
    the timed difference is exactly compile-per-batch vs bind + delta.
    """
    model = ColumnarCostModel(schema)
    kernel = kernel_for(model)
    profiles = [model.profile(sql) for sql in sqls]
    walk = _design_walk(len(candidates), design_size, iterations)
    sweep = design_size >= len(candidates)  # chunk reduce: bound peak matrix
    seconds: dict[str, float] = {}
    vectors: dict[str, list[np.ndarray]] = {}

    if "recompile" in modes:
        out = []
        started = time.perf_counter()
        for members in walk:
            design = [candidates[i] for i in members]
            out.append(kernel.compile(profiles, design).design_costs())
        seconds["recompile"] = time.perf_counter() - started
        vectors["recompile"] = out

    out = []
    started = time.perf_counter()
    arena = kernel.compile_queries(profiles)
    if sweep:
        batch = kernel.bind(arena, candidates)
        for _ in walk:
            parts = [
                batch.take(chunk).design_costs()
                for chunk in _chunks(batch.query_count, CHUNK_QUERIES)
            ]
            out.append(np.concatenate(parts))
    else:
        # One bind over the stream's union; the walk's rows are ordered so
        # design k is exactly rows [0, len(walk[k])) and step k adds row
        # len(walk[k]) - 1 — each step is a single delta re-reduction.
        batch = kernel.bind(arena, [candidates[i] for i in walk[-1]])
        prev = None
        for members in walk:
            rows = np.arange(len(members), dtype=np.intp)
            if prev is None:
                prev = batch.design_costs(rows)
            else:
                prev = batch.delta_design_costs(rows, len(members) - 1, prev)
            out.append(prev)
    seconds["arena"] = time.perf_counter() - started
    vectors["arena"] = out

    reference = vectors["arena"]
    equal = all(
        len(series) == len(reference)
        and all(np.array_equal(a, b) for a, b in zip(series, reference))
        for series in vectors.values()
    )
    return seconds, equal


def run(configs, out_path: Path) -> dict:
    results = []
    for name, instances, distinct, candidate_count, design_size, iterations, modes in configs:
        schema, sqls = _environment(distinct)
        candidates = _candidates(schema, sqls, candidate_count)
        weights = _instance_weights(len(sqls), instances)
        seconds, equal = _run_config(
            schema, sqls, candidates, design_size, iterations, modes
        )
        base = min(design_size, len(candidates))
        final = (
            base if design_size >= len(candidates) else base + iterations - 1
        )
        record = {
            "name": name,
            "query_instances": int(sum(weights)),
            "distinct_sqls": len(sqls),
            "candidates": len(candidates),
            "design_size": base,
            "final_design_size": final,
            "iterations": iterations,
            "seconds": {mode: seconds[mode] for mode in modes},
            "equal": equal,
        }
        if "recompile" in seconds:
            record["arena_speedup"] = seconds["recompile"] / seconds["arena"]
        results.append(record)
        shown = "  ".join(f"{m} {seconds[m]:.3f}s" for m in modes)
        speedup = (
            f"  arena {record['arena_speedup']:.1f}x"
            if "arena_speedup" in record
            else ""
        )
        print(
            f"{name}: {record['query_instances']}inst/"
            f"{record['distinct_sqls']}q x {record['candidates']}c "
            f"(designs of {record['design_size']}->{final}) x {iterations}it  "
            f"{shown}{speedup}  equal={equal}"
        )
        if not equal:
            raise SystemExit(f"{name}: modes diverged bitwise")
    payload = {"benchmark": "costing_arena", "configs": results}
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
        default=Path(__file__).resolve().parent.parent / "BENCH_costing_arena.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    configs = SMOKE_CONFIGS if args.smoke else FULL_CONFIGS
    out = args.out
    if args.smoke and out.name == "BENCH_costing_arena.json":
        # The smoke leg must not clobber the checked-in full-run record.
        out = out.with_name("BENCH_costing_arena.smoke.json")
    payload = run(configs, out)
    if not args.smoke:
        common = [c for c in payload["configs"] if "arena_speedup" in c][-1]
        if common["arena_speedup"] < 3.0:
            print(
                f"WARNING: largest-common-config arena speedup "
                f"{common['arena_speedup']:.1f}x is below the 3x target"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
