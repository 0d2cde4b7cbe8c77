"""The claims ledger: the paper's shapes as assertions over many seeds.

A claim is a predicate over one seed's run.  A *seeded* claim is recorded
with its pass count, its mean paired effect and a 95 % bootstrap interval
of that mean; a *deterministic* claim must hold on every seed; the
*distribution* row records a quantity whose spread, not its pass count,
is the point.  The claims:

``f7_ordering``
    Figure 7, R1 on the columnar engine (smoke scale, NoDesign,
    FutureKnowing, Existing and CliffGuard): CliffGuard's avg latency is
    below ExistingDesigner's.  Effect: Existing / CliffGuard (higher is
    better).
``f8_gamma0_nominal`` (deterministic)
    Figure 8: at Γ = 0, CliffGuard's design of every replayed train
    window has the nominal design's digest.
``f8_moderate_gamma``
    Figure 8, "moderate Γ is best": over the sweep Γ ∈ {0, Γ₀, 8·Γ₀}
    (Γ₀ the average past drift), CliffGuard's avg latency at Γ₀ is no
    higher than at Γ = 0 or at 8·Γ₀.  Effect: min(avg(0), avg(8Γ₀)) /
    avg(Γ₀) (higher is better).
``f10_ordering``
    Figure 10, R1 on the row store: CliffGuard's avg latency is below
    ExistingDesigner's.  Effect: Existing / CliffGuard.
``f12_flat``
    Figure 12, "flat beyond n ≈ 8": doubling the neighborhood sample
    count from 8 to 16 moves CliffGuard's avg latency by at most 10 %.
    Effect: avg(n = 8) / avg(n = 16) (closer to 1, i.e. lower while it
    reads above 1, is flatter).
``heldout_guarantee``
    ``tests/test_core_cliffguard.py``'s defining guarantee, re-drawn per
    seed on that test's tiny fixture with the sampler seeded ``seed``:
    the robust design's worst case over a fresh neighborhood is at most
    1.05 × the nominal design's.  Effect: robust worst / nominal worst
    (lower is better).
``nominal_worst`` (distribution)
    ``worst_case_history[0]`` — the nominal design's worst case over the
    sampled neighborhood — of every design of a ``design-r1-columnar``
    ledger round (six windows) per seed.  Recorded as median and q1–q3.

Every (claim, seed) pair is one :func:`_run_cells` cell, so a run
checkpoints per cell and ``--resume`` finishes only the pending ones.
A run stores its table under ``--label`` in the output file; when the
file holds a ``parent`` and a ``change`` table, :func:`gate` compares
them and the verdict is written beside them:

* a deterministic claim holds on every seed of both tables;
* a seeded claim's change pass count is not lower than the parent's under
  a one-sided Fisher exact test at p < 0.05, and its mean effect keeps
  the parent's side of 1 and lies inside the parent's interval or beyond
  it on the better side;
* the change's ``nominal_worst`` median lies inside the parent's q1–q3.

Output (``CLAIMS.json``; ``--smoke`` writes ``CLAIMS.smoke.json`` with two
seeds per claim)::

    PYTHONPATH=src python benchmarks/bench_claims.py --label change
    PYTHONPATH=src python benchmarks/bench_claims.py --smoke   # CI leg
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np

from repro.api import RobustDesignSession, RunConfig
from repro.core.cliffguard import CliffGuard
from repro.designers import registry
from repro.designers.base import ColumnarAdapter, default_budget_bytes
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.harness.experiments import (
    ExperimentContext,
    _run_cells,
    run_designer_comparison,
    run_gamma_sweep,
    run_sample_size_sweep,
    smoke_scale,
)
from repro.serve.handle import design_digest
from repro.state import RunCheckpointer, run_key
from repro.workload.distance import WorkloadDistance
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile
from repro.workload.sampler import NeighborhoodSampler
from repro.workload.windows import split_windows

ROOT = Path(__file__).resolve().parent.parent

#: Seeds per claim in a full run.
SEEDS = {
    "f7": range(1, 21),
    "f8": range(1, 11),
    "f10": range(1, 21),
    "f12": range(1, 11),
    "heldout": range(0, 120),
    "nominal_worst": range(1, 11),
}
SMOKE_SEEDS = {name: seeds[:2] for name, seeds in SEEDS.items()}

F7_DESIGNERS = ["NoDesign", "FutureKnowingDesigner", "ExistingDesigner", "CliffGuard"]
#: The Γ sweep, as multiples of the average past drift Γ₀.
F8_MULTIPLES = (0, 1, 8)
F12_SIZES = (2, 8, 16)
#: ``f12_flat``'s tolerance on |avg(16) − avg(8)| / avg(8).
F12_FLAT = 0.10
#: ``heldout_guarantee``'s slack, as in the test it re-draws.
HELDOUT_SLACK = 1.05
ALPHA = 0.05
BOOTSTRAP_RESAMPLES = 10_000


# -- per-seed cells ----------------------------------------------------------------


def _context(seed: int) -> ExperimentContext:
    return ExperimentContext(replace(smoke_scale(), seed=seed))


def _latencies(outcome, names) -> dict[str, list[float]]:
    return {
        name: [outcome.run(name).mean_average_ms, outcome.run(name).mean_max_ms]
        for name in names
    }


def _f7(seed: int) -> dict:
    outcome = run_designer_comparison(_context(seed), "R1", which=F7_DESIGNERS)
    return _latencies(outcome, F7_DESIGNERS)


def _f8(seed: int) -> dict:
    context = _context(seed)
    base = context.default_gamma("R1")
    sweep = run_gamma_sweep(context, "R1", gammas=[m * base for m in F8_MULTIPLES])
    # Γ = 0 against the nominal designer, design by design, on the train
    # windows the replay designs for (only-past pools, as in the replay).
    scale = context.scale
    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    designers, samplers = registry.build_all(
        adapter, nominal, 0.0, context.sampler, ["CliffGuard"],
        n_samples=scale.n_samples, max_iterations=scale.iterations,
    )
    windows = context.trace_windows("R1")
    trace = context.trace("R1")
    first = scale.skip_transitions
    equal = []
    for window in windows[first : first + scale.max_transitions]:
        start, _ = window.span_days
        for sampler in samplers:
            sampler.set_pool([q for q in trace if q.timestamp < start])
        robust = designers["CliffGuard"].design(window)
        equal.append(
            design_digest(adapter, robust) == design_digest(adapter, nominal.design(window))
        )
    return {
        "gamma0": base,
        "sweep": {str(m): list(sweep[m * base]) for m in F8_MULTIPLES},
        "digests_equal": equal,
    }


def _f10(seed: int) -> dict:
    names = ["ExistingDesigner", "CliffGuard"]
    outcome = run_designer_comparison(_context(seed), "R1", engine="rowstore", which=names)
    return _latencies(outcome, names)


def _f12(seed: int) -> dict:
    results = run_sample_size_sweep(_context(seed), sample_sizes=F12_SIZES)
    return {str(n): list(results[n]) for n in F12_SIZES}


def _tiny_fixture():
    """``tests/conftest.py``'s ``tiny_star`` / ``tiny_trace`` / ``tiny_windows``
    and ``test_core_cliffguard.py``'s ``parts`` window and pool."""
    schema, roles = build_star_schema(
        fact_tables=2, fact_rows=1_000_000, fact_attributes=12,
        legacy_tables=5, legacy_columns=4, seed=3,
    )
    profile = r1_profile(queries_per_day=8, topic_count=3, templates_per_topic=4)
    trace = TraceGenerator(schema, roles, profile, seed=5).generate(days=70)
    window = split_windows(trace, 28)[1]
    pool = [q for q in trace if q.timestamp < window.span_days[0]]
    return schema, window, pool


def _heldout(seed: int) -> dict:
    """``test_robust_design_no_worse_on_sampled_worst_case`` with the
    sampler seeded ``seed``: robust worst / nominal worst."""
    schema, window, pool = _tiny_fixture()
    adapter = ColumnarAdapter(ColumnarCostModel(schema), default_budget_bytes(schema, 0.5))
    sampler = NeighborhoodSampler(
        WorkloadDistance(schema.total_columns), schema, pool=pool, seed=seed,
        min_query_set=4, max_query_set=8,
    )
    nominal = ColumnarNominalDesigner(adapter)
    gamma = 0.005
    robust = CliffGuard(nominal, adapter, sampler, gamma=gamma, n_samples=4, max_iterations=3)
    robust_design = robust.design(window)
    nominal_design = nominal.design(window)
    neighborhood = [window] + sampler.sample(window, gamma, 4)

    def worst(design) -> float:
        return max(adapter.workload_cost(w, design).average_ms for w in neighborhood)

    return {"robust": worst(robust_design), "nominal": worst(nominal_design)}


def _nominal_worst(seed: int) -> dict:
    """One ``design-r1-columnar`` ledger round (benchmarks/e2e sizes):
    the first worst case of each of its six CliffGuard designs."""
    session = RobustDesignSession(
        RunConfig(
            workload="R1", engine="columnar", days=280, window_days=28,
            queries_per_day=10, n_samples=8, iterations=4, seed=seed,
            legacy_tables=8, backend="serial",
        )
    )
    trace = session.context.trace("R1")
    designer, sampler = session.designer("CliffGuard")
    worst = []
    for window in session.context.trace_windows("R1")[3:9]:
        start, _ = window.span_days
        sampler.set_pool([q for q in trace if q.timestamp < start])
        designer.design(window)
        worst.append(designer.last_report.worst_case_history[0])
    return {"worst": worst}


CELLS = {
    "f7": _f7,
    "f8": _f8,
    "f10": _f10,
    "f12": _f12,
    "heldout": _heldout,
    "nominal_worst": _nominal_worst,
}


def _claim_task(task) -> dict:
    """One (cell kind, seed) run: one :func:`_run_cells` cell."""
    kind, seed = task
    started = time.perf_counter()
    record = CELLS[kind](seed)
    record["seconds"] = time.perf_counter() - started
    return record


# -- claims over the per-seed records ----------------------------------------------

#: claim -> (cell kind, predicate, effect, better, text).  ``better`` is
#: the direction of a favourable effect; the predicate decides a seed.
SEEDED = {
    "f7_ordering": (
        "f7",
        lambda r: r["CliffGuard"][0] < r["ExistingDesigner"][0],
        lambda r: r["ExistingDesigner"][0] / r["CliffGuard"][0],
        "higher",
        "R1 columnar: CliffGuard avg < ExistingDesigner avg; effect Existing/CliffGuard",
    ),
    "f8_moderate_gamma": (
        "f8",
        lambda r: r["sweep"]["1"][0] <= min(r["sweep"]["0"][0], r["sweep"]["8"][0]),
        lambda r: min(r["sweep"]["0"][0], r["sweep"]["8"][0]) / r["sweep"]["1"][0],
        "higher",
        "R1 Γ sweep {0, Γ0, 8Γ0}: avg at Γ0 <= avg at 0 and at 8Γ0; "
        "effect min(avg(0), avg(8Γ0)) / avg(Γ0)",
    ),
    "f10_ordering": (
        "f10",
        lambda r: r["CliffGuard"][0] < r["ExistingDesigner"][0],
        lambda r: r["ExistingDesigner"][0] / r["CliffGuard"][0],
        "higher",
        "R1 row store: CliffGuard avg < ExistingDesigner avg; effect Existing/CliffGuard",
    ),
    "f12_flat": (
        "f12",
        lambda r: abs(r["16"][0] - r["8"][0]) <= F12_FLAT * r["8"][0],
        lambda r: r["8"][0] / r["16"][0],
        "lower",  # flatter
        f"R1 n sweep: |avg(16) - avg(8)| <= {F12_FLAT:.0%} of avg(8); effect avg(8)/avg(16)",
    ),
    "heldout_guarantee": (
        "heldout",
        lambda r: r["robust"] <= HELDOUT_SLACK * r["nominal"],
        lambda r: r["robust"] / r["nominal"],
        "lower",
        f"tiny fixture, fresh neighborhood: robust worst <= {HELDOUT_SLACK} x nominal worst; "
        "effect robust/nominal",
    ),
}
DETERMINISTIC = {
    "f8_gamma0_nominal": (
        "f8",
        lambda r: all(r["digests_equal"]),
        "R1 at Γ = 0: every CliffGuard design digest equals the nominal design's",
    ),
}


def bootstrap_interval(values, resamples: int = BOOTSTRAP_RESAMPLES) -> list[float]:
    """95 % percentile bootstrap interval of the mean (seeded: repeatable)."""
    data = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(0)
    means = data[rng.integers(0, len(data), size=(resamples, len(data)))].mean(axis=1)
    return [float(np.quantile(means, 0.025)), float(np.quantile(means, 0.975))]


def fisher_lower_p(passed: int, seeds: int, base_passed: int, base_seeds: int) -> float:
    """One-sided Fisher exact p-value that the first table's pass rate is
    below the second's: P(X <= passed) under the hypergeometric null."""
    total_passed = passed + base_passed
    total = seeds + base_seeds
    denominator = comb(total, total_passed)
    low = max(0, total_passed - base_seeds)
    return sum(
        comb(seeds, x) * comb(base_seeds, total_passed - x) for x in range(low, passed + 1)
    ) / denominator


def summarize(records: dict) -> dict:
    """Pass counts, effects and intervals of one table's per-seed records."""
    summary = {}
    for claim, (kind, holds, effect, better, _) in SEEDED.items():
        rows = list(records[kind].values())
        effects = [effect(r) for r in rows]
        summary[claim] = {
            "passed": sum(bool(holds(r)) for r in rows),
            "seeds": len(rows),
            "mean_effect": statistics.fmean(effects),
            "ci95": bootstrap_interval(effects),
            "better": better,
        }
    for claim, (kind, holds, _) in DETERMINISTIC.items():
        rows = list(records[kind].values())
        summary[claim] = {"passed": sum(bool(holds(r)) for r in rows), "seeds": len(rows)}
    worst = [w for r in records["nominal_worst"].values() for w in r["worst"]]
    q1, median, q3 = (float(q) for q in np.quantile(worst, [0.25, 0.5, 0.75]))
    summary["nominal_worst"] = {
        "values": len(worst), "median": median, "q1": q1, "q3": q3,
        "min": min(worst), "max": max(worst),
    }
    return summary


def gate(parent: dict, change: dict) -> dict:
    """The change's verdict against the parent, claim by claim."""
    verdict = {}
    for claim in DETERMINISTIC:
        ok = all(t[claim]["passed"] == t[claim]["seeds"] for t in (parent, change))
        verdict[claim] = {"ok": ok}
    for claim in SEEDED:
        base, new = parent[claim], change[claim]
        p = fisher_lower_p(new["passed"], new["seeds"], base["passed"], base["seeds"])
        side = (base["mean_effect"] > 1.0) == (new["mean_effect"] > 1.0)
        lo, hi = base["ci95"]
        mean = new["mean_effect"]
        inside = mean >= lo if base["better"] == "higher" else mean <= hi
        verdict[claim] = {
            "fisher_p": p, "sign_kept": side, "in_interval_or_better": inside,
            "ok": p >= ALPHA and side and inside,
        }
    base, new = parent["nominal_worst"], change["nominal_worst"]
    verdict["nominal_worst"] = {"ok": base["q1"] <= new["median"] <= base["q3"]}
    return verdict


# -- the run -------------------------------------------------------------------------


def _tree() -> str:
    """The source tree measured: the commit, marked when ``src/`` differs."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "src"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return commit + ("+modified" if dirty else "")


def run(seeds: dict, checkpointer: RunCheckpointer | None = None) -> dict:
    """Every (cell kind, seed) pair, one after another on the serial
    backend: ``{kind: {seed: record}}``."""
    cells = {(kind, seed): (kind, seed) for kind, range_ in seeds.items() for seed in range_}
    state_key = run_key("claims", tuple(cells))
    state = _run_cells(
        "claims", state_key, {"records": {}}, "records", cells, _claim_task,
        None, checkpointer,
    )
    records: dict = {kind: {} for kind in seeds}
    for (kind, seed), record in state["records"].items():
        records[kind][str(seed)] = record
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="change", help="table name in the output file")
    parser.add_argument("--smoke", action="store_true", help="two seeds per claim (CI leg)")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--checkpoint", type=Path, default=None)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)
    out = args.out or ROOT / ("CLAIMS.smoke.json" if args.smoke else "CLAIMS.json")
    seeds = SMOKE_SEEDS if args.smoke else SEEDS
    checkpointer = (
        RunCheckpointer(args.checkpoint, resume=args.resume) if args.checkpoint else None
    )
    started = time.perf_counter()
    records = run(seeds, checkpointer)
    table = {
        "tree": _tree(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": time.perf_counter() - started,
        "seeds": {kind: [min(r), max(r)] for kind, r in seeds.items()},
        "summary": summarize(records),
        "records": records,
    }
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload["claims"] = {
        **{name: spec[-1] for name, spec in SEEDED.items()},
        **{name: spec[-1] for name, spec in DETERMINISTIC.items()},
        "nominal_worst": "design-r1-columnar seed rounds: worst_case_history[0] per design",
    }
    payload.setdefault("tables", {})[args.label] = table
    tables = payload["tables"]
    if "parent" in tables and "change" in tables:
        payload["gate"] = gate(tables["parent"]["summary"], tables["change"]["summary"])
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for claim, row in table["summary"].items():
        print(f"{claim:22s} {json.dumps(row)}")
    if "gate" in payload:
        print("gate:", json.dumps({c: v["ok"] for c, v in payload["gate"].items()}))
    deterministic = all(
        table["summary"][c]["passed"] == table["summary"][c]["seeds"] for c in DETERMINISTIC
    )
    return 0 if deterministic else 1


if __name__ == "__main__":
    sys.exit(main())
