"""The end-to-end perf ledger: one command, four workloads, two passes.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{correct, attempted, failed,
metrics}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--trace`` it is the ledger: every workload (or the one named)
runs in a fresh child process of its own, one at a time, an untraced
pass and then a traced pass, and the result file is written::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--out FILE]

See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The command names only this file, so the program under test (src/) and
# the sibling modules are put on the path here.
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

try:
    import repro  # noqa: F401
except ImportError as error:
    print(f"cannot import the program under test from {ROOT / 'src'}: {error}", file=sys.stderr)
    raise SystemExit(2)

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-ups timed before the first unit of a run (``setup_s`` is their median,
#: together with the set-up of every later round).
SETUP_REPEATS = 3

#: name -> unit.  Every workload reports every one of them; ``unit_ms_*``
#: is per the workload's own unit of work (its ``unit`` field).
END_TO_END = {
    "setup_s": "s",
    "unit_ms_p50": "ms",
    "unit_ms_mean": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> key of the round's exact outputs.
_OUTPUT_METRICS = {
    "designers.design_price_bytes": "design_price_bytes",
    "designers.structure_count": "structure_count",
    "quality_avg_ms": "quality_avg_ms",
    "quality_max_ms": "quality_max_ms",
}

#: per-layer metric -> (split, quantile, scale from seconds, unit).
_SERVE_SPLITS = {
    "serve.daemon.ingest_us_p50": ("ingest", 0.5, 1e6, "us"),
    "serve.daemon.ingest_us_p99": ("ingest", 0.99, 1e6, "us"),
    "serve.daemon.ingest_us_p999": ("ingest", 0.999, 1e6, "us"),
    "serve.daemon.ingest_us_p50.read": ("read", 0.5, 1e6, "us"),
    "serve.daemon.ingest_us_p50.insert": ("insert", 0.5, 1e6, "us"),
    "serve.daemon.ingest_us_p50.update": ("update", 0.5, 1e6, "us"),
    "serve.daemon.ingest_us_p50.delete": ("delete", 0.5, 1e6, "us"),
    "serve.daemon.boundary_stall_ms_p50": ("boundary", 0.5, 1e3, "ms"),
    "serve.daemon.redesign_stall_s_p50": ("redesign", 0.5, 1.0, "s"),
}


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric, in reporting order."""
    units: dict[str, str] = {}
    for span in spans.SPAN_TARGETS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
        units[f"{span}.share"] = "ratio"
    units["workload.sampler.mutations"] = "count"
    units["state.checkpoint.bytes_written"] = "bytes"
    for counter in spans.STATS_COUNTERS:
        if counter != "costing.service.query_hits":
            units[counter] = "count"
    units["costing.service.query_hit_rate"] = "ratio"
    units["designers.design_price_bytes"] = "bytes"
    units["designers.structure_count"] = "count"
    units["quality_avg_ms"] = units["quality_max_ms"] = "ms"
    for name, (_split, _q, _scale, unit) in _SERVE_SPLITS.items():
        units[name] = unit
    units["bench.traced_units"] = "count"
    units["bench.traced_wall_s"] = "s"
    units["bench.traced_unit_ms_mean"] = "ms"
    units["bench.span_cost_share"] = "ratio"
    return units


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _lengths(intervals) -> list[float]:
    return [end - start for start, end in intervals]


def _split_summary(round_: workloads.Round, probe: calibration.SpeedProbe) -> dict:
    return {
        name: {
            "n": len(intervals),
            "p50_s": percentile([probe.seconds(*iv) for iv in intervals], 0.5),
            "raw_p50_s": percentile(_lengths(intervals), 0.5),
        }
        for name, intervals in round_.splits.items()
    }


# -- one run ---------------------------------------------------------------------------


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """The untraced pass: ``(end-to-end metrics, detail)``."""
    setups = []
    rounds: list[workloads.Round] = []
    with calibration.SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            stack, interval = workloads.fresh_setup(workload, seed)
            setups.append(interval)
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            if rounds:
                stack, interval = workloads.fresh_setup(
                    workload, seed + workloads.ROUND_SEED_STRIDE * len(rounds)
                )
                setups.append(interval)
            # Only the first round is owed in full.
            budget = workloads.Budget(deadline, 0 if rounds else workload.units_per_round)
            round_ = workload.run(stack, budget)
            workload.verify(stack, round_)
            rounds.append(round_)
            if len(rounds) == 1:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    units = [iv for round_ in rounds for iv in round_.units]
    unit_s = [probe.seconds(*iv) for iv in units]
    values = {
        "setup_s": statistics.median(probe.seconds(*iv) for iv in setups),
        "unit_ms_p50": statistics.median(unit_s) * 1e3,
        # The same units on every run: the mean and the memory peak
        # would otherwise move with how far a run got.
        "unit_ms_mean": statistics.fmean(unit_s[: len(rounds[0].units)]) * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {
        "pass": "untraced",
        "unit": workload.unit,
        "sizes": workloads.sizes(workload),
        "rounds": len(rounds),
        "samples": {"setup_s": len(setups), "unit_ms": len(units)},
        "unit_ms_quartiles": [percentile(unit_s, q) * 1e3 for q in (0.0, 0.25, 0.5, 0.75, 1.0)],
        # As measured on the wall clock, before calibration.
        "raw": {
            "setup_s": statistics.median(_lengths(setups)),
            "unit_ms_p50": statistics.median(_lengths(units)) * 1e3,
            "unit_ms_mean": statistics.fmean(_lengths(rounds[0].units)) * 1e3,
        },
        "probe": {
            "ticks": len(probe.spins),
            "slowdown_p50": statistics.median(probe.spins) / calibration.REFERENCE_SPIN_S,
        },
        "splits": _split_summary(rounds[0], probe),
        "outputs": rounds[0].outputs,
    }
    return _result(rounds, values, END_TO_END), detail


def run_traced(workload, seed: int) -> tuple[dict, dict]:
    """The traced pass, exactly one round: ``(per-layer metrics, detail)``."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        with calibration.SpeedProbe() as probe:
            stack, _interval = workloads.fresh_setup(workload, seed)
            tracer.mark()
            round_ = workload.run(stack, workloads.Budget(0.0, workload.units_per_round))
            # Freeze the numbers before verify() touches the measured service.
            layers, wall = tracer.aggregate()
            stats = tracer.stats_delta()
            counts = dict(tracer.counts)
            workload.verify(stack, round_)
    finally:
        tracer.uninstall()
    values: dict[str, float] = {}
    for span, layer in layers.items():
        values[f"{span}.self_s"] = layer["self_s"]
        values[f"{span}.calls"] = layer["calls"]
        values[f"{span}.share"] = layer["self_s"] / wall if wall else 0.0
    values.update(counts)
    hits = stats.pop("costing.service.query_hits")
    values.update(stats)
    requests = stats["costing.service.query_requests"]
    values["costing.service.query_hit_rate"] = hits / requests if requests else 0.0
    for metric, output in _OUTPUT_METRICS.items():
        values[metric] = round_.outputs.get(output, 0.0)
    for name, (split, q, scale, _unit) in _SERVE_SPLITS.items():
        intervals = round_.splits.get(split, [])
        values[name] = percentile([probe.seconds(*iv) for iv in intervals], q) * scale
    values["bench.traced_units"] = len(round_.units)
    values["bench.traced_wall_s"] = wall
    values["bench.traced_unit_ms_mean"] = (
        statistics.fmean(probe.seconds(*iv) for iv in round_.units) * 1e3
    )
    # The wrappers' own time as a share of the traced wall: the part of
    # the tracing overhead that can be measured inside one process.
    values["bench.span_cost_share"] = len(tracer.spans) * spans.span_cost_s() / wall
    detail = {
        "pass": "traced",
        "spans": len(tracer.spans),
        "splits": _split_summary(round_, probe),
        "outputs": round_.outputs,
    }
    return _result([round_], values, per_layer_units()), detail


def _result(rounds, values: dict, units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metric names drifted: {sorted(set(values) ^ set(units))}")
    failed = sum(round_.failed for round_ in rounds)
    for round_ in rounds:
        for message in round_.failures:
            print(f"FAILED: {message}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": sum(round_.attempted for round_ in rounds),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def run_once(name: str, seed: int, seconds: float, trace: int) -> None:
    workload = workloads.WORKLOADS[name]
    if trace:
        result, detail = run_traced(workload, seed)
    else:
        result, detail = run_untraced(workload, seed, seconds)
    detail.update(workload=name, seed=seed, seconds=seconds)
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


# -- the ledger ------------------------------------------------------------------------


def _stamp(seed: int, seconds: float) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "run_seconds": seconds,
    }


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise SystemExit(f"{name} --trace {trace} exited with {completed.returncode}")
    *_, detail, result = completed.stdout.splitlines()
    return json.loads(result), json.loads(detail)["detail"]


def ledger(names: list[str], seed: int, out: Path) -> int:
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    payload = {"stamp": _stamp(seed, seconds), "workloads": {}}
    failed = 0
    for name in names:
        untraced, detail = _child(name, seed, seconds, 0)
        traced, traced_detail = _child(name, seed, seconds, 1)
        # Both are means over the same units (one full round).
        plain = untraced["metrics"]["unit_ms_mean"]["value"]
        overhead = traced["metrics"]["bench.traced_unit_ms_mean"]["value"] / plain - 1.0
        entry = {
            "attempted": untraced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failed_share": untraced["failed"] / untraced["attempted"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "bench.trace_overhead_pct": 100.0 * overhead,
            "untraced": detail,
            "traced": traced_detail,
        }
        payload["workloads"][name] = entry
        failed += entry["failed"]
        for kind in ("end_to_end", "per_layer"):
            for metric, value in entry[kind].items():
                print(f"{name}  {metric} = {value['value']:.6g} {value['unit']}")
        print(f"{name}  failed_share = {entry['failed_share']:.6g}")
        print(f"{name}  bench.trace_overhead_pct = {100.0 * overhead:.3g} %")
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="how long one untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one run: 0 untraced, 1 traced")
    parser.add_argument("--out", type=Path, default=Path("e2e_result.json"), help="ledger result file")
    args = parser.parse_args(argv)
    if args.trace is None:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        return ledger(names, args.seed, args.out)
    if args.workload is None or args.seconds is None:
        parser.error("--trace needs --workload and --seconds")
    run_once(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
