"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both values, the ratio B/A
(base: A), the bound ``BENCHMARK.json`` fixes for the metric, and a
verdict — ``worse`` when B is worse than A by more than the bound,
``better`` when it is better by more than the bound, else
``within-bound``.  When both files were recorded for the same seed the
quality pair is compared exactly (any rise is ``worse``) and every exact
count of the traced pass is listed as ``identical`` or ``changed``.

Exits 1 on any ``worse`` row or any higher ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

QUALITY = ("quality_avg_ms", "quality_max_ms")


def is_exact(name: str, unit: str) -> bool:
    """Whether a per-layer metric repeats exactly for one seed."""
    # Checkpoint payloads pickle wall-clock readings, whose encoded
    # length varies by a few bytes from run to run.
    return unit in ("count", "bytes") and name != "state.checkpoint.bytes_written"


def verdict(base: float, other: float, better: str, bound: float) -> str:
    """Where ``other`` stands against ``base`` for one bounded metric."""
    if better == "higher":
        base, other = -base, -other
    slack = abs(base) * bound
    if other > base + slack:
        return "worse"
    if other < base - slack:
        return "better"
    return "within-bound" if bound else "identical"


def compare(first: dict, second: dict, manifest: dict) -> tuple[list[tuple], bool]:
    """``(rows, failed)``; a row is (workload, metric, A, B, ratio, bound, verdict)."""
    rows: list[tuple] = []
    same_seed = first["stamp"]["seed"] == second["stamp"]["seed"]
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            continue
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            x, y = a["end_to_end"][key]["value"], b["end_to_end"][key]["value"]
            rows.append(
                (name, key, x, y, y / x, metric["bound"],
                 verdict(x, y, metric["better"], metric["bound"]))
            )
        rows.append(
            (name, "failed_share", a["failed_share"], b["failed_share"], None, 0.0,
             "worse" if b["failed_share"] > a["failed_share"] else "identical")
        )
        if not same_seed:
            continue
        for key, entry in a["per_layer"].items():
            if key not in b["per_layer"]:
                continue  # a counter one side's benchmark did not have yet
            x, y = entry["value"], b["per_layer"][key]["value"]
            if key in QUALITY:
                rows.append((name, key, x, y, y / x, 0.0, verdict(x, y, "lower", 0.0)))
            elif is_exact(key, entry["unit"]):
                rows.append(
                    (name, key, x, y, None, None, "identical" if x == y else "changed")
                )
    return rows, any(row[-1] == "worse" for row in rows)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, failed = compare(first, second, manifest)
    print(f"A = {argv[0]} ({first['stamp']['commit'][:12]}, seed {first['stamp']['seed']})")
    print(f"B = {argv[1]} ({second['stamp']['commit'][:12]}, seed {second['stamp']['seed']})")
    if first["stamp"]["seed"] != second["stamp"]["seed"]:
        print("seeds differ: quality and exact counts are not compared")
    print(f"{'workload':26} {'metric':42} {'A':>14} {'B':>14} {'B/A':>7} {'bound':>6}  verdict")
    identical = 0
    for name, metric, x, y, ratio, bound, word in rows:
        if word == "identical" and bound is None:
            identical += 1
            continue
        shown_ratio = f"{ratio:7.3f}" if ratio is not None else " " * 7
        shown_bound = f"{bound:6.2f}" if bound is not None else " " * 6
        print(f"{name:26} {metric:42} {x:14.6g} {y:14.6g} {shown_ratio} {shown_bound}  {word}")
    print(f"{identical} exact counts identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
