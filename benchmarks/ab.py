"""Order-alternated A/B pairs of the end-to-end ledger: a base revision
against this checkout.

    python -m benchmarks.ab --base REV --workloads W [W ...] --seeds S [S ...]

REV is exported with ``git archive`` into a temporary directory; the
change side is this checkout as it stands (uncommitted edits included).
For every workload, seed *k* is one pair: both trees run the frozen
``benchmarks/e2e/run.py --trace 0`` for that seed, each in a fresh
process, the base first on even pairs and the change first on odd ones.
For every end-to-end metric the summary prints both sides' median and
q1–q3, the change's median as a share of the base's, and "ahead k/n":
the pairs the change won, ties counting for neither side.  A metric
whose change won at least nine tenths of the pairs by more than the
base's own q1–q3 spread in the median reads ``better`` (``worse`` the
other way round); anything else reads ``-``.  A row whose change median
is worse than the base median by more than the metric's BENCHMARK.json
``bound`` (a fraction of the base median) also reads ``past bound``.

Exits 1 when any run reports ``correct: false`` or ``failed > 0``, or
when any row is past its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"


def export(rev: str, into: Path) -> Path:
    """Extract ``rev``'s committed tree into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


FAILED_RUN = {"correct": False, "failed": 1, "metrics": {}}


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ledger run in ``tree``: its result line, parsed.

    A run that exits non-zero, prints nothing or ends on a line that is
    not a result counts as failed.
    """
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if isinstance(result, dict) and "metrics" in result:
            return result
    sys.stderr.write(completed.stderr)
    return FAILED_RUN


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    pairs: dict[str, list[tuple[dict, dict]]],
    better: dict[str, str],
    bounds: dict[str, float] | None = None,
) -> tuple[list[str], bool]:
    """``(lines, failed)`` for ``{workload: [(base result, change result), ...]}``.

    ``better`` maps each end-to-end metric to ``"lower"`` or ``"higher"``,
    ``bounds`` each to the fraction of the base median by which its
    change median may be worse; ``failed`` is set by a failed run or a
    row past its bound.
    """
    bounds = bounds or {}
    lines: list[str] = []
    failed = False
    for workload, results in pairs.items():
        bad = [
            side
            for pair in results
            for side, result in zip(("base", "change"), pair)
            if not result.get("correct") or result.get("failed", 1) > 0
        ]
        if bad:
            failed = True
            lines.append(f"{workload}  FAILED runs: {len(bad)} ({', '.join(sorted(set(bad)))})")
            continue
        for metric, direction in better.items():
            base = [a["metrics"][metric]["value"] for a, _ in results]
            change = [b["metrics"][metric]["value"] for _, b in results]
            sign = 1.0 if direction == "lower" else -1.0
            ahead = sum(sign * (a - b) > 0 for a, b in zip(base, change))
            behind = sum(sign * (b - a) > 0 for a, b in zip(base, change))
            (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
            verdict = "-"
            if sign * (bmed - cmed) > bq3 - bq1 and ahead >= 0.9 * len(results):
                verdict = "better"
            elif sign * (cmed - bmed) > bq3 - bq1 and behind >= 0.9 * len(results):
                verdict = "worse"
            unit = results[0][0]["metrics"][metric]["unit"]
            ratio = f"{cmed / bmed:.3f}" if bmed else "n/a"
            line = (
                f"{workload}  {metric}  base {bmed:.6g} [{bq1:.6g}–{bq3:.6g}]  "
                f"change {cmed:.6g} [{cq1:.6g}–{cq3:.6g}] {unit}  "
                f"change/base {ratio}  ahead {ahead}/{len(results)}  {verdict}"
            )
            if metric in bounds and sign * (cmed - bmed) > bounds[metric] * abs(bmed):
                failed = True
                line += "  past bound"
            lines.append(line)
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed")
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(manifest["run_seconds"])
    better = {metric["name"]: metric["better"] for metric in manifest["end_to_end"]}
    bounds = {metric["name"]: float(metric["bound"]) for metric in manifest["end_to_end"]}
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as scratch:
        base = export(args.base, Path(scratch))
        for workload in args.workloads:
            pairs[workload] = []
            for k, seed in enumerate(args.seeds):
                trees = (base, ROOT) if k % 2 == 0 else (ROOT, base)
                first, second = (run(tree, workload, seed, seconds) for tree in trees)
                pair = (first, second) if k % 2 == 0 else (second, first)
                pairs[workload].append(pair)
                print(f"{workload} seed {seed}: pair {k + 1}/{len(args.seeds)} done", file=sys.stderr)
    lines, failed = summarize(pairs, better, bounds)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
