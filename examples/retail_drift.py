"""Retail analytics under drift: the full designer zoo over six months.

Replays a drifting retail workload window by window, running all six
designers of the paper's Section 6.1 — NoDesign, the oracle
FutureKnowingDesigner, the nominal ExistingDesigner, the MajorityVote and
OptimalLocalSearch heuristics, and CliffGuard — and prints the Figure-7
style comparison.

Run:  python examples/retail_drift.py            (fast, ~2-4 min)
      python examples/retail_drift.py --full     (longer trace)
"""

import sys

from repro import RobustDesignSession, RunConfig
from repro.designers import registry
from repro.harness.reporting import format_table


def main() -> None:
    full = "--full" in sys.argv
    config = RunConfig(
        workload="R1",
        engine="columnar",
        days=364 if full else 196,
        queries_per_day=25 if full else 15,
        n_samples=16 if full else 10,
        max_transitions=None if full else 1,
        skip_transitions=4,
    )
    print(
        f"replaying {config.days} days of retail analytics "
        f"({config.queries_per_day} queries/day, 28-day windows)…"
    )

    # On more than one worker (REPRO_BACKEND/REPRO_JOBS, backend="auto")
    # the per-designer replays fan out; on one they share one cost
    # service.  Results are bit-identical at any worker count.
    with RobustDesignSession(config) as session:
        outcome = session.replay()

    print()
    print(
        format_table(
            ["Designer", "Avg latency (ms)", "Max latency (ms)", "Design time (s)"],
            [
                [
                    name,
                    outcome.run(name).mean_average_ms,
                    outcome.run(name).mean_max_ms,
                    outcome.run(name).mean_design_seconds,
                ]
                for name in registry.names()
            ],
            title="Designer comparison on the drifting retail workload (R1)",
        )
    )

    avg_speedup, max_speedup = outcome.speedup("ExistingDesigner", "CliffGuard")
    oracle_gap = (
        outcome.run("CliffGuard").mean_average_ms
        / outcome.run("FutureKnowingDesigner").mean_average_ms
    )
    print()
    print(f"CliffGuard vs nominal designer: {avg_speedup:.2f}x avg, {max_speedup:.2f}x max")
    print(f"CliffGuard is {oracle_gap:.1f}x away from the future-knowing oracle")


if __name__ == "__main__":
    main()
