"""Drift-aware operations: monitor the workload, re-design on alarm.

Combines the streaming :class:`WorkloadMonitor` (the paper's suggested
"workload monitoring" application of δ) with a re-design policy: the
database is re-designed only when the observed workload has drifted past
a threshold since the current design was built — instead of on a blind
monthly timer.

Run:  python examples/drift_monitoring.py
"""

from repro import (
    ColumnarAdapter,
    ColumnarCostModel,
    ColumnarNominalDesigner,
    TraceGenerator,
    WorkloadDistance,
    build_star_schema,
    default_budget_bytes,
    r1_profile,
    replay,
    split_windows,
)
from repro.serve import DriftTriggeredPolicy, PeriodicPolicy, TraceSource
from repro.workload.monitor import WorkloadMonitor


def main() -> None:
    schema, roles = build_star_schema()
    trace = TraceGenerator(schema, roles, r1_profile(queries_per_day=15), seed=31)
    queries = trace.generate(days=280)
    windows = split_windows(queries, 28)
    distance = WorkloadDistance(schema.total_columns)

    # 1. Stream the trace through the monitor and show the alarms.
    drift = [distance(windows[i], windows[i + 1]) for i in range(len(windows) - 1)]
    threshold = sum(drift) / len(drift)
    monitor = WorkloadMonitor(distance, threshold=threshold, window_days=28)
    warmup = [q for q in queries if q.timestamp < 28]
    monitor.observe_many(warmup)
    monitor.rebase()
    alarms = monitor.observe_many(q for q in queries if q.timestamp >= 28)
    print(f"observed {len(queries)} queries; drift threshold δ > {threshold:.5f}")
    for alarm in alarms[:6]:
        print(f"  day {alarm.at_day:6.1f}: δ = {alarm.distance:.5f}  → re-design advised")
    if len(alarms) > 6:
        print(f"  … and {len(alarms) - 6} more alarms")

    # 2. Compare re-design policies end to end.
    adapter = ColumnarAdapter(
        ColumnarCostModel(schema), default_budget_bytes(schema, 0.5)
    )
    nominal = ColumnarNominalDesigner(adapter)
    print("\nreplaying the trace under three re-design policies…")
    policies = {
        "monthly (paper practice)": PeriodicPolicy(every=1),
        "quarterly": PeriodicPolicy(every=3),
        "drift-triggered": DriftTriggeredPolicy(distance, threshold),
    }
    for label, policy in policies.items():
        result = replay(
            TraceSource.from_windows(windows), {"nominal": nominal}, adapter, policy=policy
        )
        run = result.run("nominal")
        print(
            f"  {label:26s}: avg {run.mean_average_ms:8.1f} ms over "
            f"{len(run.windows)} windows, "
            f"{run.redesign_count} re-designs, "
            f"deployment {run.deployment_seconds(adapter) / 3600:.1f} h"
        )
    print(
        "\nReading: the drift-triggered policy spends deployment hours only"
        " when the workload actually moved, landing between the monthly"
        " and quarterly timers on both cost and latency."
    )


if __name__ == "__main__":
    main()
