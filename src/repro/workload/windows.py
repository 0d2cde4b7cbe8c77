"""Time-windowing of query streams.

The paper divides traces into fixed windows (7/14/21/28 days), designs at
the end of each window, and evaluates on the next one (Section 6.1).
"""

from __future__ import annotations

import math

from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload


def split_windows(
    queries: list[WorkloadQuery] | Workload,
    window_days: float,
) -> list[Workload]:
    """Split ``queries`` into consecutive windows of ``window_days``.

    Windows are aligned at the first timestamp.
    Empty trailing windows are dropped; empty interior windows are kept so
    window indices stay aligned to calendar time.
    """
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    items = list(queries)
    if not items:
        return []
    items.sort(key=lambda q: q.timestamp)
    first = items[0].timestamp
    last = items[-1].timestamp
    count = max(1, int(math.floor((last - first) / window_days)) + 1)
    buckets: list[list[WorkloadQuery]] = [[] for _ in range(count)]
    for query in items:
        idx = int((query.timestamp - first) // window_days)
        if 0 <= idx < count:
            buckets[idx].append(query)
    while buckets and not buckets[-1]:
        buckets.pop()
    return [Workload(bucket) for bucket in buckets]


def shared_template_fraction(window_a: Workload, window_b: Workload) -> float:
    """Fraction of ``window_a``'s query mass whose template also occurs in
    ``window_b`` (the quantity plotted in the paper's Figure 5).

    Templates here are the full clause-wise 4-tuples, matching the paper's
    definition ("stripping away the query details except for the sets of
    columns used in the select, where, group by, and order by clauses").
    """
    vector_a = window_a.template_vector("separate")
    if not vector_a:
        return 0.0
    templates_b = set(window_b.template_vector("separate"))
    shared = sum(w for key, w in vector_a.items() if key in templates_b)
    return shared
