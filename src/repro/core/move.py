"""Algorithm 3: ``MoveWorkload``.

Builds a merged workload that is closer to the worst neighbors than ``W0``
is, by re-weighting each query::

    ω_q = (f_q · Σ_i weight(q, Ŵ_i))^α + weight(q, W0)

where ``f_q`` is the query's cost under the current design, ``weight(q, W)``
is the query's normalized frequency in ``W``, and ``α > 0`` is the step
size (the analogue of BNT's ``t_k``).  Two properties the paper leans on:

* taking latencies *and* frequencies into account "encourages the nominal
  designer to seek designs that reduce the cost of more expensive and/or
  popular queries";
* the ``+ weight(q, W0)`` term means the original workload is never fully
  abandoned, which is why CliffGuard degrades to (not below) the nominal
  designer at extreme Γ (Section 6.5).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload


class WorkloadDigest:
    """What :func:`move_workload` reads of one workload that no α and no
    cost changes: its normalized weight per text, and the first query of
    each text (whose timestamp a moved query keeps)."""

    __slots__ = ("weights", "first")

    def __init__(self, workload: Workload):
        self.weights: dict[str, float] = workload.normalized_weights()
        self.first: dict[str, WorkloadQuery] = {}
        for query in workload:
            self.first.setdefault(query.sql, query)


def move_workload(
    base: Workload,
    worst_neighbors: Sequence[Workload],
    cost: Callable[[str], float],
    alpha: float,
    keep_base: bool = True,
    digest: Callable[[Workload], WorkloadDigest] = WorkloadDigest,
) -> Workload:
    """Merge ``base`` with its worst neighbors, re-weighted per Algorithm 3.

    ``cost`` maps a SQL string to its latency under the *current* design;
    it is called once per distinct query of ``base`` and the neighbors.
    CliffGuard passes the lookup of the incumbent's per-query costs it
    already holds from evaluating the neighborhood (which contains
    ``W0``), so the move prices nothing itself.
    ``keep_base=False`` drops the ``+ weight(q, W0)`` anchor — the paper
    credits that anchor for CliffGuard never falling below the nominal
    designer at extreme Γ (Section 6.5), and the A3 ablation bench
    measures exactly that.
    ``digest`` maps a workload to its :class:`WorkloadDigest`; CliffGuard
    passes a lookup of digests it built once for its fixed neighborhood.
    ``alpha`` must be finite and positive.

    Two practical refinements over the paper's formula, both documented in
    DESIGN.md:

    * the latency factor ``f_q`` is normalized by the mean latency across
      the merged queries, making the neighbor term dimensionless and
      commensurate with the ``weight(q, W0)`` anchor regardless of the
      engine's cost scale (with raw milliseconds the neighbor term is
      10³–10⁴ times the anchor and the designer abandons the original
      workload entirely);
    * the step size enters **multiplicatively** (``ω = w0 + α·f̃·mass``)
      rather than as an exponent.  An exponent is only monotone in α when
      its base exceeds 1; once normalized, bases are below 1 and a larger
      "step" would paradoxically move *less*.  The multiplicative form
      keeps the paper's semantics — α controls how far the merged workload
      tilts toward the worst neighbors, and the backtracking line search
      grows or shrinks that tilt — across cost scales.
    """
    # Negated, so that NaN fails too.
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    base_digest = digest(base)
    neighbor_digests = [digest(w) for w in worst_neighbors]
    base_weights = base_digest.weights
    neighbor_weights = [d.weights for d in neighbor_digests]

    all_sql: dict[str, WorkloadQuery] = dict(base_digest.first)
    for neighbor in neighbor_digests:
        for sql, query in neighbor.first.items():
            all_sql.setdefault(sql, query)

    costs = {sql: cost(sql) for sql in all_sql}
    mean_cost = sum(costs.values()) / max(len(costs), 1)
    if mean_cost <= 0:
        mean_cost = 1.0

    # Average (not sum) the neighbor masses so the tilt toward the worst
    # neighbors does not grow with how many of them the caller passes in —
    # the number of worst neighbors is an exploration knob, not a weight.
    neighbor_count = max(len(neighbor_weights), 1)
    moved: list[WorkloadQuery] = []
    for sql, query in all_sql.items():
        neighbor_mass = (
            sum(weights.get(sql, 0.0) for weights in neighbor_weights)
            / neighbor_count
        )
        f_q = (costs[sql] / mean_cost) if neighbor_mass > 0 else 0.0
        anchor = base_weights.get(sql, 0.0) if keep_base else 0.0
        omega = alpha * f_q * neighbor_mass + anchor
        if omega > 0:
            moved.append(
                WorkloadQuery(sql=sql, timestamp=query.timestamp, frequency=omega)
            )
    return Workload(moved)
