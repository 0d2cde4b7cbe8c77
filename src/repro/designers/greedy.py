"""Shared benefit-per-byte greedy selection.

Both nominal designers ("ExistingDesigner" in the paper) follow the classic
what-if advisor loop: generate candidate structures from the workload's
templates, price every (query, candidate) pair with the optimizer's what-if
interface, then greedily pick the structure with the best marginal benefit
per byte until the budget is exhausted.  The paper notes existing designers
"often use heuristics or greedy strategies [55], which lead to
approximations of the nominal optima" — this module is that strategy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.designers.scope import DesignScope
from repro.workload.workload import Workload

if TYPE_CHECKING:  # base.py imports this module for the nominal designers
    from repro.designers.base import DesignAdapter

#: Greedy selection stops once the best affordable benefit is at most this.
MIN_BENEFIT_MS = 1e-6


@dataclass
class CandidateEvaluation:
    """Pre-priced (query × candidate) matrix for greedy selection."""

    candidates: list
    #: Distinct SQL strings, aligned with the cost arrays.
    sqls: list[str]
    #: Frequency weight per query.
    weights: np.ndarray
    #: Cost of each query under the empty design.
    base_costs: np.ndarray
    #: ``matrix[c, q]``: query cost with only candidate ``c`` deployed
    #: (``inf`` when the candidate cannot serve the query).
    matrix: np.ndarray
    #: Estimated bytes per candidate.
    sizes: np.ndarray


def evaluate_candidates(
    adapter: DesignAdapter,
    workload: Workload,
    candidates: list,
    scope: DesignScope | None = None,
) -> CandidateEvaluation:
    """Price every candidate against every distinct query of ``workload``.

    Queries that do not parse or reference unknown tables are skipped (the
    paper's trace had a large such fraction); they cannot benefit from any
    design and would only add a constant to every column of the matrix.

    When the costing service has a vectorized kernel for the adapter's
    model, the whole (candidates × queries) matrix is priced in a handful
    of numpy ops (see :mod:`repro.costing.kernel`); the scalar loop below
    is the reference path and stays bit-identical to it.

    With a ``scope``, each candidate's column key and size are computed
    once per structure object for the whole robust design.
    """
    collapsed = workload.collapsed()
    sqls: list[str] = []
    weights: list[float] = []
    profiles = []
    for query in collapsed:
        try:
            profiles.append(adapter.profile(query.sql))
        except ValueError:
            continue
        sqls.append(query.sql)
        weights.append(query.frequency)

    if scope is None:
        keys = None
        sizes = [adapter.structure_size(c) for c in candidates]
    else:
        identities = [scope.identity(c, adapter) for c in candidates]
        keys = [key for key, _ in identities]
        sizes = [size for _, size in identities]
    service = adapter.costing
    if profiles and candidates and getattr(service, "kernel", None) is not None:
        base, matrix = service.candidate_costs(profiles, candidates, keys)
    else:
        empty = adapter.empty_design()
        base = np.array(
            [adapter.query_cost(p, empty) for p in profiles], dtype=np.float64
        )
        matrix = np.full((len(candidates), len(profiles)), np.inf)
        for c, candidate in enumerate(candidates):
            single = adapter.make_design([candidate])
            for q, profile in enumerate(profiles):
                if all(candidate.table != t.table for t in profile.tables):
                    # A structure on a table the query never touches cannot
                    # change any access path: the cost is the base cost.
                    matrix[c, q] = base[q]
                    continue
                anchor_only = adapter.structure_cost(profile, candidate)
                if (
                    anchor_only is None
                    and profile.anchor.table == candidate.table
                    and not profile.is_write
                ):
                    continue  # cannot serve this query at all
                # Writes are never *served* by a structure, but a same-table
                # structure still changes their cost (maintenance), so they
                # are priced rather than left at inf.
                matrix[c, q] = adapter.query_cost(profile, single)
    return CandidateEvaluation(
        candidates=candidates,
        sqls=sqls,
        weights=np.array(weights, dtype=np.float64),
        base_costs=base,
        matrix=matrix,
        sizes=np.array(sizes, dtype=np.float64),
    )


def greedy_select(evaluation: CandidateEvaluation, budget_bytes: int) -> list:
    """Greedy benefit-per-byte selection under a byte budget.

    Returns the chosen candidate structures, in pick order.  The marginal
    benefit of a candidate is computed against the running per-query
    best costs, so overlapping candidates are not double-counted:
    ``benefit[c] = Σ_q w_q · max(0, current_q − matrix[c, q])`` over the
    finite improvements, summed with :func:`math.fsum` — correctly
    rounded, so the value does not depend on the order of the queries.
    Each pick takes the affordable candidate of highest
    ``benefit / max(size, 1)``, the lower candidate index on a tie, and
    selection stops when that benefit is at most :data:`MIN_BENEFIT_MS`.
    Weights must be finite and non-negative (they are query frequencies).

    The loop is lazy: a pick only lowers ``current``, so a benefit can
    only fall, and a max-heap of last-known densities re-prices just its
    top entry until a freshly priced entry stays on top.  Only the cells
    below the base cost are ever read after setup — a small fraction of
    the matrix, since a structure improves few of the queries it sees.
    """
    if not evaluation.candidates or evaluation.base_costs.size == 0:
        return []
    base = evaluation.base_costs
    matrix = evaluation.matrix
    weights = evaluation.weights.tolist()
    sizes = evaluation.sizes.tolist()
    remaining = float(budget_bytes)

    # The cells each candidate can improve: finite and below the base
    # cost (``current`` never rises above it); candidate c's are
    # ``reach[bounds[c]:bounds[c + 1]]``, as (query, cost) pairs.
    rows, cols = np.nonzero(np.isfinite(matrix) & (matrix < base[None, :]))
    bounds = np.searchsorted(rows, np.arange(len(sizes) + 1)).tolist()
    reach = list(zip(cols.tolist(), matrix[rows, cols].tolist()))
    current = base.tolist()
    inf = math.inf

    def benefit_of(c: int) -> float:
        # An improvement that overflows to inf counts 0, as it always has.
        return math.fsum(
            [
                gain * weights[q]
                for q, cost in reach[bounds[c] : bounds[c + 1]]
                if 0.0 < (gain := current[q] - cost) < inf
            ]
        )

    benefits = [benefit_of(c) for c in range(len(sizes))]
    # Entries are (-density, index, picks when priced): the heap's top is
    # the highest density, the lower index on a tie, and an entry priced
    # before the latest pick is an upper bound that needs re-pricing.
    heap = [(-(b / max(s, 1.0)), c, 0) for c, (b, s) in enumerate(zip(benefits, sizes))]
    heapq.heapify(heap)
    chosen: list[int] = []
    while heap:
        _, c, priced_at = heap[0]
        if sizes[c] > remaining:
            heapq.heappop(heap)  # the budget only shrinks
            continue
        if priced_at != len(chosen):
            benefits[c] = fresh = benefit_of(c)
            heapq.heapreplace(heap, (-(fresh / max(sizes[c], 1.0)), c, len(chosen)))
            continue
        if benefits[c] <= MIN_BENEFIT_MS:
            break
        heapq.heappop(heap)
        chosen.append(c)
        remaining -= sizes[c]
        for q, cost in reach[bounds[c] : bounds[c + 1]]:
            if cost < current[q]:
                current[q] = cost
    return [evaluation.candidates[i] for i in chosen]
