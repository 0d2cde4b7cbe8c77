"""Workload distance metrics (paper Section 5 and Appendix C).

``δ_euclidean`` (Equation 9) treats a workload as a sparse template-
frequency vector ``V_W`` and computes::

    δ(W1, W2) = |V_W1 − V_W2| × S × |V_W1 − V_W2|^T

where ``|·|`` is the element-wise absolute difference and ``S`` is the
similarity matrix whose ``(i, j)`` entry is the Hamming distance between
the binary column-set encodings of templates ``i`` and ``j`` divided by
``2·n`` (``n`` = total columns in the database).  Although ``V_W`` is
conceptually ``(2^n − 1)``-dimensional, both vectors are extremely sparse,
so the computation runs in ``O(T² · n)`` over observed templates only —
exactly the paper's complexity claim.

Variants:

* ``δ_separate`` — clause-wise 4-tuple keys (Figure 11's "Euc-separate"),
* clause-restricted unions (Figure 11's "Euc-union (S)", "(W)", ...),
* ``δ_latency`` (Appendix C, Equation 11) — blends a latency-difference
  term ``R`` with weight ``ω``.

Implementation notes: templates are encoded as fixed-width ``uint64`` bit
arrays, so every Hamming distance is a vectorized XOR + popcount; the
quadratic form is evaluated in chunked numpy.  Only the words some mask
of the pair sum uses are XOR-ed: a word that is zero in every mask adds
zero to every distance, and a reading's masks use a median of 2 of the
13 words of an 809-column schema.  The chunks are still sized by the
full width, so the skip changes neither the integer Hamming matrix nor
the float summation order.  For the sampler's hot path
(``W0`` vs. a template-disjoint probe ``Q``) the form decomposes as
``δ = q(V_W0) + 2·cross(W0, Q) + q(V_Q)`` with the per-workload self term
``q(·)`` cached, cutting the cost from ``O(T0²)`` to ``O(T0·k)`` per probe.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.costing.memo import BoundedMemo
from repro.sql.analyzer import CLAUSES
from repro.workload.workload import SEPARATE, ClauseSpec, VectorKey, Workload

#: The paper's default clause spec: union of select, where, group, order.
SWGO: ClauseSpec = tuple(CLAUSES)

#: Budget (in xor-ed words) per numpy chunk of the pairwise computation.
_CHUNK_WORD_BUDGET = 4_000_000

#: Bound on the per-workload self-term / baseline-cost caches.  A replay
#: touches a handful of live workloads at a time (the base window plus a
#: Γ-neighborhood), so a few hundred entries keep every hot hit while a
#: months-long ``scheduled_replay``/monitor run can no longer grow the
#: caches — and their strong references to dead workloads — without bound.
_WORKLOAD_CACHE_ENTRIES = 512


def _require_bitwise_count(module=np) -> None:
    """Fail fast (with an actionable message) on numpy < 2.0.

    The Hamming kernel uses ``np.bitwise_count`` (added in numpy 2.0);
    without this guard an old numpy surfaces as an ``AttributeError``
    deep inside the first distance computation instead of at import.
    """
    if not hasattr(module, "bitwise_count"):
        version = getattr(module, "__version__", "unknown")
        raise ImportError(
            "repro.workload.distance requires numpy >= 2.0 "
            f"(np.bitwise_count is missing; installed numpy is {version}). "
            "Upgrade with: pip install 'numpy>=2.0'"
        )


_require_bitwise_count()


def _per_workload_memo(counter_name: str) -> BoundedMemo:
    """Workload -> float LRU keyed by object identity (hashing a
    workload would walk every query), evictions counted in the
    process-wide metrics registry under ``counter_name``."""
    return BoundedMemo(counter_name, _WORKLOAD_CACHE_ENTRIES, by_identity=True)


def _template_order(key: VectorKey) -> tuple:
    """A canonical sort key for template keys.

    Set/frozenset iteration order follows string hashing, which is
    randomized per process (``PYTHONHASHSEED``); anything that turns a
    set of templates into a float summation order must sort first, or
    the same distance computed in two processes differs in the last ulp
    — which breaks cross-process bit-reproducibility (and with it
    checkpoint run keys, see docs/state.md).
    """
    if isinstance(key, tuple):
        return tuple(tuple(sorted(columns)) for columns in key)
    return (tuple(sorted(key)),)


class WorkloadDistance:
    """Configurable ``δ_euclidean`` / ``δ_separate`` distance.

    ``total_columns`` is the database's column count ``n``; it normalizes
    the similarity matrix so distances are comparable across schemas.
    """

    def __init__(
        self,
        total_columns: int,
        clauses: ClauseSpec | str = SWGO,
    ):
        if total_columns <= 0:
            raise ValueError("total_columns must be positive")
        self.total_columns = total_columns
        self.clauses = clauses
        slots = 4 if clauses == SEPARATE else 1
        self._words = (slots * total_columns + 63) // 64
        self._column_bits: dict[str, int] = {}
        #: template key -> bit array.  Bounded: live traffic keeps
        #: minting templates; ``_column_bits`` outlives an eviction, so a
        #: re-encoded key gets the same bits.
        self._mask_cache = BoundedMemo("distance.mask_evictions")
        self._self_terms = _per_workload_memo("distance.self_term_evictions")

    # -- encoding ---------------------------------------------------------------

    def _column_bit(self, name: str) -> int:
        bit = self._column_bits.get(name)
        if bit is None:
            bit = len(self._column_bits)
            if bit >= self.total_columns:
                raise ValueError(
                    f"saw more than total_columns={self.total_columns} distinct columns"
                )
            self._column_bits[name] = bit
        return bit

    def _encode(self, key: VectorKey) -> np.ndarray:
        """uint64 bit-array encoding of a template key."""
        cached = self._mask_cache.get(key)
        if cached is not None:
            return cached
        mask = np.zeros(self._words, dtype=np.uint64)

        def set_bit(position: int) -> None:
            mask[position >> 6] |= np.uint64(1) << np.uint64(position & 63)

        if isinstance(key, tuple):
            for slot, columns in enumerate(key):
                offset = slot * self.total_columns
                for name in columns:
                    set_bit(offset + self._column_bit(name))
        else:
            for name in key:
                set_bit(self._column_bit(name))
        self._mask_cache[key] = mask
        return mask

    def _encode_vector(
        self, vector: dict[VectorKey, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        keys = list(vector.keys())
        masks = (
            np.stack([self._encode(k) for k in keys])
            if keys
            else np.zeros((0, self._words), dtype=np.uint64)
        )
        weights = np.array([vector[k] for k in keys], dtype=np.float64)
        return masks, weights

    # -- quadratic-form machinery ----------------------------------------------------

    def _weighted_pair_sum(
        self,
        masks_a: np.ndarray,
        weights_a: np.ndarray,
        masks_b: np.ndarray,
        weights_b: np.ndarray,
    ) -> float:
        """``Σ_i Σ_j a_i b_j · hamming(mask_a_i, mask_b_j)`` (chunked)."""
        if weights_a.size == 0 or weights_b.size == 0:
            return 0.0
        # Chunk rows stay sized by the full width: each chunk adds one
        # partial sum, so the chunking fixes the float summation order.
        rows_per_chunk = max(1, _CHUNK_WORD_BUDGET // max(1, weights_b.size * self._words))
        # A word no mask uses XORs to zero in every pair; drop it first.
        used = masks_a.any(axis=0)
        if masks_b is masks_a:
            masks_a = masks_b = masks_a[:, used]
        else:
            used |= masks_b.any(axis=0)
            masks_a, masks_b = masks_a[:, used], masks_b[:, used]
        total = 0.0
        for start in range(0, weights_a.size, rows_per_chunk):
            stop = start + rows_per_chunk
            xored = masks_a[start:stop, None, :] ^ masks_b[None, :, :]
            hamming = np.bitwise_count(xored).sum(axis=2, dtype=np.int64)
            total += float(
                weights_a[start:stop] @ hamming.astype(np.float64) @ weights_b
            )
        return total

    def _quadratic(self, masks: np.ndarray, weights: np.ndarray) -> float:
        """``d S d`` (up to the /2n normalization) for one diff vector."""
        return self._weighted_pair_sum(masks, weights, masks, weights)

    def _normalize(self, raw: float) -> float:
        return raw / (2.0 * self.total_columns)

    # -- the metric ---------------------------------------------------------------

    def __call__(self, first: Workload, second: Workload) -> float:
        """Compute the distance between two workloads."""
        vector_a = first.template_vector(self.clauses)
        vector_b = second.template_vector(self.clauses)
        diff: dict[VectorKey, float] = {}
        # Sorted, not raw set order: the union's iteration order follows
        # per-process hash randomization, and it decides the float
        # summation order downstream (see _template_order).
        for key in sorted(vector_a.keys() | vector_b.keys(), key=_template_order):
            delta = abs(vector_a.get(key, 0.0) - vector_b.get(key, 0.0))
            if delta > 0.0:
                diff[key] = delta
        masks, weights = self._encode_vector(diff)
        return self._normalize(self._quadratic(masks, weights))

    # -- the sampler fast path -------------------------------------------------------

    def self_term(self, workload: Workload) -> float:
        """``V_W × S × V_W^T`` (cached per workload object, bounded LRU)."""
        cached = self._self_terms.get(workload)
        if cached is not None:
            return cached
        masks, weights = self._encode_vector(workload.template_vector(self.clauses))
        value = self._normalize(self._quadratic(masks, weights))
        self._self_terms[workload] = value
        return value

    def cross_term(self, first: Workload, second: Workload) -> float:
        """``V_W1 × S × V_W2^T``."""
        masks_a, weights_a = self._encode_vector(first.template_vector(self.clauses))
        masks_b, weights_b = self._encode_vector(second.template_vector(self.clauses))
        return self._normalize(
            self._weighted_pair_sum(masks_a, weights_a, masks_b, weights_b)
        )

    def disjoint_distance(self, base: Workload, probe: Workload) -> float:
        """δ between workloads with template-disjoint supports.

        With disjoint supports the absolute difference vector is just the
        concatenation of the two vectors, so
        ``δ = q(base) + 2·cross + q(probe)`` with the base self term cached
        — the sampler's ``O(T0·k)`` fast path.
        """
        return (
            self.self_term(base)
            + 2.0 * self.cross_term(base, probe)
            + self.self_term(probe)
        )

    def template_keys(self, workload: Workload) -> set[VectorKey]:
        """The workload's template keys under this metric's clause spec."""
        return set(workload.template_vector(self.clauses))


def delta_euclidean(
    first: Workload,
    second: Workload,
    total_columns: int,
    clauses: ClauseSpec | str = SWGO,
) -> float:
    """One-shot ``δ_euclidean`` (prefer :class:`WorkloadDistance` in loops —
    it caches template encodings across calls)."""
    return WorkloadDistance(total_columns, clauses)(first, second)


class LatencyAwareDistance:
    """``δ_latency`` (Appendix C)::

        δ_latency(W1, W2) = (1 − ω) · δ_euclidean(W1, W2) + ω · R(W1, W2)
        R(W1, W2) = |f(W1, ∅) − f(W2, ∅)| / |f(W1, ∅) + f(W2, ∅)|

    ``f(W, ∅)`` is the total latency of ``W`` under the empty design (no
    projections/indices — the design-independent baseline).  ``ω`` tunes
    how much the latency term matters; the paper finds ``ω = 0.2`` yields a
    monotonic relationship with actual performance while ``ω = 0.1`` does
    not (Figure 16).
    """

    def __init__(
        self,
        base: WorkloadDistance,
        baseline_cost: Callable[[Workload], float],
        omega: float = 0.2,
    ):
        if not 0.0 <= omega <= 1.0:
            raise ValueError("omega must be in [0, 1]")
        self.base = base
        self.baseline_cost = baseline_cost
        self.omega = omega
        self._cost_cache = _per_workload_memo("distance.cost_cache_evictions")

    def _cost(self, workload: Workload) -> float:
        cached = self._cost_cache.get(workload)
        if cached is not None:
            return cached
        cost = self.baseline_cost(workload)
        self._cost_cache[workload] = cost
        return cost

    def latency_term(self, first: Workload, second: Workload) -> float:
        """The ``R`` component alone."""
        cost_a = self._cost(first)
        cost_b = self._cost(second)
        denominator = abs(cost_a + cost_b)
        if denominator == 0.0:
            return 0.0
        return abs(cost_a - cost_b) / denominator

    def __call__(self, first: Workload, second: Workload) -> float:
        structural = self.base(first, second)
        return (1.0 - self.omega) * structural + self.omega * self.latency_term(
            first, second
        )
