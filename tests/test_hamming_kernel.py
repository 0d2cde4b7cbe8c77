"""The distance's Hamming kernel skips the words no mask uses, exactly.

``WorkloadDistance._weighted_pair_sum`` XORs and popcounts only the
words some template of the pair sum sets.  The reference below is the
kernel before the skip: every word of the full width, chunks sized by
``_CHUNK_WORD_BUDGET``.  Over 1–13 words, all-zero words and all-zero
masks, and chunk budgets small enough to split every sum, the two agree
bit for bit — the integer Hamming matrix and the float summation order
are both unchanged.

Two digests recorded before the skip pin what the ledger computes with
it: the drift readings of the seed-1 ``serve-ecommerce-columnar`` round,
and every ``disjoint_distance`` value the Γ-sampler draws over the
seed-1 ``design-r1-columnar`` round.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.workload.distance as distance_module
from repro import RunConfig, ServeConfig, TraceSource
from repro.api import RobustDesignSession
from repro.workload.distance import WorkloadDistance


def reference_pair_sum(masks_a, weights_a, masks_b, weights_b, words, budget) -> float:
    """The kernel before the skip, verbatim but for the two constants."""
    if weights_a.size == 0 or weights_b.size == 0:
        return 0.0
    rows_per_chunk = max(1, budget // max(1, weights_b.size * words))
    total = 0.0
    for start in range(0, weights_a.size, rows_per_chunk):
        stop = start + rows_per_chunk
        xored = masks_a[start:stop, None, :] ^ masks_b[None, :, :]
        hamming = np.bitwise_count(xored).sum(axis=2, dtype=np.int64)
        total += float(weights_a[start:stop] @ hamming.astype(np.float64) @ weights_b)
    return total


@st.composite
def mask_pairs(draw):
    """Two mask arrays of one width, with whole words and rows zeroed."""
    words = draw(st.integers(1, 13))
    dead = draw(st.lists(st.booleans(), min_size=words, max_size=words))
    sparse_word = st.sampled_from([0, 1, 1 << 63, 0xFFFF_FFFF_FFFF_FFFF, 0x0F0F])

    def masks(rows):
        array = draw(
            hnp.arrays(
                np.uint64,
                (rows, words),
                elements=st.one_of(sparse_word, st.integers(0, 2**64 - 1)),
            )
        )
        array[:, np.array(dead)] = 0
        for row in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows)):
            array[row] = 0
        return array

    weights = st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)
    rows_a, rows_b = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    masks_a, masks_b = masks(rows_a), masks(rows_b)
    weights_a = np.array(draw(st.lists(weights, min_size=rows_a, max_size=rows_a)))
    weights_b = np.array(draw(st.lists(weights, min_size=rows_b, max_size=rows_b)))
    return words, masks_a, weights_a, masks_b, weights_b


@settings(max_examples=300, deadline=None)
@given(pair=mask_pairs(), budget=st.sampled_from([1, 7, 40, 500, distance_module._CHUNK_WORD_BUDGET]))
def test_skip_equals_the_full_width_kernel(pair, budget):
    words, masks_a, weights_a, masks_b, weights_b = pair
    distance = WorkloadDistance(64 * words)
    assert distance._words == words
    saved = distance_module._CHUNK_WORD_BUDGET
    distance_module._CHUNK_WORD_BUDGET = budget
    try:
        cross = distance._weighted_pair_sum(masks_a, weights_a, masks_b, weights_b)
        square = distance._quadratic(masks_a, weights_a)
    finally:
        distance_module._CHUNK_WORD_BUDGET = saved
    assert cross == reference_pair_sum(masks_a, weights_a, masks_b, weights_b, words, budget)
    assert square == reference_pair_sum(masks_a, weights_a, masks_a, weights_a, words, budget)
    # Unit weights read one cell of the integer Hamming matrix.
    one = np.ones(1)
    for i in range(min(len(masks_a), 3)):
        for j in range(min(len(masks_b), 3)):
            cell = distance._weighted_pair_sum(masks_a[i : i + 1], one, masks_b[j : j + 1], one)
            assert cell == float(np.bitwise_count(masks_a[i] ^ masks_b[j]).sum())


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


class TestRecordedDigests:
    """Digests recorded before the zero-word skip and the keyed monitor."""

    def test_seed1_serve_drift_readings(self):
        # The serve-ecommerce-columnar ledger round at seed 1.
        session = RobustDesignSession(
            RunConfig(
                workload="ECOMMERCE", engine="columnar", days=112, window_days=7,
                queries_per_day=120, n_samples=8, iterations=4, seed=1,
                legacy_tables=8, backend="serial", gamma=0.003,
            )
        )
        daemon = session.daemon(
            ServeConfig(
                source=TraceSource(session.context.trace("ECOMMERCE"), window_days=7.0),
                window_days=7.0, policy="periodic", every=8, threshold=0.003,
                swap_mode="boundary",
            )
        )
        daemon.run()
        monitor = daemon.monitor
        readings = [(r.at_day, r.distance) for r in monitor.readings]
        alarms = [(a.at_day, a.distance) for a in monitor.alarms]
        assert (len(readings), len(alarms)) == (56, 14)
        assert _digest(readings + alarms) == "26866258e5f9125d"

    def test_seed1_design_r1_disjoint_distances(self, monkeypatch):
        # The design-r1-columnar ledger round at seed 1: six CliffGuard
        # designs on windows 3..8, each sampling from the past only.
        session = RobustDesignSession(
            RunConfig(
                workload="R1", engine="columnar", days=280, window_days=28,
                queries_per_day=10, n_samples=8, iterations=4, seed=1,
                legacy_tables=8, backend="serial",
            )
        )
        trace = session.context.trace("R1")
        windows = session.context.trace_windows("R1")
        designer, sampler = session.designer("CliffGuard")
        values = []
        original = WorkloadDistance.disjoint_distance

        def recording(self, base, probe):
            values.append(original(self, base, probe))
            return values[-1]

        monkeypatch.setattr(WorkloadDistance, "disjoint_distance", recording)
        for window in windows[3:9]:
            start, _ = window.span_days
            sampler.set_pool([q for q in trace if q.timestamp < start])
            designer.design(window)
        # Re-recorded on the sampler's shared-pool stream (one candidate
        # pool per sample()); the distance code is unchanged.
        assert len(values) == 76
        assert _digest(values) == "9c80ff5dbd7b9dae"
