"""Distance-metric tests, including the paper's R1–R4 requirements as
property-based checks (hypothesis)."""

import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costing.memo import BoundedMemo
from repro.workload.distance import (
    SWGO,
    LatencyAwareDistance,
    WorkloadDistance,
)
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload

N_COLUMNS = 12
COLUMNS = [f"t.c{i}" for i in range(N_COLUMNS)]


def make_query(columns: list[str], freq: float = 1.0) -> WorkloadQuery:
    select = ", ".join(columns) if columns else "COUNT(*)"
    return WorkloadQuery(sql=f"SELECT {select} FROM t", frequency=freq)


# Random workloads over a small column universe.
workloads = st.lists(
    st.tuples(
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4, unique=True),
        st.floats(0.5, 10.0),
    ),
    min_size=1,
    max_size=6,
).map(lambda items: Workload([make_query(cols, freq) for cols, freq in items]))


@pytest.fixture
def distance() -> WorkloadDistance:
    return WorkloadDistance(N_COLUMNS)


class TestAxioms:
    @given(workloads)
    @settings(max_examples=60, deadline=None)
    def test_identity(self, w):
        assert WorkloadDistance(N_COLUMNS)(w, w) == pytest.approx(0.0, abs=1e-12)

    @given(workloads, workloads)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        metric = WorkloadDistance(N_COLUMNS)
        assert metric(a, b) == pytest.approx(metric(b, a))

    @given(workloads, workloads)
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, a, b):
        assert WorkloadDistance(N_COLUMNS)(a, b) >= 0.0

    def test_identical_vectors_zero_even_for_different_sql(self, distance):
        # Same templates, different literals → distance zero.
        a = Workload([WorkloadQuery("SELECT t.c1 FROM t WHERE t.c2 = 1")])
        b = Workload([WorkloadQuery("SELECT t.c1 FROM t WHERE t.c2 = 99")])
        assert distance(a, b) == pytest.approx(0.0, abs=1e-12)


class TestIntraQuerySimilarity:
    """Requirement R2: similar templates yield smaller distances."""

    def test_close_templates_closer_than_distant_ones(self, distance):
        base = Workload([make_query(["t.c0", "t.c1", "t.c2"])])
        near = Workload([make_query(["t.c0", "t.c1", "t.c3"])])  # 1 column differs
        far = Workload([make_query(["t.c7", "t.c8", "t.c9"])])  # all differ
        assert distance(base, near) < distance(base, far)

    def test_frequency_shift_scales_distance(self, distance):
        a = Workload([make_query(["t.c0"], 9), make_query(["t.c5"], 1)])
        b = Workload([make_query(["t.c0"], 5), make_query(["t.c5"], 5)])
        c = Workload([make_query(["t.c0"], 1), make_query(["t.c5"], 9)])
        assert distance(a, b) < distance(a, c)

    def test_normalization_by_total_columns(self):
        a = Workload([make_query(["t.c0"])])
        b = Workload([make_query(["t.c1"])])
        small_n = WorkloadDistance(N_COLUMNS)(a, b)
        large_n = WorkloadDistance(10 * N_COLUMNS)(a, b)
        assert large_n == pytest.approx(small_n / 10)


class TestFastPath:
    @given(workloads)
    @settings(max_examples=40, deadline=None)
    def test_disjoint_decomposition_matches_direct(self, base):
        metric = WorkloadDistance(N_COLUMNS)
        # A probe guaranteed template-disjoint: uses columns c10, c11 only.
        probe = Workload([make_query(["t.c10", "t.c11"])])
        base_keys = metric.template_keys(base)
        if frozenset({"t.c10", "t.c11"}) in base_keys:
            return  # not disjoint for this draw
        direct = metric(base, probe)
        decomposed = metric.disjoint_distance(base, probe)
        assert decomposed == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_self_term_cached_per_object(self, distance):
        workload = Workload([make_query(["t.c0"])])
        assert distance.self_term(workload) == distance.self_term(workload)


class TestVariants:
    def test_separate_distinguishes_clause_roles(self):
        # Same union columns, different clause placement.
        a = Workload([WorkloadQuery("SELECT t.c0 FROM t WHERE t.c1 = 1")])
        b = Workload([WorkloadQuery("SELECT t.c1 FROM t WHERE t.c0 = 1")])
        union_metric = WorkloadDistance(N_COLUMNS, SWGO)
        separate_metric = WorkloadDistance(N_COLUMNS, "separate")
        assert union_metric(a, b) == pytest.approx(0.0, abs=1e-12)
        assert separate_metric(a, b) > 0.0

    def test_single_clause_restriction(self):
        a = Workload([WorkloadQuery("SELECT t.c0 FROM t WHERE t.c1 = 1")])
        b = Workload([WorkloadQuery("SELECT t.c0 FROM t WHERE t.c2 = 1")])
        select_only = WorkloadDistance(N_COLUMNS, ("select",))
        assert select_only(a, b) == pytest.approx(0.0, abs=1e-12)


class TestLatencyAware:
    def make(self, omega: float) -> LatencyAwareDistance:
        return LatencyAwareDistance(
            WorkloadDistance(N_COLUMNS),
            baseline_cost=lambda w: w.total_weight * 100.0,
            omega=omega,
        )

    def test_omega_zero_degenerates_to_euclidean(self):
        metric = self.make(0.0)
        a = Workload([make_query(["t.c0"], 5)])
        b = Workload([make_query(["t.c1"], 1)])
        assert metric(a, b) == pytest.approx(WorkloadDistance(N_COLUMNS)(a, b))

    def test_latency_term_bounds(self):
        metric = self.make(1.0)
        a = Workload([make_query(["t.c0"], 10)])
        b = Workload([make_query(["t.c0"], 10)])
        assert metric.latency_term(a, b) == pytest.approx(0.0)
        c = Workload([make_query(["t.c0"], 1)])
        assert 0.0 < metric.latency_term(a, c) < 1.0

    def test_invalid_omega_rejected(self):
        with pytest.raises(ValueError):
            self.make(1.5)

    def test_blend(self):
        a = Workload([make_query(["t.c0"], 10)])
        b = Workload([make_query(["t.c1"], 5)])
        euclid = WorkloadDistance(N_COLUMNS)(a, b)
        metric = self.make(0.2)
        expected = 0.8 * euclid + 0.2 * metric.latency_term(a, b)
        assert metric(a, b) == pytest.approx(expected)


class TestBoundedCaches:
    def test_mask_cache_is_bounded(self):
        from repro.obs import get_metrics

        metric = WorkloadDistance(N_COLUMNS)
        assert isinstance(metric._mask_cache, BoundedMemo)
        bound = metric._mask_cache.max_entries = 3
        before = get_metrics().counter("distance.mask_evictions").value
        keys = [frozenset({f"t.c{i}", f"t.c{i + 1}"}) for i in range(bound + 4)]
        first = [metric._encode(key).copy() for key in keys]
        assert len(metric._mask_cache) <= bound
        evicted = get_metrics().counter("distance.mask_evictions").value - before
        assert evicted == 4
        # An evicted template re-encodes to the same bits: the column ->
        # bit assignment outlives the eviction.
        assert keys[0] not in metric._mask_cache
        for key, mask in zip(keys, first):
            assert np.array_equal(metric._encode(key), mask)

    def test_self_term_cache_hit_returns_same_value(self):
        metric = WorkloadDistance(N_COLUMNS)
        workload = Workload([make_query(["t.c0", "t.c1"], 2.0)])
        first = metric.self_term(workload)
        assert metric.self_term(workload) == first
        assert len(metric._self_terms) == 1


class TestWorkloadMemos:
    """The self terms and baseline costs are kept per live workload,
    weakly: an entry lives exactly as long as its workload."""

    def test_entries_die_with_their_workload(self):
        structural = WorkloadDistance(N_COLUMNS)
        metric = LatencyAwareDistance(
            structural, baseline_cost=lambda w: w.total_weight * 100.0
        )
        workload = Workload([make_query(["t.c0", "t.c1"], 2.0)])
        structural.self_term(workload)
        metric.latency_term(workload, workload)
        assert len(structural._self_terms) == 1 and len(metric._cost_cache) == 1
        del workload
        gc.collect()
        assert len(structural._self_terms) == 0 and len(metric._cost_cache) == 0

    def test_cost_cache_hit_returns_the_first_float(self):
        calls: list[float] = []

        def baseline(workload):
            calls.append(workload.total_weight * 100.0)
            return calls[-1]

        metric = LatencyAwareDistance(
            WorkloadDistance(N_COLUMNS), baseline_cost=baseline, omega=0.5
        )
        workload = Workload([make_query(["t.c0"], 3.0)])
        first = metric._cost(workload)
        assert metric._cost(workload) is first
        assert len(calls) == 1

    def test_pickled_metric_round_trips_and_starts_empty(self):
        metric = WorkloadDistance(N_COLUMNS, ("select", "where"))
        a = Workload([make_query(["t.c0", "t.c1"], 2.0)])
        b = Workload([make_query(["t.c2"], 1.0)])
        expected = metric.disjoint_distance(a, b)
        assert len(metric._self_terms) == 2
        restored = pickle.loads(pickle.dumps(metric))
        assert len(restored._self_terms) == 0
        assert restored.clauses == metric.clauses
        assert restored.total_columns == metric.total_columns
        assert restored.disjoint_distance(a, b) == expected
        assert len(restored._self_terms) == 2
        # The original keeps its memo: pickling copies, it does not clear.
        assert len(metric._self_terms) == 2


class TestCrossProcessDeterminism:
    """Regression: δ summed the template-diff vector in raw set-union
    order, which follows per-process hash randomization — the same two
    workloads measured in two Python processes differed in the last ulp,
    so checkpoint run keys (docs/state.md) never matched across a real
    crash/resume cycle.  The diff loop now sorts templates canonically."""

    SCRIPT = (
        "from repro.workload.distance import WorkloadDistance\n"
        "from repro.workload.query import WorkloadQuery\n"
        "from repro.workload.workload import Workload\n"
        "cols = [f't.c{i}' for i in range(12)]\n"
        "def q(names, f):\n"
        "    return WorkloadQuery(\n"
        "        sql='SELECT ' + ', '.join(names) + ' FROM t', frequency=f\n"
        "    )\n"
        "a = Workload([q(cols[i : i + 3], 1.0 + i) for i in range(9)])\n"
        "b = Workload([q(cols[i : i + 2], 2.0 + i) for i in range(10)])\n"
        "print(repr(WorkloadDistance(12)(a, b)))\n"
    )

    def test_distance_identical_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        outputs = set()
        for hash_seed in ("0", "1", "20260806"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, f"δ varies with PYTHONHASHSEED: {outputs}"
