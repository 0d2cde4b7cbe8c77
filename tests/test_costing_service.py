"""Tests for the unified cost-evaluation service.

The load-bearing guarantee is **bit-identical** evaluation: every float
the service returns must be exactly the float the underlying cost model
would have produced, on both substrates, on the kernel and the
scalar path, before and after arena warm-up, design changes, and
``clear``.  The property-based tests below draw random workloads and
designs and assert exact equality, not closeness.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costing.service import (
    ArenaStats,
    CostEvaluationService,
    CostServiceStats,
    design_fingerprint,
    workload_fingerprint,
)
from repro.designers.base import ColumnarAdapter, RowstoreAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.rowstore.optimizer import RowstoreCostModel
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload
from tests.corpus import star_pool

SUBSTRATES = ("columnar", "rowstore")


def _environment():
    """A small star schema plus a pool of distinct trace queries."""
    schema, sqls = star_pool("r1", limit=14)
    assert len(sqls) >= 6
    return schema, sqls


@lru_cache(maxsize=None)
def _substrate(name: str):
    """(cost_model, adapter, sql pool, candidate structures) per engine.

    The cost model and candidates are shared across hypothesis examples —
    the models are deterministic, so sharing only speeds the tests up.
    """
    schema, sqls = _environment()
    if name == "columnar":
        model = ColumnarCostModel(schema)
        adapter = ColumnarAdapter(model)
        nominal = ColumnarNominalDesigner(adapter)
    else:
        model = RowstoreCostModel(schema)
        adapter = RowstoreAdapter(model)
        nominal = RowstoreNominalDesigner(adapter)
    candidates = nominal.generate_candidates(Workload.from_sql(sqls))[:10]
    return model, adapter, sqls, candidates


def _workload(sqls: list[str], picks: list[int], weights: list[int]) -> Workload:
    return Workload(
        WorkloadQuery(sql=sqls[i % len(sqls)], frequency=float(w))
        for i, w in zip(picks, weights)
    )


def _design(adapter, candidates, mask: int):
    chosen = [c for i, c in enumerate(candidates) if mask & (1 << i)]
    return adapter.make_design(chosen)


def _assert_same_report(cached, uncached) -> None:
    assert cached.per_query_ms == uncached.per_query_ms  # exact, not approx
    assert cached.weights == uncached.weights


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    substrate=st.sampled_from(SUBSTRATES),
    picks=st.lists(st.integers(0, 13), min_size=1, max_size=8),
    weights=st.lists(st.integers(1, 9), min_size=8, max_size=8),
    mask=st.integers(0, 1023),
    second_mask=st.integers(0, 1023),
)
def test_cached_matches_uncached_exactly(
    substrate, picks, weights, mask, second_mask
):
    """Service results are bit-identical to the raw cost model — cold,
    warm, across a design change, and after ``clear``."""
    model, adapter, sqls, candidates = _substrate(substrate)
    service = CostEvaluationService(model)
    workload = _workload(sqls, picks, weights)
    design = _design(adapter, candidates, mask)

    cold = service.workload_cost(workload, design)
    _assert_same_report(cold, model.workload_cost(workload, design))
    warm = service.workload_cost(workload, design)
    _assert_same_report(warm, model.workload_cost(workload, design))

    # A different design over the same (now compiled) arena.
    changed = _design(adapter, candidates, second_mask)
    _assert_same_report(
        service.workload_cost(workload, changed),
        model.workload_cost(workload, changed),
    )

    # Explicit invalidation drops the arenas; results stay exact.
    service.clear()
    _assert_same_report(
        service.workload_cost(workload, design),
        model.workload_cost(workload, design),
    )

    # Per-query costs are exact too.
    for query in workload:
        assert service.query_cost(query.sql, design) == model.query_cost(
            query.sql, design
        )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mask=st.integers(0, 1023),
    neighborhoods=st.lists(
        st.lists(st.integers(0, 13), min_size=1, max_size=6),
        min_size=1,
        max_size=4,
    ),
)
def test_batched_neighborhood_matches_per_workload(substrate, mask, neighborhoods):
    """evaluate_neighborhood == one workload_cost call per neighbor."""
    model, adapter, sqls, candidates = _substrate(substrate)
    service = CostEvaluationService(model)
    design = _design(adapter, candidates, mask)
    workloads = [
        Workload.from_sql([sqls[i % len(sqls)] for i in picks])
        for picks in neighborhoods
    ]
    batched = service.evaluate_neighborhood([design], workloads)[0]
    assert len(batched) == len(workloads)
    for report, workload in zip(batched, workloads):
        _assert_same_report(report, model.workload_cost(workload, design))


class TestFingerprints:
    def test_design_fingerprint_is_content_based(self):
        _, adapter, _, candidates = _substrate("columnar")
        if len(candidates) < 2:
            pytest.skip("needs at least two candidate structures")
        one = adapter.make_design([candidates[0], candidates[1]])
        two = adapter.make_design([candidates[1], candidates[0]])
        assert design_fingerprint(one) == design_fingerprint(two)
        assert design_fingerprint(one) != design_fingerprint(
            adapter.make_design([candidates[0]])
        )
        assert design_fingerprint(adapter.empty_design()) != design_fingerprint(
            adapter.make_design([candidates[0]])
        )

    def test_workload_fingerprint_weight_sensitive(self):
        light = [WorkloadQuery(sql="SELECT a FROM t", frequency=1.0)]
        heavy = [WorkloadQuery(sql="SELECT a FROM t", frequency=2.0)]
        assert workload_fingerprint(light) != workload_fingerprint(heavy)
        assert workload_fingerprint(light) == workload_fingerprint(list(light))


class TestServiceMechanics:
    def test_cache_hits_and_raw_calls_counted(self):
        """Nothing is memoized: every request is a raw call, no hit."""
        model, adapter, sqls, candidates = _substrate("columnar")
        service = CostEvaluationService(model)
        design = _design(adapter, candidates, 3)
        for _ in range(3):
            service.query_cost(sqls[0], design)
        assert service.stats.query_requests == 3
        assert service.stats.query_hits == 0
        assert service.stats.raw_model_calls == 3

    def test_dedup_counted_in_batched_evaluation(self):
        model, adapter, sqls, candidates = _substrate("columnar")
        service = CostEvaluationService(model)
        design = _design(adapter, candidates, 1)
        shared = Workload.from_sql([sqls[0], sqls[1]])
        service.evaluate_neighborhood([design], [shared, shared, shared])
        # 6 occurrences of 2 distinct queries -> 4 collapsed duplicates.
        assert service.stats.dedup_saved == 4
        assert service.stats.raw_model_calls == 2
        assert service.stats.dedup_ratio == pytest.approx(4 / 6)

    def test_repeated_workload_is_repriced_bit_identically(self):
        """Each entry point prices its request once per distinct SQL —
        repeats included, at 5 queries and at 10, one kernel batch per
        call — and requests always equal raw calls."""
        model, adapter, sqls, candidates = _substrate("columnar")
        for width in (5, 10):
            service = CostEvaluationService(model)
            design = _design(adapter, candidates, 2)
            workload = Workload.from_sql(sqls[:width] + sqls[:2])
            first = service.workload_cost(workload, design)
            (batched,) = service.workload_costs_batch([design], workload)
            again = service.workload_cost(workload, design)
            assert first.per_query_ms == batched.per_query_ms == again.per_query_ms
            assert service.stats.raw_model_calls == 3 * width
            assert service.stats.query_requests == 3 * width
            assert service.stats.query_hits == 0
            assert service.stats.kernel_batch_calls == 3

    @pytest.mark.parametrize("cls", [CostServiceStats, ArenaStats])
    def test_stats_snapshot_and_since_cover_every_field(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        stats = cls(**{name: 3 * (i + 1) for i, name in enumerate(names)})
        earlier = cls(**{name: i + 1 for i, name in enumerate(names)})
        assert stats.snapshot() == stats and stats.snapshot() is not stats
        delta = stats.since(earlier)
        assert [getattr(delta, name) for name in names] == [
            2 * (i + 1) for i in range(len(names))
        ]

    def test_clear_resets_caches(self):
        model, adapter, sqls, candidates = _substrate("columnar")
        service = CostEvaluationService(model)
        design = _design(adapter, candidates, 1)
        service.workload_cost(Workload.from_sql(sqls[:10]), design)
        assert service.cached_arenas > 0
        service.clear()
        assert service.cached_arenas == 0

    def test_adapter_routes_through_service(self):
        _, adapter, sqls, candidates = _substrate("rowstore")
        design = _design(adapter, candidates, 1)
        before = adapter.costing.stats.query_requests
        adapter.query_cost(sqls[0], design)
        adapter.workload_cost(Workload.from_sql(sqls[:2]), design)
        assert adapter.costing.stats.query_requests > before
