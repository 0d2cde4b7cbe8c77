"""Bit-identity tests for the vectorized what-if costing kernel.

The kernel's contract (see :mod:`repro.costing.kernel`) is exact
agreement with the scalar cost models — tolerance zero, on both
substrates, for base costs, design costs, candidate matrices, and the
batched design sweep.  The property-based tests below draw random
workloads and designs and assert ``==`` on every float, never closeness.
"""

from __future__ import annotations

import io
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cliffguard import CliffGuard
from repro.costing.kernel import kernel_for
from repro.costing.service import CostEvaluationService
from repro.designers.base import ColumnarAdapter, RowstoreAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.greedy import evaluate_candidates
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.engine.projection import Projection, SortColumn
from repro.obs import MetricsRegistry, RunTracer, set_tracer
from repro.rowstore.index import Index
from repro.rowstore.optimizer import RowstoreCostModel
from repro.workload.distance import WorkloadDistance
from repro.workload.query import WorkloadQuery
from repro.workload.sampler import NeighborhoodSampler
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
    """(cost_model, candidate structures, profiles) per engine.

    The cost model and candidates are shared across hypothesis examples —
    the models are deterministic, so sharing only speeds the tests up.
    Adapters/services are built fresh per test so caches never leak.
    """
    schema, sqls = _environment()
    if name == "columnar":
        model = ColumnarCostModel(schema)
        nominal = ColumnarNominalDesigner(ColumnarAdapter(model))
    else:
        model = RowstoreCostModel(schema)
        nominal = RowstoreNominalDesigner(RowstoreAdapter(model))
    candidates = nominal.generate_candidates(Workload.from_sql(sqls))[:10]
    profiles = [model.profile(sql) for sql in sqls]
    return model, candidates, profiles


def _adapter(model):
    """A fresh adapter (own service, own caches) over a shared model."""
    service = CostEvaluationService(model)
    if isinstance(model, ColumnarCostModel):
        return ColumnarAdapter(model, costing=service)
    return RowstoreAdapter(model, costing=service)


def _lone_structure(substrate: str, table: str, column: str):
    """A one-column structure on ``table``: a projection sorted on
    ``column`` or an index keyed on it."""
    if substrate == "columnar":
        return Projection(table=table, columns=(column,), sort_columns=(SortColumn(column),))
    return Index(table=table, columns=(column,))


def _workload(sqls: list[str], picks: list[int], weights: list[int]) -> Workload:
    return Workload(
        WorkloadQuery(sql=sqls[i % len(sqls)], frequency=float(w))
        for i, w in zip(picks, weights)
    )


# -- kernel batch objects vs the scalar model -------------------------------------


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mask=st.integers(0, 1023),
    q_mask=st.integers(1, (1 << 14) - 1),
)
def test_kernel_design_costs_match_scalar_exactly(substrate, mask, q_mask):
    """``base_costs``/``design_costs`` equal the scalar model bit-for-bit."""
    model, candidates, profiles = _substrate(substrate)
    adapter = _adapter(model)
    kernel = kernel_for(model)
    assert kernel is not None
    chosen_profiles = [p for i, p in enumerate(profiles) if q_mask & (1 << i)]
    structures = [c for i, c in enumerate(candidates) if mask & (1 << i)]
    batch = kernel.compile(chosen_profiles, structures)

    empty = adapter.make_design([])
    design = adapter.make_design(structures)
    scalar_base = [model.query_cost(p, empty) for p in chosen_profiles]
    scalar_design = [model.query_cost(p, design) for p in chosen_profiles]
    assert batch.base_costs().tolist() == scalar_base
    assert batch.design_costs().tolist() == scalar_design


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(substrate=st.sampled_from(SUBSTRATES), q_mask=st.integers(1, (1 << 14) - 1))
def test_kernel_candidate_matrix_matches_greedy_scalar(substrate, q_mask):
    """The kernel candidate frame reproduces greedy's scalar matrix exactly:
    unservable same-table pairs are ``inf``, off-table pairs equal the base
    cost, and every priced pair equals ``query_cost`` under the singleton
    design."""
    model, candidates, profiles = _substrate(substrate)
    adapter = _adapter(model)
    kernel = kernel_for(model)
    chosen = [p for i, p in enumerate(profiles) if q_mask & (1 << i)]
    batch = kernel.compile(chosen, candidates)

    price, unservable = batch.candidate_frame()
    base = batch.base_costs()
    matrix = np.where(unservable, np.inf, np.broadcast_to(base, price.shape))
    numeric = batch.candidate_costs()
    matrix = np.where(price, numeric, matrix)

    for c, candidate in enumerate(candidates):
        single = adapter.make_design([candidate])
        for q, profile in enumerate(chosen):
            if all(candidate.table != t.table for t in profile.tables):
                expected = base[q]  # off-table: cost cannot change
            else:
                anchor_only = adapter.structure_cost(profile, candidate)
                if anchor_only is None and profile.anchor.table == candidate.table:
                    expected = np.inf  # greedy leaves unservable pairs at inf
                else:
                    expected = model.query_cost(profile, single)
            assert matrix[c, q] == expected, (substrate, c, q)


# -- evaluate_candidates: kernel path vs forced-scalar path ------------------------


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_evaluate_candidates_kernel_equals_scalar(substrate):
    """``designers.greedy.evaluate_candidates`` returns the same arrays
    whether the costing service dispatches the kernel or the scalar loop."""
    model, candidates, _ = _substrate(substrate)
    _, sqls = _environment()
    workload = Workload.from_sql(sqls)

    with_kernel = _adapter(model)
    evaluation = evaluate_candidates(with_kernel, workload, candidates)

    forced_scalar = _adapter(model)
    forced_scalar.costing.kernel = None
    reference = evaluate_candidates(forced_scalar, workload, candidates)

    assert np.array_equal(evaluation.base_costs, reference.base_costs)
    assert np.array_equal(evaluation.matrix, reference.matrix)
    assert np.array_equal(evaluation.weights, reference.weights)
    assert np.array_equal(evaluation.sizes, reference.sizes)
    assert with_kernel.costing.stats.kernel_batch_calls >= 1
    assert forced_scalar.costing.stats.kernel_batch_calls == 0


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_off_table_skip_preserves_scalar_matrix(substrate):
    """Regression for the off-table fast path: the scalar loop's reuse of
    ``base_costs[q]`` must equal actually pricing the singleton design."""
    model, shared, profiles = _substrate(substrate)
    schema, sqls = _environment()
    adapter = _adapter(model)
    adapter.costing.kernel = None
    # Guarantee at least one candidate on a table no query touches.
    used = {t.table for p in profiles for t in p.tables}
    unused = sorted(set(schema.tables) - used)
    assert unused, "environment must have an untouched table"
    spare, column = unused[0], schema.table(unused[0]).column_names[0]
    candidates = list(shared) + [_lone_structure(substrate, spare, column)]
    evaluation = evaluate_candidates(adapter, Workload.from_sql(sqls), candidates)
    checked = 0
    for c, candidate in enumerate(candidates):
        single = adapter.make_design([candidate])
        for q, profile in enumerate(profiles):
            if all(candidate.table != t.table for t in profile.tables):
                assert evaluation.matrix[c, q] == model.query_cost(profile, single)
                checked += 1
    assert checked > 0  # the pool must actually exercise the fast path


# -- workload_costs_batch ----------------------------------------------------------


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    masks=st.lists(st.integers(0, 1023), min_size=1, max_size=5),
    picks=st.lists(st.integers(0, 13), min_size=1, max_size=10),
    weights=st.lists(st.integers(1, 9), min_size=10, max_size=10),
)
def test_workload_costs_batch_matches_sequential(substrate, masks, picks, weights):
    """One workload under many designs equals per-design ``workload_cost``
    on a scalar-only service — including duplicate and empty designs."""
    model, candidates, _ = _substrate(substrate)
    _, sqls = _environment()
    workload = _workload(sqls, picks, weights)
    batched = _adapter(model)
    reference = _adapter(model)
    reference.costing.kernel = None

    designs = [
        batched.make_design([c for i, c in enumerate(candidates) if m & (1 << i)])
        for m in masks
    ]
    designs.append(batched.make_design([]))
    designs.append(designs[0])  # duplicate design: served from cache

    reports = batched.workload_costs_batch(designs, workload)
    assert len(reports) == len(designs)
    for design, report in zip(designs, reports):
        expected = reference.costing.workload_cost(workload, design)
        assert report.per_query_ms == expected.per_query_ms
        assert report.weights == expected.weights


# -- edge cases --------------------------------------------------------------------


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_empty_workload_and_zero_candidates(substrate):
    """Degenerate shapes: no queries, no candidates, no structures."""
    model, candidates, profiles = _substrate(substrate)
    adapter = _adapter(model)
    kernel = kernel_for(model)

    empty_q = kernel.compile([], candidates)
    assert empty_q.base_costs().shape == (0,)
    assert empty_q.design_costs().shape == (0,)
    assert empty_q.candidate_costs().shape == (len(candidates), 0)

    no_cands = kernel.compile(profiles, [])
    assert no_cands.candidate_costs().shape == (0, len(profiles))
    expected = [model.query_cost(p, adapter.make_design([])) for p in profiles]
    assert no_cands.design_costs().tolist() == expected

    evaluation = evaluate_candidates(adapter, Workload([]), candidates)
    assert evaluation.matrix.shape == (len(candidates), 0)
    reports = adapter.workload_costs_batch([adapter.make_design([])], [])
    assert reports[0].per_query_ms == []


def test_all_uncoverable_candidates_price_as_scalar():
    """A structure on a column no query reads serves no query — a
    projection missing every query's needed columns, an index no
    predicate can seek: every same-table cell is inf, exactly as the
    scalar greedy loop."""
    schema, sqls = _environment()
    for substrate in SUBSTRATES:
        model, _, profiles = _substrate(substrate)
        read: dict[str, set[str]] = {}
        for profile in profiles:
            for access in profile.tables:
                read.setdefault(access.table, set()).update(access.needed_columns)
        useless = []
        for name in sorted({p.anchor.table for p in profiles}):
            unread = [c for c in schema.table(name).column_names if c not in read[name]]
            if unread:
                useless.append(_lone_structure(substrate, name, unread[0]))
        assert useless, "environment must have an unread column on an anchor table"
        evaluation = evaluate_candidates(_adapter(model), Workload.from_sql(sqls), useless)
        reference = _adapter(model)
        reference.costing.kernel = None
        scalar = evaluate_candidates(reference, Workload.from_sql(sqls), useless)
        assert np.array_equal(evaluation.matrix, scalar.matrix)
        assert np.array_equal(evaluation.base_costs, scalar.base_costs)
        anchors = [model.profile(sql).anchor.table for sql in evaluation.sqls]
        same_table = np.array([[s.table == t for t in anchors] for s in useless])
        assert same_table.any()
        assert np.isinf(evaluation.matrix[same_table]).all()


# -- service dispatch, counters, events ----------------------------------


def test_small_requests_take_the_kernel():
    """A request of a few queries is one kernel batch like any other:
    the scalar reference's floats, and one request and one raw call per
    query."""
    model, candidates, _ = _substrate("columnar")
    _, sqls = _environment()
    few = Workload.from_sql(sqls[:7])
    costs = []
    for kernel in (True, False):
        service = CostEvaluationService(model)
        if not kernel:
            service.kernel = None
        design = ColumnarAdapter(model, costing=service).make_design(candidates[:2])
        ((report,),) = service.evaluate_neighborhood([design], [few])
        costs.append(report.per_query_ms)
        assert service.stats.kernel_batch_calls == int(kernel)
        assert service.stats.kernel_pairs_priced == (7 if kernel else 0)
        assert service.stats.raw_model_calls == 7
    assert costs[0] == costs[1]


def test_kernel_events_and_counters_emitted(monkeypatch):
    """Kernel dispatch emits arena_build/kernel_bind/kernel_batch trace
    events and bumps the kernel counters."""
    model, candidates, _ = _substrate("columnar")
    _, sqls = _environment()
    service = CostEvaluationService(model)
    design = ColumnarAdapter(model, costing=service).make_design(candidates[:3])
    buffer = io.StringIO()
    previous = set_tracer(RunTracer(buffer, clock=lambda: 0.0))
    try:
        service.evaluate_neighborhood([design], [Workload.from_sql(sqls)])
    finally:
        set_tracer(previous)
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    kinds = [e["event"] for e in events]
    assert "arena_build" in kinds
    assert "kernel_bind" in kinds
    assert "kernel_batch" in kinds
    build_event = next(e for e in events if e["event"] == "arena_build")
    assert build_event["substrate"] == "columnar"
    assert build_event["queries"] == len(sqls)
    bind_event = next(e for e in events if e["event"] == "kernel_bind")
    assert bind_event["substrate"] == "columnar"
    assert bind_event["queries"] == len(sqls)
    batch_event = next(e for e in events if e["event"] == "kernel_batch")
    assert batch_event["pairs"] == len(sqls)
    assert service.stats.kernel_batch_calls == 1
    assert service.stats.kernel_pairs_priced == len(sqls)

    registry = MetricsRegistry()
    monkeypatch.setattr("repro.costing.service.get_metrics", lambda: registry)
    service.publish_metrics()
    sampled = registry.snapshot()
    assert sampled["costing.kernel.batch_calls"] == 1
    assert sampled["costing.kernel.pairs_priced"] == len(sqls)


def test_every_kernel_bind_is_traced(tiny_star, tiny_trace, tiny_windows, columnar_adapter):
    """Over a CliffGuard design the ``kernel_bind`` event count equals the
    number of ``kernel.bind`` calls: matrix-entry builds and delta-priced
    neighborhood candidates bind through ``_bind`` like everything else."""
    schema, _ = tiny_star
    window = tiny_windows[1]
    pool = [q for q in tiny_trace if q.timestamp < window.span_days[0]]
    sampler = NeighborhoodSampler(
        WorkloadDistance(schema.total_columns),
        schema,
        pool=pool,
        seed=3,
        min_query_set=4,
        max_query_set=8,
    )
    adapter = columnar_adapter
    kernel = adapter.costing.kernel
    bind = kernel.bind
    calls = []

    def counting_bind(arena, structures):
        calls.append(len(structures))
        return bind(arena, structures)

    kernel.bind = counting_bind
    robust = CliffGuard(
        ColumnarNominalDesigner(adapter),
        adapter,
        sampler,
        gamma=0.005,
        n_samples=3,
        max_iterations=2,
    )
    buffer = io.StringIO()
    previous = set_tracer(RunTracer(buffer, clock=lambda: 0.0))
    try:
        robust.design(window)
    finally:
        set_tracer(previous)
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    binds = [e["structures"] for e in events if e["event"] == "kernel_bind"]
    assert 0 in calls, "the design must build a matrix entry (an empty bind)"
    assert binds == calls
