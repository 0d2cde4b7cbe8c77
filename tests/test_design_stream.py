"""Design-stream reuse tests: the per-arena store of structure columns,
the one batched miss-fill loop, lazy greedy selection.

The contract is the arena refactor's, one level up: a candidate matrix
assembled from warm store columns must equal the cold rebuild
bit-for-bit — tolerance zero, on both substrates, for read-only and
mixed read/write workloads — and must leave every **exported** counter
exactly as a cold service would.  The store is derived state: only
:class:`~repro.costing.service.ArenaStats` (never checkpointed) may see
the savings.  The cold baseline is a service whose store budget is zero
cells: it keeps no column past the call that priced it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costing.service import CostEvaluationService
from repro.designers.base import ColumnarAdapter, RowstoreAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.greedy import CandidateEvaluation, greedy_select
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.rowstore.optimizer import RowstoreCostModel
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload
from tests.corpus import star_pool

SUBSTRATES = ("columnar", "rowstore")
#: Read-only (R1) and mixed read/write (HTAP) query pools: maintenance
#: terms must survive matrix reuse bit-for-bit too.
MIXES = ("read", "htap")


def _environment(mix: str):
    if mix == "read":
        return star_pool("r1", limit=14)
    return star_pool("htap", queries_per_day=8, limit=14)


@lru_cache(maxsize=None)
def _substrate(name: str, mix: str):
    schema, sqls = _environment(mix)
    if name == "columnar":
        model = ColumnarCostModel(schema)
        nominal = ColumnarNominalDesigner(ColumnarAdapter(model))
    else:
        model = RowstoreCostModel(schema)
        nominal = RowstoreNominalDesigner(RowstoreAdapter(model))
    candidates = nominal.generate_candidates(Workload.from_sql(sqls))[:10]
    profiles = [model.profile(sql) for sql in sqls]
    assert candidates
    return model, candidates, profiles


def _adapter(model, service: CostEvaluationService):
    if isinstance(model, ColumnarCostModel):
        return ColumnarAdapter(model, costing=service)
    return RowstoreAdapter(model, costing=service)


def _stack(model, *, warm: bool):
    """(adapter, service), warm or cold.

    ``warm=False`` is the cold baseline: a zero-cell store budget, so
    every call binds each of its structures from scratch.
    """
    service = CostEvaluationService(model)
    if not warm:
        service.max_store_cells = 0
    return _adapter(model, service), service


def _workload(sqls) -> Workload:
    return Workload(
        WorkloadQuery(sql=sql, frequency=float(i + 1)) for i, sql in enumerate(sqls)
    )


def _stat_facts(service: CostEvaluationService) -> dict:
    """Exported stats minus wall-clock."""
    return {
        f.name: getattr(service.stats, f.name)
        for f in dataclass_fields(service.stats)
        if f.name != "eval_seconds"
    }


# -- warm matrix == cold rebuild ---------------------------------------------------


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mix=st.sampled_from(MIXES),
    mask_a=st.integers(0, 1023),
    mask_b=st.integers(0, 1023),
    q_mask=st.integers(1, (1 << 14) - 1),
)
def test_warm_matrix_bit_identical_to_cold(substrate, mix, mask_a, mask_b, q_mask):
    """A second candidate_costs over the resident store — full request,
    then an arbitrary (query-subset × candidate-subset) request served as
    a row-mapped view — equals a cold service float-for-float."""
    model, candidates, profiles = _substrate(substrate, mix)
    warm_adapter, warm = _stack(model, warm=True)
    calls = [
        (profiles, [c for i, c in enumerate(candidates) if mask_a & (1 << i)]),
        (
            [p for i, p in enumerate(profiles) if q_mask & (1 << i)],
            [c for i, c in enumerate(candidates) if mask_b & (1 << i)],
        ),
    ]
    for chosen_profiles, chosen_candidates in calls:
        base_w, matrix_w = warm.candidate_costs(chosen_profiles, chosen_candidates)
        cold_adapter, cold = _stack(model, warm=False)
        base_c, matrix_c = cold.candidate_costs(chosen_profiles, chosen_candidates)
        np.testing.assert_array_equal(base_w, base_c)
        np.testing.assert_array_equal(matrix_w, matrix_c)
    assert len(warm._stores) == 1
    # The cold baseline retains no column.
    assert cold.cached_store_cells == 0
    assert cold.cached_store_columns == 0


def test_repeat_call_serves_from_matrix():
    """The second identical candidate_costs binds nothing: every store
    cell it reads was priced by the first."""
    model, candidates, profiles = _substrate("columnar", "read")
    adapter, service = _stack(model, warm=True)
    first = service.candidate_costs(profiles, candidates)
    priced_once = service.arena_stats.matrix_pairs_priced
    assert priced_once > 0
    assert service.arena_stats.matrix_hits == 0
    second = service.candidate_costs(profiles, candidates)
    assert service.arena_stats.matrix_pairs_priced == priced_once
    assert service.arena_stats.matrix_hits == priced_once
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


def test_subset_request_is_a_warm_view():
    """A request over texts a resident root holds — fewer of them, in
    another order — is a view of that root's store: no compile, no bind,
    every cell warm, and the floats of a cold rebuild."""
    model, candidates, profiles = _substrate("columnar", "read")
    adapter, service = _stack(model, warm=True)
    service.candidate_costs(profiles, candidates)
    priced = service.arena_stats.matrix_pairs_priced
    subset = profiles[8:2:-1] + profiles[:2]
    base_w, matrix_w = service.candidate_costs(subset, candidates[::-1])
    assert service.arena_stats.builds == 1
    assert len(service._stores) == 1
    assert service.arena_stats.matrix_pairs_priced == priced
    assert service.arena_stats.matrix_hits == priced
    cold_adapter, cold = _stack(model, warm=False)
    base_c, matrix_c = cold.candidate_costs(subset, candidates[::-1])
    np.testing.assert_array_equal(base_w, base_c)
    np.testing.assert_array_equal(matrix_w, matrix_c)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(substrate=st.sampled_from(SUBSTRATES), mix=st.sampled_from(MIXES))
def test_exported_stats_warmth_independent(substrate, mix):
    """Cold and warm services running the identical call sequence export
    identical counters — store warmth must be invisible to checkpoints
    (kill-resume byte-identity)."""
    model, candidates, profiles = _substrate(substrate, mix)
    sequences = []
    for warm in (False, True):
        adapter, service = _stack(model, warm=warm)
        service.candidate_costs(profiles, candidates[:6])
        service.candidate_costs(profiles, candidates)
        service.candidate_costs(profiles[:8], candidates[2:])
        workload = _workload([p.sql for p in profiles])
        ref = adapter.make_design(candidates[:3])
        service.evaluate_neighborhood([ref], [workload])
        service.evaluate_neighborhood([adapter.make_design(candidates[:4])], [workload])
        sequences.append(_stat_facts(service))
    assert sequences[0] == sequences[1]


def test_matrix_layout_is_c_contiguous_on_every_path():
    """``candidate_costs`` hands back fresh C-contiguous float64 arrays
    whichever way the request resolved — a compile, the exact root, a
    row-mapped view, a cold store: the bandit's BLAS reductions over the
    matrix read bits that depend on its memory layout."""
    model, candidates, profiles = _substrate("columnar", "read")
    paths = []

    def traced(service):
        resolve = service._view_for

        def recording(sqls, profiles=None):
            view = resolve(sqls, profiles)
            paths.append(view.rows is None)
            return view

        service._view_for = recording
        return service

    _, warm = _stack(model, warm=True)
    _, cold = _stack(model, warm=False)
    requests = [
        (traced(warm), profiles, candidates, "fresh"),
        (warm, profiles, candidates, "exact"),
        (warm, profiles[3:11], candidates[1:], "view"),
        (warm, profiles[::-1], candidates, "permuted view"),
        (traced(cold), profiles, candidates, "cold"),
    ]
    for service, chosen_profiles, chosen_candidates, path in requests:
        base, matrix = service.candidate_costs(chosen_profiles, chosen_candidates)
        for array in (base, matrix):
            assert array.dtype == np.float64, path
            assert array.flags.c_contiguous, path
        assert matrix.shape == (len(chosen_candidates), len(chosen_profiles)), path
        assert paths[-1] == (path not in ("view", "permuted view")), path
    # Mutating a returned array must not reach the store.
    base, matrix = warm.candidate_costs(profiles, candidates)
    base[:] = -1.0
    matrix[:] = -1.0
    again_base, again_matrix = warm.candidate_costs(profiles, candidates)
    assert (again_base >= 0).all() and (again_matrix >= 0).all()


# -- the one batched miss-fill loop -----------------------------------------------


@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_workload_costs_batch_is_evaluate_neighborhood_of_one_workload(substrate, mix):
    """``workload_costs_batch(designs, w)`` and
    ``evaluate_neighborhood(designs, [w])`` are one loop: same floats,
    same exported stats — over a cold design, single-structure steps and
    a repeated design, after a request over the first seven texts (its
    own arena; every pair is priced by the kernel)."""
    model, candidates, profiles = _substrate(substrate, mix)
    sqls = [p.sql for p in profiles]
    workload = _workload(sqls + sqls[:3])
    runs = []
    for entry_point in ("batch", "neighborhood"):
        service = CostEvaluationService(model)
        make = _adapter(model, service).make_design
        designs = [make(candidates[:k]) for k in (0, 1, 2, 3, 2, 5)]
        partial = make(candidates[3:9])
        service.workload_cost(sqls[:7], partial)
        designs.append(partial)
        if entry_point == "batch":
            reports = service.workload_costs_batch(designs, workload)
        else:
            reports = [row[0] for row in service.evaluate_neighborhood(designs, [workload])]
        runs.append(([r.per_query_ms for r in reports], _stat_facts(service)))
    assert runs[0] == runs[1]
    facts = runs[0][1]
    # No request, however small, falls back to the scalar model.
    assert facts["kernel_batch_calls"] >= 1
    assert facts["raw_model_calls"] == facts["kernel_pairs_priced"]


# -- invalidation and bounds -------------------------------------------------------


def test_clear_drops_matrix():
    model, candidates, profiles = _substrate("columnar", "read")
    adapter, service = _stack(model, warm=True)
    base_1, matrix_1 = service.candidate_costs(profiles, candidates)
    assert service.cached_store_cells > 0
    service.clear()
    assert service.cached_store_cells == 0
    assert service.cached_store_columns == 0
    # The rebuild after the drop is bit-identical.
    base_2, matrix_2 = service.candidate_costs(profiles, candidates)
    np.testing.assert_array_equal(base_1, base_2)
    np.testing.assert_array_equal(matrix_1, matrix_2)


def _recount(service) -> int:
    """The live store cells, counted column by column."""
    return sum(
        store.column_cells * live
        for store in service._stores.values()
        for _, live in store.blocks.values()
    )


def test_matrix_cell_budget_evicts_columns():
    """The shrink policy under a budget of ~2 columns: the running cell
    total equals a recount after every call (columns priced and dropped),
    and every call returns what a zero-budget (cold) service returns,
    with the same exported counters."""
    model, candidates, profiles = _substrate("columnar", "read")
    adapter, service = _stack(model, warm=True)
    _, probe = _stack(model, warm=True)
    probe.candidate_costs(profiles, candidates[:1])
    service.max_store_cells = 2 * probe.cached_store_cells  # room for 2 columns
    _, cold = _stack(model, warm=False)
    n = len(profiles)
    stream = [
        (profiles, candidates),
        (profiles, candidates),
        (profiles[: n - 2], candidates[:3]),
        (profiles[:2], candidates[1:4]),
        (profiles[: n // 2], candidates[:2]),
        (profiles[n // 4 :], candidates[:2]),
        (profiles[::-1], candidates[5:]),
        (profiles, candidates[::-1]),
    ]
    for request_profiles, request_candidates in stream:
        base, matrix = service.candidate_costs(request_profiles, request_candidates)
        assert service.cached_store_cells == _recount(service)
        assert service.cached_store_cells <= service.max_store_cells
        cold_base, cold_matrix = cold.candidate_costs(request_profiles, request_candidates)
        np.testing.assert_array_equal(base, cold_base)
        np.testing.assert_array_equal(matrix, cold_matrix)
    assert service.arena_stats.store_evictions >= 1
    assert service.arena_stats.matrix_hits > 0
    assert cold.arena_stats.matrix_hits == 0
    assert replace(service.stats, eval_seconds=0.0) == replace(cold.stats, eval_seconds=0.0)
    service.clear()
    assert service.cached_store_cells == _recount(service) == 0


def test_matrix_excluded_from_state_export():
    """The store is derived state: exports never mention it, and an
    importing service starts store-cold with identical floats."""
    model, candidates, profiles = _substrate("columnar", "read")
    adapter, service = _stack(model, warm=True)
    base_1, matrix_1 = service.candidate_costs(profiles, candidates)
    state = service.export_state()
    assert set(state) == {"stats"}

    resumed_adapter, resumed = _stack(model, warm=True)
    resumed.import_state(state)
    assert resumed.cached_store_cells == 0
    base_2, matrix_2 = resumed.candidate_costs(profiles, candidates)
    np.testing.assert_array_equal(base_1, base_2)
    np.testing.assert_array_equal(matrix_1, matrix_2)


# -- sub-threshold requests -----------------------------------------------------------


@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize("mix", MIXES)
def test_sub_threshold_request_equals_rows_of_full_width_request(substrate, mix):
    """A ``candidate_costs`` request of seven queries takes the same path
    as any other: its ``(base, matrix)`` are the same floats as the
    matching query columns of a full-width request."""
    model, candidates, profiles = _substrate(substrate, mix)
    full_adapter, full = _stack(model, warm=True)
    base_full, matrix_full = full.candidate_costs(profiles, candidates)
    small = 7
    for start in range(0, len(profiles) - small + 1, 3):
        picks = list(range(start, start + small))
        for warm in (False, True):
            adapter, service = _stack(model, warm=warm)
            base, matrix = service.candidate_costs(
                [profiles[i] for i in picks], candidates
            )
            np.testing.assert_array_equal(base, base_full[picks])
            np.testing.assert_array_equal(matrix, matrix_full[:, picks])
    # Served as a view of the resident full-width root, too.
    base, matrix = full.candidate_costs(profiles[:small], candidates)
    np.testing.assert_array_equal(base, base_full[:small])
    np.testing.assert_array_equal(matrix, matrix_full[:, :small])


# -- golden: exported stats and floats --------------------------------------------

#: Recorded from the commit *before* the service's four miss-fill paths
#: were folded into one (and its LRUs moved onto ``BoundedMemo``), by
#: running :func:`_golden_sequence` verbatim against that checkout: the
#: exported ``CostServiceStats`` (minus wall-clock) and a digest of every
#: returned float's ``repr``.  Every ``floats`` digest is the original.
#:
#: ``stats`` were re-recorded when the per-(design, workload) report memo
#: was deleted, and once more when the per-(design, query) cost cache
#: was: the cache's bound used to be a third axis of this table (40 and
#: 10 forced evictions mid-sequence) and its key order a third field.
#: Without the cache every pair the sequence requests is priced, so
#: ``raw_model_calls`` equals ``query_requests`` (workload reports now
#: count distinct SQL, not occurrences), ``query_hits`` and
#: ``evictions`` read 0, and the pairs the cache used to answer are
#: kernel- or scalar-priced.  ``dedup_saved`` did not move.
#:
#: ``kernel_batch_calls`` (+1) and ``kernel_pairs_priced`` (+3) were
#: re-recorded when the service stopped sending requests of fewer than
#: eight distinct texts to the scalar model: the sequence's last
#: three-query ``workload_cost`` is now one kernel batch.  The floats,
#: requests and raw calls did not move.
GOLDEN = {
    ("columnar", "htap"): {
        "stats": {
            "dedup_saved": 64,
            "evictions": 0,
            "kernel_batch_calls": 16,
            "kernel_pairs_priced": 280,
            "query_hits": 0,
            "query_requests": 282,
            "raw_model_calls": 282,
            "write_pairs_priced": 151,
        },
        "floats": "977dc64a72bbc140",
    },
    ("columnar", "read"): {
        "stats": {
            "dedup_saved": 64,
            "evictions": 0,
            "kernel_batch_calls": 16,
            "kernel_pairs_priced": 237,
            "query_hits": 0,
            "query_requests": 239,
            "raw_model_calls": 239,
            "write_pairs_priced": 0,
        },
        "floats": "88e610aa5fe37b14",
    },
    ("rowstore", "htap"): {
        "stats": {
            "dedup_saved": 64,
            "evictions": 0,
            "kernel_batch_calls": 16,
            "kernel_pairs_priced": 296,
            "query_hits": 0,
            "query_requests": 298,
            "raw_model_calls": 298,
            "write_pairs_priced": 143,
        },
        "floats": "6f93ffd84383afeb",
    },
    ("rowstore", "read"): {
        "stats": {
            "dedup_saved": 64,
            "evictions": 0,
            "kernel_batch_calls": 16,
            "kernel_pairs_priced": 253,
            "query_hits": 0,
            "query_requests": 255,
            "raw_model_calls": 255,
            "write_pairs_priced": 0,
        },
        "floats": "2af4fc7d9c2437b9",
    },
}


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _golden_sequence(substrate: str, mix: str) -> dict:
    model, candidates, profiles = _substrate(substrate, mix)
    service = CostEvaluationService(model)
    adapter = _adapter(model, service)
    sqls = [p.sql for p in profiles]
    make = adapter.make_design
    steps = [make(candidates[:k]) for k in (0, 1, 2, 3, 2, 5)]
    w_all = _workload(sqls)
    w_overlap = _workload(sqls[4:] + sqls[:6])
    floats: list[float] = []
    for row in service.evaluate_neighborhood(steps[:4], [w_all, w_overlap]):
        floats += [c for report in row for c in report.per_query_ms]
    for report in service.workload_costs_batch(steps + [make(candidates[3:9])], w_all):
        floats += report.per_query_ms
    for request in (
        (profiles, candidates),
        (profiles[:3], candidates[:4]),
        (profiles, candidates[2:]),
    ):
        base, matrix = service.candidate_costs(request[0], request[1])
        floats += base.tolist() + matrix.ravel().tolist()
    floats.append(service.query_cost(sqls[0], steps[5]))
    floats.append(service.query_cost(profiles[1], make(candidates[4:6])))
    floats += service.workload_cost(w_overlap, make(candidates[1:7])).per_query_ms
    floats += service.workload_cost(sqls[:3], make(candidates[6:8])).per_query_ms
    state = service.export_state()
    assert set(state) == {"stats"}
    return {
        "stats": {
            f.name: getattr(state["stats"], f.name)
            for f in dataclass_fields(state["stats"])
            if f.name != "eval_seconds"
        },
        "floats": _digest(floats),
    }


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(case))
def test_exported_stats_and_floats_match_golden(case):
    assert _golden_sequence(*case) == GOLDEN[case]


# -- lazy greedy selection -------------------------------------------------------


def _reference_greedy(evaluation, budget_bytes, min_benefit_ms=1e-6):
    """The dense BLAS selection loop, verbatim: re-materializes the full
    improvements array every pick and sums each benefit with a matvec,
    whose rounding depends on where a query sits.  The oracle for the
    chosen set on inputs free of near-ties."""
    if not evaluation.candidates or evaluation.base_costs.size == 0:
        return []
    current = evaluation.base_costs.copy()
    weights = evaluation.weights
    matrix = evaluation.matrix
    sizes = evaluation.sizes
    remaining = float(budget_bytes)
    chosen = []
    available = np.ones(len(evaluation.candidates), dtype=bool)
    while True:
        affordable = available & (sizes <= remaining)
        if not affordable.any():
            break
        improvements = np.maximum(current[None, :] - matrix, 0.0)
        improvements[~np.isfinite(improvements)] = 0.0
        benefits = improvements @ weights
        benefits[~affordable] = -np.inf
        density = benefits / np.maximum(sizes, 1.0)
        pick = int(np.argmax(density))
        if benefits[pick] <= min_benefit_ms:
            break
        chosen.append(pick)
        available[pick] = False
        remaining -= float(sizes[pick])
        current = np.minimum(current, np.where(np.isfinite(matrix[pick]), matrix[pick], np.inf))
    return [evaluation.candidates[i] for i in chosen]


def _fsum_greedy(evaluation, budget_bytes, min_benefit_ms=1e-6):
    """``_reference_greedy`` with each benefit a correctly rounded sum
    (``math.fsum`` of the weighted improvements) instead of a BLAS matvec:
    the dense per-pick rebuild of what ``greedy_select`` computes.

    Returns ``(chosen, gap)``: ``gap`` is the smallest relative margin by
    which a pick's density beat the runner-up's — 0 when a pick was a tie.
    """
    if not evaluation.candidates or evaluation.base_costs.size == 0:
        return [], 1.0
    current = evaluation.base_costs.copy()
    matrix, sizes = evaluation.matrix, evaluation.sizes
    remaining = float(budget_bytes)
    chosen, gap = [], 1.0
    available = np.ones(len(evaluation.candidates), dtype=bool)
    while True:
        affordable = available & (sizes <= remaining)
        if not affordable.any():
            break
        improvements = np.maximum(current[None, :] - matrix, 0.0)
        improvements[~np.isfinite(improvements)] = 0.0
        benefits = np.array([math.fsum(row) for row in improvements * evaluation.weights])
        benefits[~affordable] = -np.inf
        density = benefits / np.maximum(sizes, 1.0)
        pick = int(np.argmax(density))
        if benefits[pick] <= min_benefit_ms:
            break
        runner_up = np.max(np.delete(density, pick), initial=-np.inf)
        gap = min(gap, (density[pick] - runner_up) / density[pick])
        chosen.append(pick)
        available[pick] = False
        remaining -= float(sizes[pick])
        current = np.minimum(current, np.where(np.isfinite(matrix[pick]), matrix[pick], np.inf))
    return [evaluation.candidates[i] for i in chosen], gap


def _evaluation(base, matrix, weights, sizes) -> CandidateEvaluation:
    matrix = np.asarray(matrix, dtype=np.float64).reshape(len(sizes), len(base))
    return CandidateEvaluation(
        candidates=list(range(len(sizes))),
        sqls=[f"q{i}" for i in range(len(base))],
        weights=np.asarray(weights, dtype=np.float64),
        base_costs=np.asarray(base, dtype=np.float64),
        matrix=matrix,
        sizes=np.asarray(sizes, dtype=np.float64),
    )


#: Cell values: a few repeated decimals (ties, and sums whose rounding
#: depends on their order), arbitrary floats, and unservable cells.
_COST = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 15.1, 28.05, 28.79, 30.0]),
    st.floats(0.0, 120.0),
)


@st.composite
def _greedy_inputs(draw):
    """``(evaluation, budget)``: ``inf`` cells, off-table rows (the base
    costs), repeated rows, rows that move another row's cells to other
    queries (under a flat base cost: equal benefits that a position-order
    sum can tell apart), zero and equal sizes, zero weights, and a budget
    that may equal one size exactly.  Selection has no cap, so each
    compared pick sequence contains every capped prefix."""
    n_candidates = draw(st.integers(1, 9))
    n_queries = draw(st.integers(1, 7))
    if draw(st.booleans()):
        base = [draw(_COST)] * n_queries
    else:
        base = draw(st.lists(_COST, min_size=n_queries, max_size=n_queries))
    rows: list[list[float]] = []
    for _ in range(n_candidates):
        shape = draw(st.sampled_from(["cells", "cells", "off-table", "repeat", "moved"]))
        if shape == "off-table":
            rows.append(list(base))
        elif shape in ("repeat", "moved") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if shape == "moved":
                row = [row[q] for q in draw(st.permutations(range(n_queries)))]
            rows.append(list(row))
        else:
            cell = st.one_of(_COST, st.just(np.inf))
            rows.append(draw(st.lists(cell, min_size=n_queries, max_size=n_queries)))
    size = st.one_of(st.sampled_from([0.0, 1.0, 8.0, 40.0]), st.integers(0, 60).map(float))
    sizes = draw(st.lists(size, min_size=n_candidates, max_size=n_candidates))
    weight = st.one_of(st.sampled_from([0.0, 1.0, 3.0]), st.floats(0.0, 10.0))
    weights = draw(st.lists(weight, min_size=n_queries, max_size=n_queries))
    budget = draw(st.one_of(st.sampled_from(sizes).map(int), st.integers(0, 150)))
    return _evaluation(base, rows, weights, sizes), budget


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_greedy_inputs())
def test_greedy_matches_correctly_rounded_oracle(case):
    """The lazy greedy picks exactly what the dense per-pick rebuild with
    ``math.fsum`` benefits picks, in the same order — ties included."""
    evaluation, budget = case
    expected, _ = _fsum_greedy(evaluation, budget)
    assert greedy_select(evaluation, budget) == expected


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_greedy_inputs(), data=st.data())
def test_greedy_pick_sequence_invariant_to_query_order(case, data):
    """Permuting the query axis (weights, base costs and matrix columns
    together) leaves the pick sequence unchanged."""
    evaluation, budget = case
    order = data.draw(st.permutations(range(len(evaluation.sqls))))
    permuted = _evaluation(
        evaluation.base_costs[order],
        evaluation.matrix[:, order],
        evaluation.weights[order],
        evaluation.sizes,
    )
    assert greedy_select(permuted, budget) == greedy_select(evaluation, budget)


def test_greedy_equal_benefits_on_different_queries_pick_lower_index_first():
    """Two candidates with the same three improvements on different
    queries have equal correctly rounded benefits, so the lower index
    goes first wherever the queries sit.  A BLAS matvec sums each row in
    position order and reads these two as 18.06 and 18.060000000000002
    (on the R1 seed-8 round such a pair read 28.35017102469684 and
    28.350171024696838), so the dense loop picked by row position."""
    base = [30.0] * 6
    inf = np.inf
    matrix = [
        [28.79, 28.05, 15.1, inf, inf, inf],
        [inf, inf, inf, 15.1, 28.05, 28.79],
    ]
    evaluation = _evaluation(base, matrix, [1.0] * 6, [8.0, 8.0])
    assert greedy_select(evaluation, 16) == [0, 1]
    for order in itertools.permutations(range(6)):
        order = list(order)
        moved = _evaluation(
            evaluation.base_costs[order], evaluation.matrix[:, order], [1.0] * 6, [8.0, 8.0]
        )
        assert greedy_select(moved, 16) == [0, 1]
    # The budget stops after the first pick of the tie.
    assert greedy_select(evaluation, 8) == [0]


def test_greedy_edges():
    inf = np.inf
    off_table = _evaluation([5.0, 7.0], [[5.0, 7.0], [6.0, inf]], [1.0, 2.0], [1.0, 1.0])
    assert greedy_select(off_table, 10**6) == []  # no benefit anywhere
    useful = _evaluation([5.0, 7.0], [[1.0, 7.0], [5.0, 2.0]], [1.0, 1.0], [4.0, 0.0])
    # A zero-size candidate is priced per byte as if it had one byte, and
    # stays affordable once the budget is spent.
    assert greedy_select(useful, 4) == [1, 0]
    assert greedy_select(useful, 0) == [1]
    assert greedy_select(useful, 3) == [1]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    n_candidates=st.integers(1, 12),
    n_queries=st.integers(1, 10),
    budget=st.integers(1, 500),
)
def test_greedy_incremental_selection_order_regression(seed, n_candidates, n_queries, budget):
    """The lazy loop picks what the correctly rounded rebuild picks, in
    order, and — on inputs free of near-ties — the same set as the BLAS
    loop it replaced, on adversarial matrices with unservable (inf)
    cells and off-table no-op rows."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 100.0, size=n_queries)
    matrix = rng.uniform(0.5, 120.0, size=(n_candidates, n_queries))
    matrix[rng.random(matrix.shape) < 0.2] = np.inf
    # Off-table candidates: whole rows pinned at base (zero benefit).
    matrix[rng.random(n_candidates) < 0.2] = base[None, :]
    evaluation = CandidateEvaluation(
        candidates=list(range(n_candidates)),
        sqls=[f"q{i}" for i in range(n_queries)],
        weights=rng.uniform(0.5, 5.0, size=n_queries),
        base_costs=base,
        matrix=matrix,
        sizes=rng.integers(1, 60, size=n_candidates).astype(np.float64),
    )
    chosen = greedy_select(evaluation, budget)
    expected, gap = _fsum_greedy(evaluation, budget)
    assert chosen == expected
    if gap > 1e-9:
        assert set(chosen) == set(_reference_greedy(evaluation, budget))


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(substrate=st.sampled_from(SUBSTRATES), mix=st.sampled_from(MIXES))
def test_greedy_selection_order_on_real_matrices(substrate, mix):
    model, candidates, profiles = _substrate(substrate, mix)
    adapter, service = _stack(model, warm=True)
    base, matrix = service.candidate_costs(profiles, candidates)
    evaluation = CandidateEvaluation(
        candidates=candidates,
        sqls=[p.sql for p in profiles],
        weights=np.arange(1.0, len(profiles) + 1.0),
        base_costs=base,
        matrix=matrix,
        sizes=np.array(
            [adapter.structure_size(c) for c in candidates], dtype=np.float64
        ),
    )
    budget = int(evaluation.sizes.sum() / 2) + 1
    chosen = greedy_select(evaluation, budget)
    assert chosen == _fsum_greedy(evaluation, budget)[0]
    assert set(chosen) == set(_reference_greedy(evaluation, budget))
