"""Workload-arena tests: compile-once reuse, delta re-costing,
fingerprints.

The arena refactor's contract is pure code motion: ``kernel.compile``
must equal ``kernel.bind(kernel.compile_queries(...))`` bit-for-bit,
delta re-costing must equal a full re-reduction bit-for-bit, and the
service-level arena cache must never change a single cached float —
only how often the compile work is paid.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costing.kernel import (
    ColumnarBatch,
    ColumnarKernel,
    RowstoreBatch,
    RowstoreKernel,
    SamplesBatch,
    SamplesKernel,
    kernel_for,
)
from repro.costing.service import (
    DEFAULT_MAX_STORE_CELLS,
    KERNEL_MIN_BATCH,
    CostEvaluationService,
    _View,
    design_fingerprint,
    workload_fingerprint,
)
from repro.designers.base import ColumnarAdapter, RowstoreAdapter, SamplesAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.designers.samples_nominal import SamplesNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.rowstore.optimizer import RowstoreCostModel
from repro.samples.design import StratifiedSample
from repro.samples.optimizer import SamplesCostModel
from repro.workload.families import htap_profile
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload

SUBSTRATES = ("columnar", "rowstore", "samples")


@lru_cache(maxsize=None)
def _environment(mix: str = "r1"):
    schema, roles = build_star_schema(
        fact_tables=2,
        fact_rows=200_000,
        fact_attributes=10,
        legacy_tables=2,
        legacy_columns=3,
        seed=7,
    )
    family = htap_profile if mix == "htap" else r1_profile
    profile = family(queries_per_day=6, topic_count=2, templates_per_topic=3)
    trace = TraceGenerator(schema, roles, profile, seed=9).generate(days=30)
    sqls = list(dict.fromkeys(q.sql for q in trace))[:14]
    assert len(sqls) >= 6
    return schema, sqls


@lru_cache(maxsize=None)
def _substrate(name: str, mix: str = "r1"):
    schema, sqls = _environment(mix)
    if name == "columnar":
        model = ColumnarCostModel(schema)
        nominal = ColumnarNominalDesigner(ColumnarAdapter(model))
    elif name == "rowstore":
        model = RowstoreCostModel(schema)
        nominal = RowstoreNominalDesigner(RowstoreAdapter(model))
    else:
        model = SamplesCostModel(schema)
        nominal = SamplesNominalDesigner(SamplesAdapter(model))
    candidates = nominal.generate_candidates(Workload.from_sql(sqls))[:10]
    profiles = [model.profile(sql) for sql in sqls]
    if name == "samples" and not candidates:
        # Star-join traces yield no sample-answerable queries, so the
        # nominal pool is empty; synthesize samples on the touched tables
        # — bind/delta identity must hold for unanswerable structures too.
        used = list(dict.fromkeys(t.table for p in profiles for t in p.tables))
        candidates = [
            StratifiedSample(
                table=table,
                strata_columns=(schema.table(table).column_names[0],),
                fraction=fraction,
            )
            for table in used[:5]
            for fraction in (0.01, 0.1)
        ][:10]
    assert candidates
    return model, candidates, profiles


def _adapter(model):
    service = CostEvaluationService(model)
    if isinstance(model, ColumnarCostModel):
        return ColumnarAdapter(model, costing=service)
    if isinstance(model, RowstoreCostModel):
        return RowstoreAdapter(model, costing=service)
    return SamplesAdapter(model, costing=service)


def _workload(sqls: list[str]) -> Workload:
    return Workload(
        WorkloadQuery(sql=sql, frequency=float(i + 1)) for i, sql in enumerate(sqls)
    )


# -- compile == bind(compile_queries) ---------------------------------------------


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mask=st.integers(0, 1023),
    q_mask=st.integers(1, (1 << 14) - 1),
)
def test_bind_arena_equals_direct_compile(substrate, mask, q_mask):
    """The arena split is pure code motion: identical arrays, identical
    floats."""
    model, candidates, profiles = _substrate(substrate)
    kernel = kernel_for(model)
    chosen = [p for i, p in enumerate(profiles) if q_mask & (1 << i)]
    structures = [c for i, c in enumerate(candidates) if mask & (1 << i)]

    direct = kernel.compile(chosen, structures)
    arena = kernel.compile_queries(chosen)
    bound = kernel.bind(arena, structures)

    np.testing.assert_array_equal(direct.base_costs(), bound.base_costs())
    np.testing.assert_array_equal(direct.design_costs(), bound.design_costs())
    # A second bind against the same arena must not have been perturbed
    # by the first (arenas are read-only to bind).
    rebound = kernel.bind(arena, structures)
    np.testing.assert_array_equal(bound.design_costs(), rebound.design_costs())


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mask=st.integers(1, 1023),
    q_mask=st.integers(1, (1 << 14) - 1),
    changed=st.integers(0, 9),
)
def test_delta_recost_bit_identical_on_add_and_remove(
    substrate, mask, q_mask, changed
):
    """Re-pricing only the affected queries equals a full re-reduction —
    tolerance zero — when one structure enters or leaves the member set."""
    model, candidates, profiles = _substrate(substrate)
    kernel = kernel_for(model)
    chosen = [p for i, p in enumerate(profiles) if q_mask & (1 << i)]
    batch = kernel.bind(kernel.compile_queries(chosen), candidates)
    changed %= len(candidates)
    members = [i for i in range(len(candidates)) if mask & (1 << i)]
    prev = batch.design_costs(members)

    if changed in members:
        flipped = [m for m in members if m != changed]
    else:
        flipped = sorted(members + [changed])
    full = batch.design_costs(flipped)
    delta = batch.delta_design_costs(flipped, changed, prev)
    np.testing.assert_array_equal(full, delta)
    # prev must not be mutated in place — callers reuse it.
    np.testing.assert_array_equal(prev, batch.design_costs(members))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(substrate=st.sampled_from(SUBSTRATES), changed=st.integers(0, 9))
def test_affected_queries_is_conservative(substrate, changed):
    """Every query whose cost actually changes is flagged as affected."""
    model, candidates, profiles = _substrate(substrate)
    kernel = kernel_for(model)
    batch = kernel.bind(kernel.compile_queries(profiles), candidates)
    changed %= len(candidates)
    without = batch.design_costs([i for i in range(len(candidates)) if i != changed])
    with_all = batch.design_costs(list(range(len(candidates))))
    affected = batch.affected_queries(changed)
    differs = without != with_all
    assert not np.any(differs & ~affected)


# -- the one generic take / one algebra --------------------------------------------

BATCHES = (ColumnarBatch, RowstoreBatch, SamplesBatch)
ALGEBRA = (
    "take",
    "structure_columns",
    "_write_costs",
    "base_costs",
    "design_costs",
    "candidate_costs",
    "candidate_frame",
    "affected_queries",
    "delta_design_costs",
    "structure_count",
    "query_count",
    "any_write",
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mix=st.sampled_from(("r1", "htap")),
    idx=st.lists(st.integers(0, 13), max_size=20),
    mask=st.integers(0, 1023),
)
def test_take_prices_like_indexing_the_full_batch(substrate, mix, idx, mask):
    """``take(idx)`` (repeats and the empty subset included) then any
    reduction equals the full batch's result indexed by ``idx``."""
    model, candidates, profiles = _substrate(substrate, mix)
    batch = kernel_for(model).compile(profiles, candidates)
    idx = [i % len(profiles) for i in idx]
    members = [i for i in range(len(candidates)) if mask & (1 << i)]
    taken = batch.take(idx)

    assert taken.query_count == len(idx)
    assert taken.sqls == [batch.sqls[i] for i in idx]
    np.testing.assert_array_equal(
        taken.design_costs(members), batch.design_costs(members)[idx]
    )
    np.testing.assert_array_equal(taken.base_costs(), batch.base_costs()[idx])
    np.testing.assert_array_equal(taken.candidate_costs(), batch.candidate_costs()[:, idx])
    for got, want in zip(taken.candidate_frame(), batch.candidate_frame()):
        np.testing.assert_array_equal(got, want[:, idx])


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mix=st.sampled_from(("r1", "htap")),
    idx=st.lists(st.integers(0, 13), max_size=20),
    mask=st.integers(0, 1023),
)
def test_row_mapped_arena_prices_like_a_fresh_compile(substrate, mix, idx, mask):
    """A service view of a compiled root over rows ``idx`` — permuted,
    repeated or dropped — carries the query side of a fresh compile of
    those rows' profiles and prices bit for bit like it: the shared
    access side is only ever indexed through the kept queries."""
    model, candidates, profiles = _substrate(substrate, mix)
    kernel = kernel_for(model)
    service = CostEvaluationService(model)
    root = service._view_for(tuple(p.sql for p in profiles), profiles)
    idx = [i % len(profiles) for i in idx]
    members = [c for i, c in enumerate(candidates) if mask & (1 << i)]
    view = _View(root.store, np.array(idx, dtype=np.intp))
    fresh_arena = kernel.compile_queries([profiles[i] for i in idx])
    fresh = kernel.bind(fresh_arena, members)

    assert view.base.sqls == fresh.sqls
    assert view.base.query_count == len(idx)
    for name in type(fresh).per_query:
        if name in ("anchor_acc", "dim_pad"):
            continue  # access indices differ by interning; compared below
        assert _same_bits(getattr(view.base, name), getattr(fresh, name)), name
    accesses = getattr(root.store.arena, "accesses", None)
    if accesses is not None:
        assert [accesses[a] for a in view.base.anchor_acc] == [
            fresh_arena.accesses[a] for a in fresh.anchor_acc
        ]
    service._keep(view, members, [str(c) for c in members])
    columns = view.gather([str(c) for c in members])
    assert _same_bits(view.base_costs, fresh.base_costs())
    assert _same_bits(view.base.design_costs(columns=columns), fresh.design_costs())
    assert _same_bits(
        view.base.candidate_costs(view.base_costs, columns), fresh.candidate_costs()
    )
    for got, want in zip(view.base.candidate_frame(columns), fresh.candidate_frame()):
        assert _same_bits(got, want)


def test_take_of_a_take_is_one_take():
    model, candidates, profiles = _substrate("rowstore", "htap")
    batch = kernel_for(model).compile(profiles, candidates)
    outer = [5, 3, 3, 9, 0, 12, 7]
    inner = [6, 1, 1, 4]
    twice, once = batch.take(outer).take(inner), batch.take([outer[i] for i in inner])
    assert twice.sqls == once.sqls
    for name in (*type(batch).per_query, *type(batch).per_pair):
        assert _same_bits(getattr(twice, name), getattr(once, name)), name
    assert _same_bits(twice.design_costs(), once.design_costs())


def test_service_serves_a_subset_from_a_resident_arena():
    """A request whose texts a resident arena holds is served as a
    row-mapped view of it — no compile — with the floats a fresh service
    computes; a text no arena holds compiles."""
    model, candidates, _ = _substrate("columnar", "htap")
    adapter = _adapter(model)
    service = adapter.costing
    _, sqls = _environment("htap")
    design = adapter.make_design(candidates[:4])
    adapter.workload_cost(_workload(sqls), design)
    assert service.arena_stats.builds == 1
    subset = sqls[::-1][: KERNEL_MIN_BATCH + 2]
    served = adapter.workload_cost(_workload(subset), design)
    assert service.arena_stats.builds == 1
    assert service.cached_arenas == 2
    again = adapter.workload_cost(_workload(subset), adapter.make_design(candidates[4:]))
    assert service.arena_stats.builds == 1

    fresh = _adapter(model)
    assert served.per_query_ms == fresh.workload_cost(_workload(subset), design).per_query_ms
    assert (
        again.per_query_ms
        == fresh.workload_cost(
            _workload(subset), fresh.make_design(candidates[4:])
        ).per_query_ms
    )
    assert adapter.costing.stats.raw_model_calls == sum(
        (len(sqls), len(subset), len(subset))
    )

    _, other_sqls = _environment("r1")
    adapter.workload_cost(_workload(subset[:-1] + [other_sqls[0]]), design)
    assert service.arena_stats.builds == 2


# -- the per-arena store of structure columns ----------------------------------------


def _store_cells(service) -> int:
    """The live store cells, counted column by column."""
    return sum(
        store.column_cells * live
        for store in service._stores.values()
        for _, live in store.blocks.values()
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mix=st.sampled_from(("r1", "htap")),
    idx=st.lists(st.integers(0, 13), min_size=1, max_size=20),
    masks=st.lists(st.integers(0, 1023), min_size=1, max_size=3),
)
def test_store_gathers_price_like_a_fresh_bind(substrate, mix, idx, masks):
    """Designs and candidate matrices gathered from a root's store, over
    a view of its rows (permuted, repeated, dropped), equal a fresh
    ``bind`` of a compile of those rows byte for byte — with the store
    cold, warm, evicting under a one-column budget, and rebuilt after
    ``clear``; the running cell total equals a recount after every call.
    The public entry points agree on the view's distinct texts."""
    model, candidates, profiles = _substrate(substrate, mix)
    kernel = kernel_for(model)
    rows = [i % len(profiles) for i in idx]
    fresh = kernel.compile_queries([profiles[i] for i in rows])
    distinct = [profiles[i] for i in dict.fromkeys(rows)]
    fresh_distinct = kernel.compile_queries(distinct)
    service = CostEvaluationService(model)
    make = _adapter(model).make_design
    everything = tuple(p.sql for p in profiles)

    def check():
        root = service._view_for(everything, profiles)
        view = _View(root.store, np.array(rows, dtype=np.intp))
        for mask in masks:
            chosen = [c for i, c in enumerate(candidates) if mask & (1 << i)]
            want = kernel.bind(fresh, chosen)
            service._keep(view, chosen, [str(c) for c in chosen])
            columns = view.gather([str(c) for c in chosen])
            assert _same_bits(view.base_costs, want.base_costs())
            assert _same_bits(view.base.design_costs(columns=columns), want.design_costs())
            assert _same_bits(
                view.base.candidate_costs(view.base_costs, columns), want.candidate_costs()
            )
            service._shrink_stores()
            assert service.cached_store_cells == _store_cells(service)
            want = kernel.bind(fresh_distinct, chosen)
            base, matrix = service.candidate_costs(distinct, chosen)
            assert _same_bits(base, want.base_costs())
            assert _same_bits(matrix, want.candidate_costs())
            (report,) = service.workload_costs_batch(
                [make(chosen)], [p.sql for p in distinct]
            )
            if len(distinct) >= KERNEL_MIN_BATCH:
                assert report.per_query_ms == want.design_costs().tolist()
            assert service.cached_store_cells == _store_cells(service)

    check()  # cold
    check()  # warm
    service.max_store_cells = len(profiles)  # less than one column: evicting
    check()
    assert service.cached_store_cells <= service.max_store_cells
    service.max_store_cells = DEFAULT_MAX_STORE_CELLS
    service.clear()
    assert service.cached_store_cells == _store_cells(service) == 0
    check()  # rebuilt


def test_take_fixture_mixes_reads_and_writes():
    """The htap leg of the ``take`` property really prices writes."""
    for substrate in SUBSTRATES:
        model, candidates, profiles = _substrate(substrate, "htap")
        batch = kernel_for(model).compile(profiles, candidates)
        assert batch.any_write and not batch.is_write.all()


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_query_axis_declarations_are_complete(substrate):
    """Every array field with a query-sized axis is declared in
    ``per_query`` / ``per_pair`` (so ``take`` slices it) and no other
    field is — on a batch whose axis lengths are pairwise different."""
    model, candidates, profiles = _substrate(substrate, "htap")
    kernel = kernel_for(model)
    for count in range(len(profiles), 0, -1):
        arena = kernel.compile_queries(profiles[:count])
        batch = kernel.bind(arena, candidates)
        other_axes = (
            batch.structure_count,
            arena.acc_table.shape[0],
            arena.dim_pad.shape[1],
            arena.bits.words,
        )
        if count not in other_axes:
            break
    else:
        pytest.fail("no query count distinct from every other axis length")

    arrays = {
        f.name: getattr(batch, f.name)
        for f in fields(batch)
        if isinstance(getattr(batch, f.name), np.ndarray)
    }
    with_query_axis = {name for name, value in arrays.items() if count in value.shape}
    assert with_query_axis == set(batch.per_query) | set(batch.per_pair)
    assert not set(batch.per_query) & set(batch.per_pair)
    assert all(arrays[name].shape[0] == count for name in batch.per_query)
    assert all(arrays[name].shape[1] == count for name in batch.per_pair)


def test_algebra_has_one_implementation():
    """Each algebra name is the same object on all three batch classes,
    and the kernels share one ``__init__`` / ``compile``: a re-forked
    per-substrate copy fails here instead of in review."""
    for name in ALGEBRA:
        assert len({id(getattr(cls, name)) for cls in BATCHES}) == 1, name
    for name in ("__init__", "compile"):
        kernels = (ColumnarKernel, RowstoreKernel, SamplesKernel)
        assert len({id(getattr(cls, name)) for cls in kernels}) == 1, name


# -- the service-level arena cache -------------------------------------------------


def test_arena_reused_across_designs():
    """Two designs over one workload pay exactly one compile."""
    model, candidates, _ = _substrate("columnar")
    adapter = _adapter(model)
    service = adapter.costing
    _, sqls = _environment()
    workload = _workload(sqls)
    assert len(sqls) >= KERNEL_MIN_BATCH

    first = adapter.workload_cost(workload, adapter.make_design(candidates[:3]))
    second = adapter.workload_cost(workload, adapter.make_design(candidates[3:6]))
    assert service.arena_stats.builds == 1
    assert service.arena_stats.hits >= 1
    assert service.cached_arenas == 1

    # Bit-identity against a fresh (cold-arena) service.
    fresh = _adapter(model)
    assert first.per_query_ms == fresh.workload_cost(
        workload, fresh.make_design(candidates[:3])
    ).per_query_ms
    assert second.per_query_ms == fresh.workload_cost(
        workload, fresh.make_design(candidates[3:6])
    ).per_query_ms


def test_clear_drops_arenas():
    model, candidates, _ = _substrate("columnar")
    adapter = _adapter(model)
    service = adapter.costing
    _, sqls = _environment()
    adapter.workload_cost(_workload(sqls), adapter.make_design(candidates[:2]))
    assert service.cached_arenas == 1
    service.clear()
    assert service.cached_arenas == 0
    assert service.arena_stats.invalidations == 1


def test_arena_lru_bound_evicts_oldest():
    model, candidates, _ = _substrate("columnar")
    adapter = _adapter(model)
    service = adapter.costing
    service._arenas.max_entries = 2
    _, sqls = _environment()
    slices = [sqls[0:8], sqls[3:11], sqls[6:14]]  # each >= KERNEL_MIN_BATCH
    for i, chunk in enumerate(slices):
        # A fresh design per slice keeps every query a cache miss, so
        # each call takes the kernel path and builds its slice's arena.
        adapter.workload_cost(_workload(chunk), adapter.make_design(candidates[i : i + 1]))
    assert service.cached_arenas == 2
    assert service.arena_stats.evictions == 1
    # The evicted (oldest) workload rebuilds; the resident ones hit.
    builds = service.arena_stats.builds
    adapter.workload_cost(_workload(slices[0]), adapter.make_design(candidates[3:4]))
    assert service.arena_stats.builds == builds + 1


def test_arenas_excluded_from_state_export():
    """Arenas are derived state: export/import round-trips without them,
    and a restored service rebuilds on first use with identical floats."""
    model, candidates, _ = _substrate("columnar")
    adapter = _adapter(model)
    service = adapter.costing
    _, sqls = _environment()
    workload = _workload(sqls)
    design = adapter.make_design(candidates[:3])
    report = adapter.workload_cost(workload, design)
    state = service.export_state()
    assert "arena" not in str(sorted(state.keys()))

    resumed = _adapter(model)
    resumed.costing.import_state(state)
    assert resumed.costing.cached_arenas == 0
    # Cached entries serve without an arena; a new workload rebuilds.
    assert (
        resumed.workload_cost(workload, resumed.make_design(candidates[:3])).per_query_ms
        == report.per_query_ms
    )


def test_workload_costs_batch_delta_path_matches_full():
    """The neighborhood shape — consecutive designs differing by one
    structure — prices bit-identically to one fill per design."""
    model, candidates, _ = _substrate("columnar")
    _, sqls = _environment()
    workload = _workload(sqls)
    designs_structures = [
        candidates[:4],
        candidates[:5],           # one added
        candidates[1:5],          # one removed
    ]

    adapter = _adapter(model)
    designs = [adapter.make_design(s) for s in designs_structures]
    reports = adapter.workload_costs_batch(designs, workload)

    # A fresh service, one workload_cost per design.
    fresh = _adapter(model)
    for report, structures in zip(reports, designs_structures):
        single = fresh.workload_cost(workload, fresh.make_design(structures))
        assert report.per_query_ms == single.per_query_ms


# -- fingerprints ------------------------------------------------------------------


def test_workload_fingerprint_memoized_and_digest_stable():
    """(The name predates the removal of the identity memo; what it pins
    is the digest.)"""
    _, sqls = _environment()
    workload = _workload(sqls)
    # Digest is spelled identically whether the container or its query
    # list is hashed — a run key does not depend on which one a caller
    # holds.
    assert workload_fingerprint(workload) == workload_fingerprint(list(workload))
    assert workload_fingerprint(workload) == workload_fingerprint(workload)


def test_design_fingerprint_is_a_content_hash():
    model, candidates, _ = _substrate("columnar")
    adapter = _adapter(model)
    a = adapter.make_design(candidates[:2])
    b = adapter.make_design(candidates[:2])
    # Content-identical designs agree, whatever object holds them.
    assert design_fingerprint(a) == design_fingerprint(b)
    assert design_fingerprint(a) == design_fingerprint(a)
