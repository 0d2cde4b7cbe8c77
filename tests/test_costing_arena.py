"""Workload-arena tests: compile-once reuse, delta re-costing, memoized
fingerprints.

The arena refactor's contract is pure code motion: ``kernel.compile``
must equal ``kernel.bind(kernel.compile_queries(...))`` bit-for-bit,
delta re-costing must equal a full re-reduction bit-for-bit, and the
service-level arena cache must never change a single cached float —
only how often the compile work is paid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costing.kernel import kernel_for
from repro.costing.memo import BoundedMemo
from repro.costing.service import (
    KERNEL_MIN_BATCH,
    CostEvaluationService,
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
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload

SUBSTRATES = ("columnar", "rowstore", "samples")


@lru_cache(maxsize=1)
def _environment():
    schema, roles = build_star_schema(
        fact_tables=2,
        fact_rows=200_000,
        fact_attributes=10,
        legacy_tables=2,
        legacy_columns=3,
        seed=7,
    )
    profile = r1_profile(queries_per_day=6, topic_count=2, templates_per_topic=3)
    trace = TraceGenerator(schema, roles, profile, seed=9).generate(days=30)
    sqls = list(dict.fromkeys(q.sql for q in trace))[:14]
    assert len(sqls) >= 6
    return schema, sqls


@lru_cache(maxsize=None)
def _substrate(name: str):
    schema, sqls = _environment()
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


def test_prepare_workload_prewarms_and_gates():
    model, _, _ = _substrate("columnar")
    adapter = _adapter(model)
    service = adapter.costing
    _, sqls = _environment()
    workload = _workload(sqls)

    assert service.prepare_workload(workload) is True
    assert service.arena_stats.builds == 1
    # The costing pass that follows reuses the pre-warmed arena.
    adapter.workload_cost(workload, adapter.make_design([]))
    assert service.arena_stats.builds == 1
    assert service.arena_stats.hits >= 1
    # Below the kernel batch threshold nothing is compiled.
    assert service.prepare_workload(_workload(sqls[:2])) is False


def test_invalidate_design_drops_arenas():
    model, candidates, _ = _substrate("columnar")
    adapter = _adapter(model)
    service = adapter.costing
    _, sqls = _environment()
    design = adapter.make_design(candidates[:2])
    adapter.workload_cost(_workload(sqls), design)
    assert service.cached_arenas == 1
    service.invalidate_design(design)
    assert service.cached_arenas == 0
    assert service.arena_stats.invalidations == 1


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
    structure — takes the delta path and stays bit-identical."""
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
    assert adapter.costing.arena_stats.delta_recosts >= 1

    # A fresh service, one workload_cost per design: no delta anywhere.
    fresh = _adapter(model)
    for report, structures in zip(reports, designs_structures):
        single = fresh.workload_cost(workload, fresh.make_design(structures))
        assert report.per_query_ms == single.per_query_ms


# -- fingerprint memoization -------------------------------------------------------


def test_workload_fingerprint_memoized_and_digest_stable():
    _, sqls = _environment()
    workload = _workload(sqls)
    # Digest is spelled identically whether the container or its query
    # list is hashed — checkpoint keys from older runs stay valid.
    assert workload_fingerprint(workload) == workload_fingerprint(list(workload))
    # Identity memo: same object, no re-hash (observable via the memo).
    memo = BoundedMemo(by_identity=True)
    memo[workload] = "sentinel"
    assert memo.get(workload) == "sentinel"
    assert memo.get(list(workload)) is None


def test_design_fingerprint_memoized_by_identity():
    model, candidates, _ = _substrate("columnar")
    adapter = _adapter(model)
    a = adapter.make_design(candidates[:2])
    b = adapter.make_design(candidates[:2])
    # Content-identical designs agree; distinct objects both memoize.
    assert design_fingerprint(a) == design_fingerprint(b)
    assert design_fingerprint(a) == design_fingerprint(a)
