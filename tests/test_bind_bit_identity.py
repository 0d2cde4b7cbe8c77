"""Old-vs-new oracle for ``ColumnarKernel.bind`` / ``RowstoreKernel.bind``.

``bind`` used to rebuild the query side on every call — four
``(n_bits+1,)`` predicate arrays per interned access, a ``seek_prefix``
call per (index, access) pair, a ``_view_cost`` call per (view, query)
pair, ``(S, A, words)`` coverage temporaries over every pair — and now
does per-design work only: the predicate tables live in the arena by
table-local column id, one per-table fold (``_prefix_fold``) serves both
substrates, coverage is computed per same-table block over the table's
mask words, and a read-only arena binds no write side.

The ``_oracle_*`` functions below are the parent commit's
``ColumnarKernel.bind``, ``RowstoreKernel.bind``, ``_Kernel._bound``,
``_covered`` and ``_write_touch_mask``, verbatim but for ``self`` ->
``kernel`` and the GROUP BY / ORDER BY combinations (re-keyed in the
arena since) being rebuilt from the profiles with the parent's lines.
Every cost the bound batch can produce must be ``==`` the oracle's, bit
for bit, and every bound array ``array_equal`` with the same dtype and
shape — except where the semantics changed on cells nothing reads:

* ``covering`` off the structure's own table (the parent left
  ``need ⊆ have`` unmasked there; ``seek_valid`` is False on those cells,
  so the fetch cost is never selected): compared on same-table pairs,
  and required False elsewhere;
* ``write_weight`` / ``write_rank`` of a read-only arena (read only under
  ``any_write``): zeros now, compared by dtype and shape only.

A fold that multiplies in another association order fails
``test_fold_keeps_the_scalar_multiply_order``; one that lets a range hit
keep the walk alive fails ``test_range_hit_ends_the_walk``; both also
fail the hypothesis properties, whose pools hold those keys.
"""

from __future__ import annotations

import copy
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.costing.kernel as kernel_module
from repro.catalog.schema import SchemaError
from repro.costing.kernel import _write_fold_order, kernel_for
from repro.designers.base import ColumnarAdapter, RowstoreAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.engine.projection import Projection, SortColumn
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.rowstore.optimizer import RowstoreCostModel
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile
from repro.workload.workload import Workload
from tests.corpus import star_pool

SUBSTRATES = ("columnar", "rowstore")
MIXES = ("r1", "htap")

# -- the parent commit's bind, verbatim ---------------------------------------------


def _oracle_covered(need: np.ndarray, have: np.ndarray) -> np.ndarray:
    """(S, A) bool: ``need[a] ⊆ have[s]`` via popcount of ``need & ~have``."""
    if have.shape[0] == 0 or need.shape[0] == 0:
        return np.zeros((have.shape[0], need.shape[0]), dtype=bool)
    missing = need[None, :, :] & ~have[:, None, :]
    return np.bitwise_count(missing).sum(axis=2, dtype=np.int64) == 0


def _oracle_write_touch_mask(
    struct_table, struct_write_mask, anchor_tid, is_write, always_touch, written_mask
):
    same = struct_table[:, None] == anchor_tid[None, :]
    if struct_write_mask.shape[0] == 0 or written_mask.shape[0] == 0:
        return np.zeros(
            (struct_write_mask.shape[0], written_mask.shape[0]), dtype=bool
        )
    overlap = struct_write_mask[:, None, :] & written_mask[None, :, :]
    has_common = np.bitwise_count(overlap).sum(axis=2, dtype=np.int64) > 0
    return same & is_write[None, :] & (always_touch[None, :] | has_common)


def _oracle_bound(kernel, arena, structures, struct_table, write_mask, fold_keys, **pairs):
    write_weight = np.array(
        [kernel.model.maintenance_weight(s) for s in structures], dtype=np.float64
    ).reshape(len(structures))
    write_touch = _oracle_write_touch_mask(
        struct_table,
        write_mask,
        arena.acc_table[arena.anchor_acc],
        arena.is_write,
        arena.always_touch,
        arena.written_mask,
    )
    return kernel.batch_type(
        **{name: getattr(arena, name) for name in kernel._passthrough},
        struct_table=struct_table,
        write_weight=write_weight,
        write_touch=write_touch,
        write_rank=_write_fold_order(fold_keys),
        **pairs,
    )


def _oracle_columnar_bind(kernel, arena, structures, profiles):
    # The parent's ``compile_queries`` grouping (the arena keys these by
    # (table, width, set) now).
    anchor_tid = arena.acc_table[arena.anchor_acc]
    group_queries: dict[tuple[int, tuple], list[int]] = {}
    order_queries: dict[tuple[int, tuple], list[int]] = {}
    for q, (profile, tid) in enumerate(zip(profiles, anchor_tid.tolist())):
        if profile.group_by:
            key = (tid, tuple(profile.group_by))
            group_queries.setdefault(key, []).append(q)
        elif profile.order_by:
            order_queries.setdefault((tid, profile.order_by), []).append(q)

    structures = list(structures)
    bits = arena.bits
    accesses = arena.accesses
    acc_table = arena.acc_table
    struct_table = bits.table_ids_of(structures)
    struct_mask = bits.masks([(s.table, s.columns) for s in structures])
    scan_valid = _oracle_covered(arena.acc_mask, struct_mask) & (
        struct_table[:, None] == acc_table[None, :]
    )

    sort_keys = [s.sort_key for s in structures]
    prefix = np.ones((len(structures), len(accesses)), dtype=np.float64)
    key_width = max((len(k) for k in sort_keys), default=0)
    if structures and accesses and key_width:
        n_bits = len(bits.bits)
        key_ids = np.full((len(structures), key_width), n_bits, dtype=np.intp)
        for s, structure in enumerate(structures):
            for j, name in enumerate(sort_keys[s]):
                key_ids[s, j] = bits.bits.get((structure.table, name), n_bits)
        structs_by_table: dict[int, list[int]] = {}
        for s, tid in enumerate(struct_table.tolist()):
            structs_by_table.setdefault(tid, []).append(s)
        for a, (access, tid) in enumerate(zip(accesses, acc_table.tolist())):
            rows_s = structs_by_table.get(tid)
            if not rows_s:
                continue
            eq_sel = np.ones(n_bits + 1, dtype=np.float64)
            rng_sel = np.ones(n_bits + 1, dtype=np.float64)
            is_eq = np.zeros(n_bits + 1, dtype=bool)
            is_rng = np.zeros(n_bits + 1, dtype=bool)
            for name, sel in access.eq_map.items():
                bit = bits.bits.get((access.table, name))
                if bit is not None:
                    is_eq[bit] = True
                    eq_sel[bit] = sel
            for name, sel in access.range_map.items():
                bit = bits.bits.get((access.table, name))
                if bit is not None:
                    is_rng[bit] = True
                    rng_sel[bit] = sel
            ids = key_ids[rows_s]
            eq_hit = is_eq[ids]
            factor = np.where(
                eq_hit,
                eq_sel[ids],
                np.where(is_rng[ids], rng_sel[ids], 1.0),
            )
            alive = np.ones(len(rows_s), dtype=bool)
            total = np.ones(len(rows_s), dtype=np.float64)
            for j in range(ids.shape[1]):
                total = total * np.where(alive, factor[:, j], 1.0)
                alive = alive & eq_hit[:, j]
            prefix[rows_s, a] = total

    count = arena.query_count
    sorted_groups = np.zeros((len(structures), count), dtype=bool)
    order_free = np.zeros((len(structures), count), dtype=bool)
    rows_by_table: dict[int, list[int]] = {}
    for s, tid in enumerate(struct_table.tolist()):
        rows_by_table.setdefault(tid, []).append(s)
    structs_of = {
        tid: np.array(rows, dtype=np.intp) for tid, rows in rows_by_table.items()
    }
    for (tid, group_by), qs in group_queries.items():
        rows_s = structs_of.get(tid)
        if rows_s is None:
            continue
        width = len(group_by)
        group_set = set(group_by)
        hits = np.fromiter(
            (
                len(sort_keys[s]) >= width
                and set(sort_keys[s][:width]) == group_set
                for s in rows_s
            ),
            dtype=bool,
            count=len(rows_s),
        )
        if hits.any():
            sorted_groups[np.ix_(rows_s[hits], qs)] = True
    for (tid, order_by), qs in order_queries.items():
        rows_s = structs_of.get(tid)
        if rows_s is None:
            continue
        width = len(order_by)
        hits = np.fromiter(
            (sort_keys[s][:width] == order_by for s in rows_s),
            dtype=bool,
            count=len(rows_s),
        )
        if hits.any():
            order_free[np.ix_(rows_s[hits], qs)] = True

    return _oracle_bound(
        kernel,
        arena,
        structures,
        struct_table,
        write_mask=struct_mask,
        fold_keys=[(s.table, s.columns, s.sort_key) for s in structures],
        scan_valid=scan_valid,
        prefix=prefix,
        sorted_groups=sorted_groups,
        order_free=order_free,
    )


def _oracle_rowstore_bind(kernel, arena, structures, profiles):
    model = kernel.model
    structures = list(structures)
    bits = arena.bits
    accesses = arena.accesses
    profiles = arena.profiles
    acc_table = arena.acc_table

    is_view = np.array(
        [isinstance(s, MaterializedView) for s in structures], dtype=bool
    ).reshape(len(structures))
    struct_table = bits.table_ids_of(structures)
    key_bytes = np.zeros(len(structures), dtype=np.float64)
    acc_mask = arena.acc_mask
    index_mask = np.zeros((len(structures), bits.words), dtype=np.uint64)
    for s, structure in enumerate(structures):
        if is_view[s]:
            continue
        index_mask[s] = bits.mask(structure.table, structure.columns)
        if struct_table[s] >= 0:
            schema_table = model.schema.table(structure.table)
            key_bytes[s] = float(
                sum(
                    schema_table.column(c).type.byte_width
                    for c in structure.columns
                )
            )
    covering = _oracle_covered(acc_mask, index_mask) & ~is_view[:, None]

    seek_valid = np.zeros((len(structures), len(accesses)), dtype=bool)
    seek_sel = np.ones((len(structures), len(accesses)), dtype=np.float64)
    seek_depth = np.zeros((len(structures), len(accesses)), dtype=np.float64)
    eq_maps = [a.eq_map for a in accesses]
    range_maps = [a.range_map for a in accesses]
    acc_by_table: dict[int, list[int]] = {}
    for i, tid in enumerate(acc_table.tolist()):
        acc_by_table.setdefault(tid, []).append(i)
    for s, structure in enumerate(structures):
        if is_view[s]:
            continue
        tid = bits.table_id(structure.table)
        for a in acc_by_table.get(tid, ()):
            eq, rng = eq_maps[a], range_maps[a]
            depth, _used_range = structure.seek_prefix(set(eq), set(rng))
            if depth == 0:
                continue
            selectivity = 1.0
            for name in structure.columns[:depth]:
                selectivity *= eq.get(name, rng.get(name, 1.0))
            seek_valid[s, a] = True
            seek_sel[s, a] = selectivity
            seek_depth[s, a] = float(depth)

    count = arena.query_count
    view_cost = np.full((len(structures), count), np.inf, dtype=np.float64)
    for s, structure in enumerate(structures):
        if not is_view[s]:
            continue
        for q, profile in enumerate(profiles):
            cost = model._view_cost(profile, structure)
            if cost is not None:
                view_cost[s, q] = cost

    struct_write_mask = index_mask.copy()
    for s, structure in enumerate(structures):
        if is_view[s]:
            struct_write_mask[s] = bits.mask(
                structure.table,
                tuple(structure.group_columns) + tuple(structure.measure_columns),
            )
    fold_keys = [
        (s.table, 1, tuple(s.group_columns), tuple(s.measure_columns))
        if is_view[i]
        else (s.table, 0, tuple(s.columns), ())
        for i, s in enumerate(structures)
    ]
    return _oracle_bound(
        kernel,
        arena,
        structures,
        struct_table,
        write_mask=struct_write_mask,
        fold_keys=fold_keys,
        is_view=is_view,
        key_bytes=key_bytes,
        seek_valid=seek_valid,
        seek_sel=seek_sel,
        seek_depth=seek_depth,
        covering=covering,
        view_cost=view_cost,
    )


ORACLES = {"columnar": _oracle_columnar_bind, "rowstore": _oracle_rowstore_bind}

# -- pools ---------------------------------------------------------------------------

#: Hand-written reads on ``fact_00`` for the walks a trace rarely draws:
#: ``attr_00`` carries both an eq and a range predicate (eq wins), the
#: GROUP BY names one column twice; ``attr_01`` is a range between eq
#: columns (a key through it stops there); three eq predicates whose
#: product depends on the multiply order; an ORDER BY with no GROUP BY;
#: an aggregate with no join that a view can answer.
HOSTILE_SQL = (
    "SELECT fact_00.attr_03, SUM(fact_00.m_04) AS agg_0 FROM fact_00 "
    "WHERE fact_00.attr_00 = 3 AND fact_00.attr_00 < 10 AND fact_00.attr_01 > 5 "
    "GROUP BY fact_00.attr_03, fact_00.attr_03",
    "SELECT SUM(fact_00.m_04) AS agg_0 FROM fact_00 WHERE fact_00.attr_00 = 3 "
    "AND fact_00.attr_01 BETWEEN 5 AND 90 AND fact_00.attr_02 = 7 AND fact_00.attr_03 = 9 "
    "AND fact_00.store_id = 3",
    "SELECT fact_00.attr_03 FROM fact_00 WHERE fact_00.attr_00 = 3 "
    "ORDER BY fact_00.attr_03, fact_00.attr_02",
    "SELECT fact_00.attr_03, SUM(fact_00.m_04) AS agg_0 FROM fact_00 "
    "WHERE fact_00.attr_00 = 3 GROUP BY fact_00.attr_03 ORDER BY fact_00.attr_03",
)
FACT_COLUMNS = ("store_id", "attr_00", "attr_01", "attr_02", "attr_03", "m_04")
#: eq · range · (eq never reached) and eq · eq · eq.
RANGE_MID_KEY = ("attr_00", "attr_01", "attr_02")
THREE_EQ_KEY = ("store_id", "attr_00", "attr_03")


def _projection(table, columns, sort_key):
    return Projection(
        table=table, columns=tuple(columns), sort_columns=tuple(map(SortColumn, sort_key))
    )


def _hostile_structures(substrate: str) -> list:
    """Keys that exercise every branch of the walk, a table no query
    touches, and (read-only pools only: weighing them raises) a key column
    and a table the schema lacks."""
    if substrate == "columnar":
        return [
            _projection("fact_00", FACT_COLUMNS, RANGE_MID_KEY),
            _projection("fact_00", FACT_COLUMNS, THREE_EQ_KEY),
            _projection("fact_00", FACT_COLUMNS, ("attr_03", "attr_03")),
            _projection("fact_00", FACT_COLUMNS, ("attr_03", "attr_02")),
            _projection("fact_00", FACT_COLUMNS, ()),
            _projection("legacy_001", ("lg001_c00", "lg001_c01"), ("lg001_c01",)),
            _projection("fact_00", FACT_COLUMNS + ("ghost",), ("attr_00", "ghost", "attr_02")),
            _projection("fact_00", FACT_COLUMNS + ("ghost",), ("ghost", "attr_00")),
            _projection("no_such_table", ("x", "y"), ("x",)),
        ]
    return [
        Index("fact_00", RANGE_MID_KEY),
        Index("fact_00", THREE_EQ_KEY),
        Index("fact_00", ("attr_01", "attr_00")),
        Index("fact_00", ("m_04",)),
        MaterializedView("fact_00", ("attr_03", "attr_00", "attr_01"), ("m_04",)),
        MaterializedView("fact_00", ("attr_03", "attr_00"), ("m_04",)),
        Index("legacy_001", ("lg001_c01",)),
        MaterializedView("legacy_001", ("lg001_c00",), ("lg001_c02",)),
        Index("no_such_table", ("x",)),
        MaterializedView("no_such_table", ("x",), ("y",)),
    ]


@lru_cache(maxsize=None)
def _pool(substrate: str, mix: str):
    """``(kernel, oracle kernel, profiles, structures)`` — 16 profiles
    and 18-odd structures, so subsets are two small bit masks."""
    schema, sqls = star_pool(mix, limit=12)
    sqls += HOSTILE_SQL
    if substrate == "columnar":
        model = ColumnarCostModel(schema)
        nominal = ColumnarNominalDesigner(ColumnarAdapter(model))
    else:
        model = RowstoreCostModel(schema)
        nominal = RowstoreNominalDesigner(RowstoreAdapter(model))
    profiles = [model.profile(sql) for sql in sqls]
    candidates = nominal.generate_candidates(Workload.from_sql(sqls))
    if substrate == "rowstore":  # views beside indexes, whatever the order
        views = [c for c in candidates if isinstance(c, MaterializedView)]
        candidates = [c for c in candidates if not isinstance(c, MaterializedView)][:6] + views[:3]
    structures = candidates[:9] + _hostile_structures(substrate)
    if mix == "htap":
        # A write arena weighs every bound structure, and the models
        # cannot weigh what the schema cannot resolve.
        known = set(schema.tables)
        structures = [
            s for s in structures if s.table in known and "ghost" not in getattr(s, "columns", ())
        ]
        assert any(p.is_write for p in profiles) and not all(p.is_write for p in profiles)
    kernel = kernel_for(model)

    # The parent weighed every structure on every bind, read-only arenas
    # included (where the weight is never read), and the models raise on
    # a structure the schema cannot resolve: the oracle binds through a
    # copy of the model that weighs those at 0.0.
    lenient = copy.copy(model)

    def maintenance_weight(structure):
        try:
            return model.maintenance_weight(structure)
        except SchemaError:
            return 0.0

    lenient.maintenance_weight = maintenance_weight
    return kernel, type(kernel)(lenient), profiles, structures


def _subset(items, mask: int) -> list:
    return [item for i, item in enumerate(items) if mask & (1 << i)]


def _same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _assert_batches_identical(got, want) -> None:
    """Every bound array and every cost of ``got`` equals the oracle's."""
    read_only = not want.any_write
    for field in fields(want):
        expected = getattr(want, field.name)
        actual = getattr(got, field.name)
        if not isinstance(expected, np.ndarray):
            assert actual == expected, field.name
            continue
        if field.name == "covering":
            same_table = want.struct_table[:, None] == want.acc_table[None, :]
            assert _same_array(actual, expected & same_table), field.name
        elif read_only and field.name in ("write_weight", "write_rank"):
            assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), field.name
        else:
            assert _same_array(actual, expected), field.name
    assert _same_array(got.design_costs(), want.design_costs())
    assert _same_array(got.base_costs(), want.base_costs())
    assert _same_array(got.candidate_costs(), want.candidate_costs())
    for mask, expected in zip(got.candidate_frame(), want.candidate_frame()):
        assert _same_array(mask, expected)


# -- the properties ------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    substrate=st.sampled_from(SUBSTRATES),
    mix=st.sampled_from(MIXES),
    s_mask=st.integers(0, (1 << 19) - 1),
    q_mask=st.integers(0, (1 << 16) - 1),
    taken=st.lists(st.integers(0, 15), max_size=12),
    m_mask=st.integers(0, (1 << 19) - 1),
)
def test_bind_equals_parent_bind(substrate, mix, s_mask, q_mask, taken, m_mask):
    """Any structure subset × query subset (either may be empty) binds to
    the parent's arrays and prices to the parent's floats."""
    kernel, oracle_kernel, profiles, structures = _pool(substrate, mix)
    chosen = _subset(profiles, q_mask)
    bound = _subset(structures, s_mask)
    arena = kernel.compile_queries(chosen)
    got = kernel.bind(arena, bound)
    want = ORACLES[substrate](oracle_kernel, arena, bound, chosen)
    _assert_batches_identical(got, want)

    members = [i for i in range(len(bound)) if m_mask & (1 << i)]
    assert _same_array(got.design_costs(members), want.design_costs(members))
    if chosen:
        idx = [i % len(chosen) for i in taken]
        assert _same_array(
            got.take(idx).design_costs(members), want.take(idx).design_costs(members)
        )


@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize("mix", MIXES)
def test_whole_pool_and_empty_edges(substrate, mix):
    """The full pool (every hostile key at once), zero structures, zero
    queries, and only structures on tables no chosen query touches."""
    kernel, oracle_kernel, profiles, structures = _pool(substrate, mix)
    off_table = [s for s in structures if s.table.startswith(("legacy", "no_such"))]
    assert off_table
    for chosen, bound in (
        (profiles, structures),
        (profiles, []),
        ([], structures),
        ([], []),
        (profiles, off_table),
    ):
        arena = kernel.compile_queries(chosen)
        got = kernel.bind(arena, bound)
        want = ORACLES[substrate](oracle_kernel, arena, bound, chosen)
        _assert_batches_identical(got, want)
    assert not got.candidate_frame()[0].any()  # off-table: nothing to price


def _walk_pair(substrate: str, key):
    """The folded selectivity of the hostile structure keyed ``key``
    against each hostile query's anchor, and those anchors."""
    kernel, _oracle_kernel, profiles, structures = _pool(substrate, "r1")
    hostile = profiles[-len(HOSTILE_SQL):]
    (structure,) = [
        s
        for s in structures
        if not isinstance(s, MaterializedView)
        and (s.sort_key if substrate == "columnar" else s.columns) == key
    ]
    batch = kernel.bind(kernel.compile_queries(hostile), [structure])
    folded = batch.prefix if substrate == "columnar" else batch.seek_sel
    return folded[0, batch.anchor_acc], [p.anchor for p in hostile]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_fold_keeps_the_scalar_multiply_order(substrate):
    """Three eq factors whose product depends on the association order
    come out as ``(f0 * f1) * f2`` — the scalar walk's order."""
    folded, anchors = _walk_pair(substrate, THREE_EQ_KEY)
    eq = anchors[1].eq_map
    f0, f1, f2 = (eq[name] for name in THREE_EQ_KEY)
    assert (f0 * f1) * f2 != f0 * (f1 * f2)  # the guard is real
    assert folded[1] == (f0 * f1) * f2


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_range_hit_ends_the_walk(substrate):
    """eq, range, eq: the range factor is consumed and the walk stops —
    the third column's eq factor must not be multiplied in; a column
    with both predicates contributes its eq factor and keeps walking."""
    folded, anchors = _walk_pair(substrate, RANGE_MID_KEY)
    both, mid = anchors[0], anchors[1]
    assert "attr_00" in both.eq_map and "attr_00" in both.range_map
    assert both.eq_map["attr_00"] != both.range_map["attr_00"]
    assert folded[0] == both.eq_map["attr_00"] * both.range_map["attr_01"]
    assert "attr_02" in mid.eq_map and mid.eq_map["attr_02"] != 1.0
    assert folded[1] == mid.eq_map["attr_00"] * mid.range_map["attr_01"]


def test_duplicate_group_by_columns_keep_their_width():
    """``GROUP BY a, a`` streams only from a sort key whose first *two*
    columns have the set ``{a}`` (width = ``len(group_by)``)."""
    kernel, _oracle_kernel, profiles, structures = _pool("columnar", "r1")
    duplicated = profiles[-len(HOSTILE_SQL)]
    assert duplicated.group_by == ("attr_03", "attr_03")
    keys = {s.sort_key: i for i, s in enumerate(structures) if s.table == "fact_00"}
    batch = kernel.bind(kernel.compile_queries([duplicated]), structures)
    assert batch.sorted_groups[keys[("attr_03", "attr_03")], 0]
    assert not batch.sorted_groups[keys[("attr_03", "attr_02")], 0]


# -- shape guards --------------------------------------------------------------------


def _wide_pool():
    """A 300-access read-only arena over a schema with many more column
    bits than any one table has columns, and 40 candidates."""
    schema, roles = build_star_schema(
        fact_tables=2,
        fact_rows=200_000,
        fact_attributes=10,
        legacy_tables=40,
        legacy_columns=8,
        seed=7,
    )
    profile = r1_profile(queries_per_day=12, topic_count=4, templates_per_topic=4)
    trace = TraceGenerator(schema, roles, profile, seed=9).generate(days=120)
    model = ColumnarCostModel(schema)
    kernel = kernel_for(model)
    sqls = list(dict.fromkeys(q.sql for q in trace))
    arena = None
    for count in range(300, len(sqls) + 1):
        arena = kernel.compile_queries([model.profile(sql) for sql in sqls[:count]])
        if len(arena.accesses) >= 300:
            break
    assert arena is not None and len(arena.accesses) >= 300
    nominal = ColumnarNominalDesigner(ColumnarAdapter(model))
    candidates = nominal.generate_candidates(Workload.from_sql(arena.sqls))[:40]
    return schema, kernel, arena, candidates


def test_predicate_tables_are_table_local(monkeypatch):
    """No predicate table, and no gather a bind makes into one, is wider
    than ``max(columns per table) + 1`` — schema-wide (``n_bits + 1``)
    tables cost +18 % peak RSS on ``design-r1-columnar``."""
    schema, kernel, arena, candidates = _wide_pool()
    widest = max(len(table.column_names) for table in schema.tables.values())
    assert len(arena.bits.bits) > 8 * widest
    tables = list(schema.tables.values())
    for tid, side in arena.predicates.items():
        rows = len(tables[tid].column_names) + 1
        for table in (side.factor, side.is_eq, side.seekable):
            assert table.shape == (rows, side.acc.shape[0])
    assert sum(side.acc.shape[0] for side in arena.predicates.values()) == len(arena.accesses)

    fold = kernel_module._prefix_fold
    folds = []

    def checked_fold(key_ids, side):
        assert key_ids.size == 0 or key_ids.max() < side.factor.shape[0] <= widest + 1
        folds.append(key_ids.shape)
        return fold(key_ids, side)

    monkeypatch.setattr(kernel_module, "_prefix_fold", checked_fold)
    kernel.bind(arena, candidates)
    assert folds


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_read_only_bind_does_no_write_side_work(substrate, monkeypatch):
    """A read-only arena never weighs a structure; a write arena does."""
    kernel, _oracle_kernel, profiles, structures = _pool(substrate, "r1")
    weighed = []
    weight = kernel.model.maintenance_weight
    monkeypatch.setattr(
        kernel.model, "maintenance_weight", lambda s: weighed.append(s) or weight(s)
    )
    batch = kernel.bind(kernel.compile_queries(profiles), structures)
    assert not weighed and not batch.any_write and not batch.write_touch.any()

    kernel, _oracle_kernel, profiles, structures = _pool(substrate, "htap")
    monkeypatch.setattr(
        kernel.model, "maintenance_weight", lambda s: weighed.append(s) or weight(s)
    )
    kernel.bind(kernel.compile_queries(profiles), structures)
    assert weighed == structures
