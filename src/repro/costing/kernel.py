"""Vectorized batch costing: structure-of-arrays what-if evaluation.

The scalar cost models (``engine/optimizer.py``, ``rowstore/optimizer.py``)
price one (query, design) pair per Python call.  Robust-design search
needs *matrices* of those pairs — every candidate structure against every
workload query, every neighborhood design against a shared query pool —
so this module compiles :class:`QueryProfile`s and candidate structures
into numpy structure-of-arrays form once and prices whole matrices with a
handful of vector operations.

Compiled layout:

* every ``(table, column)`` of the schema gets a global bit; column sets
  (query needs, projection columns, index keys, view groups) become
  fixed-width ``uint64`` bit arrays, so a coverage check is
  ``need & ~have == 0`` per mask word — and a table's bits are
  contiguous, so a same-table check reads only that table's words,
* per-query anchor row counts, selectivities, predicate counts, and byte
  widths are ``float64`` arrays,
* everything that depends on a *(structure, query)* pair through Python
  semantics — sort-key-prefix selectivity walks, B-tree seek depths,
  GROUP BY/ORDER BY sort-order matches — is folded into precomputed
  per-pair factor matrices.  The query half of each walk is compiled
  once: per table, its accesses' predicates as factor / flag tables
  indexed by table-local column id (:class:`_TablePredicates`), the
  GROUP BY / ORDER BY combinations, the queries a view could answer.

Compilation is split into two halves so workloads compile **once**:

* ``compile_queries`` (per substrate, e.g.
  :meth:`ColumnarKernel.compile_queries`) turns a profile batch into a
  *workload arena* (:class:`ColumnarArena` / :class:`RowstoreArena`) —
  every array that depends only on the queries and the schema.  Arenas
  are immutable and design-independent, so the costing service caches
  them by workload fingerprint and reuses them across CliffGuard
  iterations, greedy sweeps, and replay windows;
* ``bind`` (e.g. :meth:`ColumnarKernel.bind`) attaches a structure set
  to an arena and does per-design work only: the structures' masks and
  key column ids, then per table one coverage block and one
  :func:`_prefix_fold` over (its structures × its accesses), a dict
  lookup per sort-key prefix, a scalar rollup per (view, answerable
  query) — and the write side only if the arena holds a write.
  :meth:`_Kernel.compile` is exactly
  ``bind(compile_queries(profiles), structures)`` and remains the
  one-shot entry point.

One skeleton, two substrates: the reduce / delta / take / candidate
algebra is written once, on :class:`_Batch` (with :class:`_Arena` and
:class:`_Kernel` holding the shared query-side fields and the shared
compile prologue / bind epilogue).  A substrate supplies only its array
declarations and its access-cost arithmetic:

* ``consts`` — the scalar model's module, whose cost constants are read
  at call time;
* ``per_query`` / ``per_pair`` — which of its arrays run along the query
  axis (``(Q, ...)`` and ``(S, Q)``); :meth:`_Batch.take` slices exactly
  these;
* ``base_anchor`` / ``base_dim`` — the empty-design anchor-path and
  per-access dimension costs;
* ``_anchor_matrix(s, q)`` / ``_dim_matrix(s, a)`` — the anchor and
  dimension access costs of the (P,) pairs of structure rows ``s`` and
  queries ``q`` / accesses ``a``, ``inf`` where a structure cannot
  serve;
* ``fold_key`` (on the kernel) — the sort key of a structure in the
  scalar maintenance fold.

A write pays the best anchor path to find its rows (the ``best`` of a
design's read), on both substrates.

**Designs are reductions.**  The hooks are called once per bound
structure, on its own table's queries and accesses only, into
:class:`StructureColumns` (``_Batch.structure_columns``): per structure
an anchor cost per query and a dimension cost per access, ``inf``
elsewhere, plus its write-touch row and maintenance weight.  A design's
costs are then ``OVERHEAD + min(base_anchor, min_s anchor) + Σ_dims
min(base_dim, min_s dim)`` and the write fold; a candidate matrix is the
same columns one structure at a time.  Because rows are independent, the
costing service keeps each structure's columns once per compiled arena
and gathers them for every later design (``columns=`` of
:meth:`_Batch.design_costs` / :meth:`_Batch.candidate_costs`).

A bound batch slices along the query axis (:meth:`_Batch.take`: every
op is per query), so a batch over a subset of an arena's queries — the
costing service's row-mapped views — prices exactly like a compile of
those queries.

Bound batches additionally carry a **delta re-costing** primitive
(:meth:`_Batch.delta_design_costs`): when a design changes by a
single structure, only the queries whose access paths that structure can
touch (its table is the query's anchor or one of its dimension tables)
are re-priced; every other query keeps its previous cost, which is
bit-identical by construction — an off-table structure contributes only
``inf``/invalid cells to the min-reductions.  No service path calls it
(it saved under 0.5 % of priced pairs on the ledger's traffic); it
stays because ``benchmarks/e2e/spans.py`` resolves it by name.

Bit-identity contract (tolerance = 0): the kernels replicate the scalar
models' floating-point operations *in the same order*, element-wise, so
every cost is the exact float ``query_cost`` would have produced.  Two
rules make that possible:

* any term whose value involves ``math.log2`` (sort costs, B-tree seek
  levels, view rollup sorts) is computed scalarly with ``math.log2`` at
  compile time — ``np.log2`` is not guaranteed to round identically —
  and folded into a per-query / per-access / per-pair constant, and
* masked additions use ``np.where(cond, term, 0.0)``; adding ``+0.0``
  is bitwise-preserving because every partial cost here is positive.

The scalar ``query_cost`` remains the reference implementation; the
property tests in ``tests/test_costing_kernel.py`` assert exact equality
on both substrates.  Models the dispatcher does not recognize
(stubs, subclasses with overridden constants) simply get no kernel and
stay on the scalar path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

import repro.engine.optimizer as _col
import repro.rowstore.optimizer as _row
from repro.costing.profile import QueryProfile, TableAccess
from repro.rowstore.matview import MaterializedView

__all__ = [
    "ColumnarArena",
    "ColumnarKernel",
    "RowstoreArena",
    "RowstoreKernel",
    "kernel_for",
]


# -- bit namespace ----------------------------------------------------------------


class _ColumnBits:
    """Deterministic (table, column) -> bit assignment over one schema."""

    def __init__(self, schema):
        self.tables: list[str] = list(schema.tables)
        self.table_ids: dict[str, int] = {name: i for i, name in enumerate(self.tables)}
        self.bits: dict[tuple[str, str], int] = {}
        #: Per table id ``(first bit, column count)``: a table's bits are
        #: contiguous, so ``bit - first`` is a table-local column id.
        self.spans: list[tuple[int, int]] = []
        #: table -> column -> bit (``bits`` by table, for per-item loops).
        self.table_bits: dict[str, dict[str, int]] = {}
        for name, table in schema.tables.items():
            first = len(self.bits)
            for column in table.column_names:
                self.bits[(name, column)] = len(self.bits)
            self.spans.append((first, len(self.bits) - first))
            self.table_bits[name] = {
                column: first + j for j, column in enumerate(table.column_names)
            }
        self.words = max(1, (len(self.bits) + 63) // 64)

    def table_id(self, name: str) -> int:
        """Table id, or -1 for tables the schema does not know."""
        return self.table_ids.get(name, -1)

    def table_ids_of(self, items) -> np.ndarray:
        """(N,) int64 table id of each item's ``.table``."""
        return np.array(
            [self.table_id(item.table) for item in items], dtype=np.int64
        ).reshape(len(items))

    def local_ids(self, tid: int, keys) -> np.ndarray:
        """(N, width) table-local column ids of N column-name tuples on
        table ``tid``; padding and unknown columns get the table's column
        count — the "unknown column" slot of :class:`_TablePredicates`."""
        table = self.tables[tid]
        first, count = self.spans[tid]
        out = np.full(
            (len(keys), max((len(key) for key in keys), default=0)), count, dtype=np.intp
        )
        for i, key in enumerate(keys):
            for j, name in enumerate(key):
                bit = self.bits.get((table, name))
                if bit is not None:
                    out[i, j] = bit - first
        return out

    def word_span(self, tid: int) -> slice:
        """The mask words holding table ``tid``'s column bits."""
        first, count = self.spans[tid]
        return slice(first >> 6, ((first + max(count, 1) - 1) >> 6) + 1)

    def mask(self, table: str, columns) -> np.ndarray:
        """uint64 bit-array for a column set (unknown columns are skipped:
        they can never appear in a query's needs, so they cannot change a
        coverage check)."""
        mask = np.zeros(self.words, dtype=np.uint64)
        for column in columns:
            bit = self.bits.get((table, column))
            if bit is None:
                continue
            mask[bit >> 6] |= np.uint64(1) << np.uint64(bit & 63)
        return mask

    def masks(self, items) -> np.ndarray:
        """(N, words) uint64 bit-arrays for ``[(table, columns), ...]`` —
        one flattened scatter instead of N per-item array builds."""
        out = np.zeros((len(items), self.words), dtype=np.uint64)
        rows: list[int] = []
        bits: list[int] = []
        for i, (table, columns) in enumerate(items):
            table_bits = self.table_bits.get(table, {})
            found = [table_bits[column] for column in columns if column in table_bits]
            rows.extend([i] * len(found))
            bits.extend(found)
        if rows:
            at = np.array(bits, dtype=np.uint64)
            np.bitwise_or.at(
                out,
                (np.array(rows, dtype=np.intp), (at >> np.uint64(6)).astype(np.intp)),
                np.left_shift(np.uint64(1), at & np.uint64(63)),
            )
        return out


def _covered(need: np.ndarray, have: np.ndarray) -> np.ndarray:
    """(S, A) bool: ``need[a] ⊆ have[s]``, one mask word at a time.  Callers
    that know both sides live on one table pass only its word span."""
    covered = np.ones((have.shape[0], need.shape[0]), dtype=bool)
    for w in range(need.shape[1]):
        covered &= (need[None, :, w] & ~have[:, None, w]) == 0
    return covered


def _rows_by_table(struct_table: np.ndarray) -> dict[int, np.ndarray]:
    """table id -> the structure rows on it (tables the schema lacks dropped)."""
    rows: dict[int, list[int]] = {}
    for s, tid in enumerate(struct_table.tolist()):
        if tid >= 0:
            rows.setdefault(tid, []).append(s)
    return {tid: np.array(members, dtype=np.intp) for tid, members in rows.items()}


# -- shared access-side compilation -----------------------------------------------


def _compile_accesses(profiles: list[QueryProfile]):
    """Deduplicated anchor + dimension accesses of one profile batch ->
    ``(accesses, anchor_acc, dim_pad)``: the interned accesses, the (Q,)
    anchor index into them and the (Q, Dmax) dimension indices, -1 padded."""
    index: dict[TableAccess, int] = {}
    accesses: list[TableAccess] = []

    def intern(access: TableAccess) -> int:
        slot = index.get(access)
        if slot is None:
            slot = len(accesses)
            index[access] = slot
            accesses.append(access)
        return slot

    anchor_acc = np.array(
        [intern(p.anchor) for p in profiles], dtype=np.intp
    ).reshape(len(profiles))
    dim_lists = [[intern(d) for d in p.dimensions] for p in profiles]
    dmax = max((len(d) for d in dim_lists), default=0)
    dim_pad = np.full((len(profiles), dmax), -1, dtype=np.intp)
    for q, dims in enumerate(dim_lists):
        for j, a in enumerate(dims):
            dim_pad[q, j] = a
    return accesses, anchor_acc, dim_pad


def _dim_sum_vector(dim_pad: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Left-to-right padded accumulation of per-access ``term`` -> (Q,).

    Mirrors the scalar ``sum(dimension_cost(d) for d in dims)`` exactly:
    Python's ``sum`` folds left starting at 0, and adding a masked 0.0
    preserves every (positive) partial sum bit-for-bit.
    """
    total = np.zeros(dim_pad.shape[0], dtype=np.float64)
    for j in range(dim_pad.shape[1]):
        col = dim_pad[:, j]
        total = total + np.where(col >= 0, term[np.maximum(col, 0)], 0.0)
    return total


def _write_touch_mask(arena, struct_table, struct_write_mask) -> np.ndarray:
    """(S, Q) bool: the write in query ``q`` forces maintenance of ``s``.

    Mirrors the scalar ``write_touches``: the structure lives on the
    written table, and either the statement rewrites whole rows
    (insert/delete, ``always_touch``) or the update's written-column set
    intersects the structure's column set.  Only same-table (structure,
    write) pairs can touch, so each table's block is computed over its
    own write queries and mask words.
    """
    touch = np.zeros((struct_table.shape[0], arena.query_count), dtype=bool)
    writes = np.flatnonzero(arena.is_write)
    write_tid = arena.acc_table[arena.anchor_acc[writes]]
    for tid, rows in _rows_by_table(struct_table).items():
        qs = writes[write_tid == tid]
        span = arena.bits.word_span(tid)
        disjoint = _covered(arena.written_mask[qs, span], ~struct_write_mask[rows, span])
        touch[np.ix_(rows, qs)] = arena.always_touch[qs][None, :] | ~disjoint
    return touch


def _write_fold_order(keys) -> np.ndarray:
    """(S,) rank of each structure in the scalar maintenance fold.

    The scalar ``_write_cost`` iterates a table's structures in the
    design container's canonical *sorted* order (``for_table`` /
    ``indices_for`` + ``views_for``), not bind order.  Float addition is
    not associative, so the kernel must add the same maintenance terms
    in the same sequence to stay bit-identical.  ``keys`` is one sort
    key per structure whose per-table restriction reproduces the
    container's ordering; cross-table interleaving is harmless because
    non-touching members contribute an exact ``+0.0``.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.arange(len(keys), dtype=np.intp)
    return rank


def _compile_write_side(profiles, bits: "_ColumnBits", model) -> dict:
    """Query-side write arrays (by arena field name) shared by both
    substrate compiles.

    ``base_write`` is folded scalarly through the model's own
    ``base_write_cost`` so the stored float is the exact one the scalar
    reference produces.
    """
    count = len(profiles)
    is_write = np.zeros(count, dtype=bool)
    is_insert = np.zeros(count, dtype=bool)
    always_touch = np.zeros(count, dtype=bool)
    affected = np.zeros(count, dtype=np.float64)
    base_write = np.zeros(count, dtype=np.float64)
    written_mask = np.zeros((count, bits.words), dtype=np.uint64)
    for q, profile in enumerate(profiles):
        if not profile.is_write:
            continue
        is_write[q] = True
        is_insert[q] = profile.statement_kind == "insert"
        always_touch[q] = profile.statement_kind != "update"
        affected[q] = profile.affected_rows
        base_write[q] = model.base_write_cost(profile)
        written_mask[q] = bits.mask(profile.anchor.table, profile.written_columns)
    return dict(
        is_write=is_write,
        is_insert=is_insert,
        always_touch=always_touch,
        affected=affected,
        base_write=base_write,
        written_mask=written_mask,
    )


class _TablePredicates(NamedTuple):
    """One table's interned accesses and their predicates, by table-local
    column id (row ``columns(table)`` = "unknown column": no predicate)."""

    acc: np.ndarray  # (A_t,) the accesses on this table
    factor: np.ndarray  # (C+1, A_t) eq selectivity, else range selectivity, else 1.0
    is_eq: np.ndarray  # (C+1, A_t) bool: the column carries an eq predicate
    seekable: np.ndarray  # (C+1, A_t) bool: ... an eq or a range predicate


def _access_side(accesses, bits: _ColumnBits, consts) -> dict:
    """Per-access arrays (by arena field name) the two join-capable
    substrates compile the same way."""
    acc_build_add = np.zeros(len(accesses), dtype=np.float64)
    by_table: dict[int, list[int]] = {}
    for i, access in enumerate(accesses):
        rows = max(access.row_count * access.total_selectivity, 1.0)
        acc_build_add[i] = rows * consts.JOIN_BUILD_COST_MS
        by_table.setdefault(bits.table_id(access.table), []).append(i)
    predicates: dict[int, _TablePredicates] = {}
    for tid, members in by_table.items():
        first, count = bits.spans[tid]
        factor = np.ones((count + 1, len(members)), dtype=np.float64)
        is_eq = np.zeros(factor.shape, dtype=bool)
        seekable = np.zeros(factor.shape, dtype=bool)
        for k, i in enumerate(members):
            access = accesses[i]
            # Ranges first: a column with both predicates keeps its eq factor.
            for pairs, eq in ((access.range_selectivity, False), (access.eq_selectivity, True)):
                for name, selectivity in pairs:
                    bit = bits.bits.get((access.table, name))
                    if bit is not None:
                        factor[bit - first, k] = selectivity
                        seekable[bit - first, k] = True
                        is_eq[bit - first, k] |= eq
        predicates[tid] = _TablePredicates(
            np.array(members, dtype=np.intp), factor, is_eq, seekable
        )
    return dict(
        accesses=accesses,
        acc_rows=np.array([float(a.row_count) for a in accesses], dtype=np.float64),
        acc_pred=np.array([float(a.predicate_count) for a in accesses], dtype=np.float64),
        acc_build_add=acc_build_add,
        acc_mask=bits.masks([(a.table, a.needed_columns) for a in accesses]),
        predicates=predicates,
    )


def _prefix_fold(key_ids: np.ndarray, side: _TablePredicates):
    """Walk each structure's key against each access of its table ->
    ``(selectivity, depth)``, both (S_t, A_t) float64.

    The scalar walks (``_scan_cost``, ``seek_prefix``) consume
    key columns left to right while each carries an eq predicate, plus
    the first non-eq one if it carries a range.  Position ``j``
    multiplies its factor in only while the walk is alive — skipped
    positions multiply by exactly 1.0, a bit-exact identity — so every
    pair sees the scalar model's multiply order.  ``key_ids`` is the
    (S_t, W) table-local column id per key position.
    """
    shape = (key_ids.shape[0], side.acc.shape[0])
    total = np.ones(shape, dtype=np.float64)
    depth = np.zeros(shape, dtype=np.float64)
    alive = np.ones(shape, dtype=bool)
    for column in key_ids.T:
        total = total * np.where(alive, side.factor[column], 1.0)
        depth += alive & side.seekable[column]
        alive &= side.is_eq[column]
    return total, depth


def _table_blocks(arena, struct_table: np.ndarray, struct_mask: np.ndarray, keys):
    """Per table with bound structures and arena accesses, yield
    ``(block, covered, selectivity, depth)``: the ``np.ix_`` index of
    its (structures × accesses) block, :func:`_covered` over the table's
    own mask words and the :func:`_prefix_fold` of the structures'
    ``keys`` (column-name tuples, by structure row).  No other
    (structure, access) pair can be served."""
    for tid, rows in _rows_by_table(struct_table).items():
        side = arena.predicates.get(tid)
        if side is None:
            continue
        span = arena.bits.word_span(tid)
        covered = _covered(arena.acc_mask[side.acc, span], struct_mask[rows, span])
        key_ids = arena.bits.local_ids(tid, [keys[s] for s in rows])
        yield (np.ix_(rows, side.acc), covered, *_prefix_fold(key_ids, side))


# -- the skeleton: one arena / batch / kernel base ----------------------------------


class StructureColumns(NamedTuple):
    """Per-structure quantities a design's costs reduce over, one row per
    structure: a design costs ``min`` over its rows plus the write fold
    (:meth:`_Batch.design_costs`).  Rows are independent, so the rows of
    any structures over any queries can be gathered from wherever they
    were priced."""

    table: np.ndarray  # (S,) table id
    anchor: np.ndarray  # (S, Q) anchor-path cost, inf off the structure's table
    dim: np.ndarray  # (S, A) dimension-access cost, inf likewise
    # The write side, read only where the queries hold a write (else None):
    touch: np.ndarray | None  # (S, Q) bool: write q maintains structure s
    weight: np.ndarray | None  # (S,) per-affected-row maintenance weight
    rank: np.ndarray | None  # (S,) scalar maintenance fold order (see _write_fold_order)


@dataclass
class _Arena:
    """Query-side compiled state every substrate shares.

    Everything in an arena depends only on the profiles and the schema —
    never on any structure — so one arena serves every design bound
    against it (``bind``).  Arenas are immutable once built.
    """

    sqls: list[str]
    bits: _ColumnBits
    acc_table: np.ndarray  # (A,) table id per interned access
    anchor_acc: np.ndarray  # (Q,) index into the accesses
    dim_pad: np.ndarray  # (Q, Dmax) index into the accesses, -1 padded
    # write-cost path (query-side; the touch matrix is bound per design)
    is_write: np.ndarray
    is_insert: np.ndarray
    always_touch: np.ndarray
    affected: np.ndarray
    base_write: np.ndarray
    written_mask: np.ndarray

    @property
    def query_count(self) -> int:
        return len(self.sqls)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """sql -> its (first) query row."""
        rows: dict[str, int] = {}
        for q, sql in enumerate(self.sqls):
            rows.setdefault(sql, q)
        return rows

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the compiled arrays."""
        return sum(array.nbytes for array in self.arrays())

    def arrays(self) -> list[np.ndarray]:
        """The compiled arrays."""
        arrays = [value for value in vars(self).values() if isinstance(value, np.ndarray)]
        for side in getattr(self, "predicates", {}).values():
            arrays.extend(side)
        return arrays


@dataclass
class _Batch:
    """A bound (structures × queries) batch: the fields every substrate
    shares and the whole evaluation algebra.

    Subclasses add their own arrays and the access-cost hooks listed in
    the module docstring; every float operation of a substrate's cost
    model lives in those hooks, in the scalar model's order.
    """

    sqls: list[str]
    struct_table: np.ndarray  # (S,) table id per structure
    acc_table: np.ndarray  # (A,) table id per interned access
    anchor_acc: np.ndarray  # (Q,)
    dim_pad: np.ndarray  # (Q, Dmax)
    # write-cost path (all zeros / False for pure-read workloads)
    is_write: np.ndarray  # (Q,) bool
    is_insert: np.ndarray  # (Q,) bool
    affected: np.ndarray  # (Q,) estimated affected rows
    base_write: np.ndarray  # (Q,) folded base write cost
    write_weight: np.ndarray  # (S,) per-affected-row maintenance weight
    write_touch: np.ndarray  # (S, Q) bool: write q maintains structure s
    write_rank: np.ndarray  # (S,) scalar maintenance fold order (see _write_fold_order)

    #: Fields whose arrays run along the query axis — ``(Q, ...)`` and
    #: ``(S, Q)``.  ``take`` slices exactly these; substrates extend both.
    per_query = ("anchor_acc", "dim_pad", "is_write", "is_insert", "affected", "base_write")
    per_pair = ("write_touch",)

    @property
    def structure_count(self) -> int:
        return int(self.struct_table.shape[0])

    @property
    def query_count(self) -> int:
        return len(self.sqls)

    @property
    def any_write(self) -> bool:
        return bool(self.is_write.any())

    def take(self, q_indices):
        """A batch restricted to a subset of queries (repeats allowed):
        the affected subset of a delta re-pricing, the tail a cached
        matrix column is missing, the misses of a partly cached design.
        Every op is per-query, so the subset prices bit-identically."""
        idx = np.asarray(q_indices, dtype=np.intp)
        taken = {name: getattr(self, name)[idx] for name in self.per_query}
        taken.update((name, getattr(self, name)[:, idx]) for name in self.per_pair)
        return replace(self, sqls=[self.sqls[i] for i in idx], **taken)

    @cached_property
    def structure_columns(self) -> StructureColumns:
        """This batch's structures as :class:`StructureColumns`.

        Anchor and dimension costs are priced only where the structure
        sits on the query's anchor table / the access's table; every
        other cell is ``inf`` by construction (a structure cannot serve
        another table).  Computed once per batch (a bound batch is
        immutable; ``take`` starts its copy without it)."""
        count = self.structure_count
        anchor_table = self.acc_table[self.anchor_acc]
        anchor = np.full((count, self.query_count), np.inf)
        s, q = np.nonzero(self.struct_table[:, None] == anchor_table[None, :])
        anchor[s, q] = self._anchor_matrix(s, q)
        dim = np.full((count, self.acc_table.shape[0]), np.inf)
        s, a = np.nonzero(self.struct_table[:, None] == self.acc_table[None, :])
        dim[s, a] = self._dim_matrix(s, a)
        return StructureColumns(
            self.struct_table, anchor, dim, self.write_touch, self.write_weight, self.write_rank
        )

    def _related(self, struct_table: np.ndarray) -> np.ndarray:
        """(S', Q) bool over structures on tables ``struct_table``: the
        structure's table is the query's anchor table or one of its
        dimension tables — the only pairs whose cost can differ from
        the empty-design cost."""
        related = struct_table[:, None] == self.acc_table[self.anchor_acc][None, :]
        for j in range(self.dim_pad.shape[1]):
            col = self.dim_pad[:, j]
            tables = self.acc_table[np.maximum(col, 0)]
            related = related | (
                (col >= 0)[None, :] & (struct_table[:, None] == tables[None, :])
            )
        return related

    def _write_costs(
        self, locate: np.ndarray, columns: StructureColumns, fold: np.ndarray
    ) -> np.ndarray:
        """(Q,) write-path costs given the per-query locate cost.

        Replicates the scalar ``_write_cost`` fold exactly: inserts skip
        the locate, then maintenance terms accumulate over the ``fold``
        rows of ``columns`` in order (masked adds of ``+0.0`` are
        bit-preserving for non-touching members, so the interleaved fold
        matches the scalar per-table restriction of the design order, and
        a member that touches no query here is skipped outright).
        """
        cost = (
            self.consts.QUERY_OVERHEAD_MS + np.where(self.is_insert, 0.0, locate)
        ) + self.base_write
        touch = columns.touch
        for m in fold[touch[fold].any(axis=1)].tolist():
            cost = cost + np.where(touch[m], self.affected * columns.weight[m], 0.0)
        return cost

    def design_costs(self, members=None, columns: StructureColumns | None = None) -> np.ndarray:
        """(Q,) costs under the design made of ``members`` (row indices
        into ``columns``; None = every row).

        ``columns`` defaults to this batch's own :attr:`structure_columns`;
        the costing service passes a design's columns gathered from its
        store instead, over this batch's queries.  Either way a design's
        cost is a ``min`` over its members' columns plus the write fold.
        """
        columns = self.structure_columns if columns is None else columns
        # Every row (the service's gathered designs) reads in place.
        rows = slice(None) if members is None else np.asarray(members, dtype=np.intp)
        members = np.arange(columns.table.shape[0], dtype=np.intp)[rows]
        best = self.base_anchor
        dim_best = self.base_dim
        if members.size:
            best = np.minimum(best, columns.anchor[rows].min(axis=0))
            dim_best = np.minimum(dim_best, columns.dim[rows].min(axis=0))
        read = (self.consts.QUERY_OVERHEAD_MS + best) + _dim_sum_vector(
            self.dim_pad, dim_best + self.acc_build_add
        )
        if not self.any_write:
            return read
        fold = members[np.argsort(columns.rank[members], kind="stable")]
        return np.where(self.is_write, self._write_costs(best, columns, fold), read)

    def base_costs(self) -> np.ndarray:
        """(Q,) empty-design costs: ``design_costs`` over no members."""
        return _Batch.design_costs(self, ())

    def affected_queries(self, row: int) -> np.ndarray:
        """(Q,) bool: queries whose cost can change when structure ``row``
        enters or leaves a design."""
        return self._related(self.struct_table[row : row + 1])[0]

    def delta_design_costs(self, members, changed_row: int, prev_costs) -> np.ndarray:
        """(Q,) costs under ``members``, re-pricing only the queries the
        single changed structure can touch.

        ``prev_costs`` are the (Q,) per-query costs under the *previous*
        design; ``members`` is the new member row set, which differs from
        the previous one by exactly the structure in row ``changed_row``
        (added or removed — the math is symmetric).  Queries the changed
        structure cannot touch keep their previous float verbatim; the
        rest are re-priced through the full min-reduction, restricted to
        the affected query subset (``take`` + ``design_costs``).
        """
        out = np.array(prev_costs, dtype=np.float64, copy=True)
        if out.shape[0] != self.query_count:
            raise ValueError(
                f"prev_costs has {out.shape[0]} entries for "
                f"{self.query_count} compiled queries"
            )
        affected = np.flatnonzero(self.affected_queries(changed_row))
        if affected.size:
            out[affected] = self.take(affected).design_costs(members)
        return out

    def _frame_of(self, columns: StructureColumns) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`candidate_frame` of the structures ``columns`` holds."""
        anchor_table = self.acc_table[self.anchor_acc]
        same_anchor = columns.table[:, None] == anchor_table[None, :]
        # A write is never *served* by a structure, but a same-table
        # structure still changes its cost (maintenance + locate), so
        # write cells are priced rather than marked unservable.  A
        # structure serves the anchor exactly where its anchor cost is
        # finite.
        unservable = same_anchor & ~np.isfinite(columns.anchor) & ~self.is_write[None, :]
        return self._related(columns.table) & ~unservable, unservable

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        return self._frame_of(self.structure_columns)

    def candidate_frame(
        self, columns: StructureColumns | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(price, unservable)`` masks for the greedy candidate matrix of
        ``columns`` (default: this batch's own, computed once per batch).

        ``price[s, q]`` marks pairs whose single-structure cost can differ
        from the base cost: the candidate's table appears in the query
        (anchor or dimension) and, when it is the anchor table, the
        candidate can serve the anchor.  ``unservable[s, q]`` marks
        anchor-table candidates that cannot serve the query at all (the
        scalar designer leaves those cells at ``inf``); every remaining
        cell is exactly the base cost (off-table candidates leave every
        access path unchanged).
        """
        return self._frame if columns is None else self._frame_of(columns)

    def candidate_costs(
        self, base=None, columns: StructureColumns | None = None, frame=None
    ) -> np.ndarray:
        """(S, Q) greedy candidate matrix: the query cost with only
        structure ``s`` deployed where :meth:`candidate_frame` prices,
        ``inf`` where it is unservable, and the base cost (``base``: the
        (Q,) :meth:`base_costs`, computed when not given) elsewhere.

        ``columns`` are the candidates, as in :meth:`design_costs`
        (``frame``: their :meth:`candidate_frame`, when the caller holds
        it).  Only the priced pairs are computed — each with the
        element-wise ops of a one-member :meth:`design_costs`, in the
        same order, so each is the float a full pass would give.  Every
        other cell is exactly the base cost or ``inf`` and is filled as
        such.
        """
        if frame is None:
            frame = self.candidate_frame(columns)
        price, unservable = frame
        columns = self.structure_columns if columns is None else columns
        out = np.empty(price.shape, dtype=np.float64)
        out[...] = self.base_costs() if base is None else base
        out[unservable] = np.inf
        rows, queries = np.nonzero(price)
        out[rows, queries] = self._pair_costs(rows, queries, columns)
        return out

    def _pair_costs(self, s: np.ndarray, q: np.ndarray, columns: StructureColumns) -> np.ndarray:
        """(P,) single-structure query costs of the pairs ``(s[i], q[i])``."""
        best = np.minimum(self.base_anchor[q], columns.anchor[s, q])
        # ``_dim_sum_vector``'s left fold (the scalar ``sum``), pair by pair.
        total = np.zeros(q.shape[0], dtype=np.float64)
        for j in range(self.dim_pad.shape[1]):
            col = self.dim_pad[q, j]
            a = np.maximum(col, 0)
            term = np.minimum(self.base_dim[a], columns.dim[s, a]) + self.acc_build_add[a]
            total = total + np.where(col >= 0, term, 0.0)
        read = (self.consts.QUERY_OVERHEAD_MS + best) + total
        is_write = self.is_write[q]
        if not is_write.any():
            return read
        wcost = (
            self.consts.QUERY_OVERHEAD_MS + np.where(self.is_insert[q], 0.0, best)
        ) + self.base_write[q]
        wcost = wcost + np.where(
            columns.touch[s, q], self.affected[q] * columns.weight[s], 0.0
        )
        return np.where(is_write, wcost, read)


class _Kernel:
    """Compiles profiles and structures into a substrate's arena / batch.

    Subclasses set ``name``, ``arena_type``, ``batch_type`` and
    ``fold_key`` and write ``compile_queries`` / ``bind`` around the
    shared prologue and epilogue below.
    """

    def __init__(self, model):
        self.model = model
        arena_fields = {f.name for f in fields(self.arena_type)}
        #: Arena arrays a bound batch carries verbatim (same field name).
        self._passthrough = tuple(
            f.name for f in fields(self.batch_type) if f.name in arena_fields
        )

    def compile(self, profiles, structures):
        """One-shot compile: ``bind(compile_queries(profiles), structures)``."""
        return self.bind(self.compile_queries(profiles), structures)

    def _compile_shared(self, profiles: list[QueryProfile]):
        """``compile_queries`` prologue -> ``(accesses, shared)``: the bit
        namespace, the interned accesses and the :class:`_Arena` fields
        (by name) every substrate compiles the same way."""
        bits = _ColumnBits(self.model.schema)
        accesses, anchor_acc, dim_pad = _compile_accesses(profiles)
        shared = dict(
            sqls=[p.sql for p in profiles],
            bits=bits,
            acc_table=bits.table_ids_of(accesses),
            anchor_acc=anchor_acc,
            dim_pad=dim_pad,
            **_compile_write_side(profiles, bits, self.model),
        )
        return accesses, shared

    def _bound(self, arena, structures, struct_table, write_mask, **pairs):
        """``bind`` epilogue: the write-side pair arrays, then the batch.

        ``write_mask`` is the (S, words) column set a write must intersect
        to force maintenance of each structure (the scalar
        ``write_touches`` rule), ``pairs`` the substrate's own
        per-design arrays.  The write-side arrays are read only under
        ``any_write``, so a read-only arena binds zeros and does none of
        that work.
        """
        count = len(structures)
        if arena.is_write.any():
            write_weight = np.array(
                [self.model.maintenance_weight(s) for s in structures], dtype=np.float64
            ).reshape(count)
            write_touch = _write_touch_mask(arena, struct_table, write_mask)
            write_rank = _write_fold_order([self.fold_key(s) for s in structures])
        else:
            write_weight = np.zeros(count, dtype=np.float64)
            write_touch = np.zeros((count, arena.query_count), dtype=bool)
            write_rank = np.zeros(count, dtype=np.intp)
        return self.batch_type(
            **{name: getattr(arena, name) for name in self._passthrough},
            struct_table=struct_table,
            write_weight=write_weight,
            write_touch=write_touch,
            write_rank=write_rank,
            **pairs,
        )


# -- columnar ---------------------------------------------------------------------


@dataclass
class ColumnarBatch(_Batch):
    """Compiled (projections × queries) batch for the columnar model."""

    # accesses (A)
    acc_rows: np.ndarray
    acc_needed_bytes: np.ndarray
    acc_pred: np.ndarray
    acc_super_scan: np.ndarray  # scan cost via the table's super-projection
    acc_build_add: np.ndarray  # max(rows·sel, 1) · JOIN_BUILD_COST_MS
    # (S, A) pair factors
    scan_valid: np.ndarray  # table match & coverage
    prefix: np.ndarray  # folded sort-key-prefix selectivity
    # per query (Q)
    super_anchor: np.ndarray  # full anchor-path cost via the super-projection
    has_group: np.ndarray
    has_order: np.ndarray
    agg_sorted_add: np.ndarray  # rows_out · SORTED_AGG_COST_MS
    agg_hash_add: np.ndarray  # rows_out · HASH_AGG_COST_MS
    sort_add: np.ndarray  # n · log2(n) · SORT_COST_MS (math.log2, folded)
    n_dims: np.ndarray
    # (S, Q) pair booleans
    sorted_groups: np.ndarray
    order_free: np.ndarray

    consts = _col
    per_query = _Batch.per_query + (
        "super_anchor",
        "has_group",
        "has_order",
        "agg_sorted_add",
        "agg_hash_add",
        "sort_add",
        "n_dims",
    )
    per_pair = _Batch.per_pair + ("sorted_groups", "order_free")

    # benchmarks/e2e/spans.py wraps these three by ``vars(ColumnarBatch)[name]``,
    # which an inherited method would not satisfy: re-export the one
    # implementation (same function object, no wrapper frame).
    design_costs = _Batch.design_costs
    candidate_costs = _Batch.candidate_costs
    delta_design_costs = _Batch.delta_design_costs

    @property
    def base_anchor(self) -> np.ndarray:
        return self.super_anchor

    @property
    def base_dim(self) -> np.ndarray:
        return self.acc_super_scan

    def _anchor_matrix(self, s: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Full anchor-path cost of the pairs ``(s[i], q[i])``, inf where
        the projection cannot serve the query (wrong table or missing
        columns)."""
        a = self.anchor_acc[q]
        rows_scanned = np.maximum(self.acc_rows[a] * self.prefix[s, a], 1.0)
        cost = (rows_scanned * self.acc_needed_bytes[a]) * _col.BYTE_COST_MS
        cost = cost + (rows_scanned * self.acc_pred[a]) * _col.PREDICATE_COST_MS
        agg = np.where(
            self.sorted_groups[s, q], self.agg_sorted_add[q], self.agg_hash_add[q]
        )
        cost = cost + np.where(self.has_group[q], agg, 0.0)
        needs_sort = self.has_order[q] & ~self.order_free[s, q]
        cost = cost + np.where(needs_sort, self.sort_add[q], 0.0)
        cost = cost + (rows_scanned * self.n_dims[q]) * _col.JOIN_PROBE_COST_MS
        return np.where(self.scan_valid[s, a], cost, np.inf)

    def _dim_matrix(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Projection scan cost of the pairs ``(s[i], a[i])``, inf where
        unusable."""
        rows_scanned = np.maximum(self.acc_rows[a] * self.prefix[s, a], 1.0)
        cost = (rows_scanned * self.acc_needed_bytes[a]) * _col.BYTE_COST_MS
        cost = cost + (rows_scanned * self.acc_pred[a]) * _col.PREDICATE_COST_MS
        return np.where(self.scan_valid[s, a], cost, np.inf)


@dataclass
class ColumnarArena(_Arena):
    """Query-side compiled state for the columnar substrate."""

    accesses: list[TableAccess]
    acc_rows: np.ndarray
    acc_needed_bytes: np.ndarray
    acc_pred: np.ndarray
    acc_super_scan: np.ndarray
    acc_build_add: np.ndarray
    acc_mask: np.ndarray
    predicates: dict[int, _TablePredicates]
    super_anchor: np.ndarray
    has_group: np.ndarray
    has_order: np.ndarray
    agg_sorted_add: np.ndarray
    agg_hash_add: np.ndarray
    sort_add: np.ndarray
    n_dims: np.ndarray
    #: (anchor table id, GROUP BY width, GROUP BY set) / (anchor table id,
    #: ORDER BY tuple) -> query rows.
    group_queries: dict
    order_queries: dict


class ColumnarKernel(_Kernel):
    """Compiles and batch-prices the columnar (projection) substrate."""

    name = "columnar"
    arena_type = ColumnarArena
    batch_type = ColumnarBatch

    @staticmethod
    def fold_key(structure) -> tuple:
        """Scalar fold order: the design's (table, columns, sort key)."""
        return (structure.table, structure.columns, structure.sort_key)

    def compile_queries(self, profiles) -> ColumnarArena:
        model = self.model
        profiles = list(profiles)
        accesses, shared = self._compile_shared(profiles)

        acc_needed_bytes = np.array(
            [float(a.needed_bytes) for a in accesses], dtype=np.float64
        )
        acc_super_scan = np.zeros(len(accesses), dtype=np.float64)
        for i, access in enumerate(accesses):
            acc_super_scan[i] = model._scan_cost(
                access, model._super[access.table], access.eq_map, access.range_map
            )[1]

        # Per-query folded terms (all log2 work happens here, scalarly).
        count = len(profiles)
        super_anchor = np.zeros(count, dtype=np.float64)
        has_group = np.zeros(count, dtype=bool)
        has_order = np.zeros(count, dtype=bool)
        agg_sorted_add = np.zeros(count, dtype=np.float64)
        agg_hash_add = np.zeros(count, dtype=np.float64)
        sort_add = np.zeros(count, dtype=np.float64)
        n_dims = np.zeros(count, dtype=np.float64)
        for q, profile in enumerate(profiles):
            access = profile.anchor
            super_anchor[q] = model.projection_cost(
                profile, model._super[access.table]
            )
            has_group[q] = bool(profile.group_by)
            has_order[q] = bool(profile.order_by)
            n_dims[q] = float(len(profile.dimensions))
            rows_out = max(access.row_count * access.total_selectivity, 1.0)
            agg_sorted_add[q] = rows_out * _col.SORTED_AGG_COST_MS
            agg_hash_add[q] = rows_out * _col.HASH_AGG_COST_MS
            if profile.group_by:
                result_rows = max(min(profile.group_cardinality, rows_out), 1.0)
            else:
                result_rows = rows_out
            if profile.order_by:
                n = max(result_rows, 2.0)
                sort_add[q] = n * math.log2(n) * _col.SORT_COST_MS

        # Group/order combinations: queries are template-derived, so the
        # distinct (anchor table, GROUP BY width, GROUP BY set) / (anchor
        # table, ORDER BY tuple) keys are few; ``bind`` looks each
        # structure's sort-key prefixes up in them instead of testing
        # every (structure, query) pair.
        anchor_tid = shared["acc_table"][shared["anchor_acc"]]
        group_queries: dict[tuple, list[int]] = {}
        order_queries: dict[tuple, list[int]] = {}
        for q, (profile, tid) in enumerate(zip(profiles, anchor_tid.tolist())):
            if profile.group_by:
                key = (tid, len(profile.group_by), frozenset(profile.group_by))
                group_queries.setdefault(key, []).append(q)
            elif profile.order_by:
                order_queries.setdefault((tid, profile.order_by), []).append(q)

        return ColumnarArena(
            **shared,
            **_access_side(accesses, shared["bits"], _col),
            acc_needed_bytes=acc_needed_bytes,
            acc_super_scan=acc_super_scan,
            super_anchor=super_anchor,
            has_group=has_group,
            has_order=has_order,
            agg_sorted_add=agg_sorted_add,
            agg_hash_add=agg_hash_add,
            sort_add=sort_add,
            n_dims=n_dims,
            group_queries=group_queries,
            order_queries=order_queries,
        )

    def bind(self, arena: ColumnarArena, structures) -> ColumnarBatch:
        structures = list(structures)
        bits = arena.bits
        struct_table = bits.table_ids_of(structures)
        struct_mask = bits.masks([(s.table, s.columns) for s in structures])
        sort_keys = [s.sort_key for s in structures]

        # Coverage and sort-key-prefix selectivity, one same-table block
        # at a time.
        scan_valid = np.zeros((len(structures), len(arena.accesses)), dtype=bool)
        prefix = np.ones(scan_valid.shape, dtype=np.float64)
        for block, covered, selectivity, _depth in _table_blocks(
            arena, struct_table, struct_mask, sort_keys
        ):
            scan_valid[block] = covered
            prefix[block] = selectivity

        # Pair booleans: a projection streams a GROUP BY whose column set
        # its leading sort columns equal, and needs no sort for an
        # ORDER BY that is a prefix of its sort key.
        sorted_groups = np.zeros((len(structures), arena.query_count), dtype=bool)
        order_free = np.zeros(sorted_groups.shape, dtype=bool)
        for s, (tid, key) in enumerate(zip(struct_table.tolist(), sort_keys)):
            for width in range(1, len(key) + 1):
                head = key[:width]
                qs = arena.group_queries.get((tid, width, frozenset(head)))
                if qs is not None:
                    sorted_groups[s, qs] = True
                qs = arena.order_queries.get((tid, head))
                if qs is not None:
                    order_free[s, qs] = True

        return self._bound(
            arena,
            structures,
            struct_table,
            write_mask=struct_mask,
            scan_valid=scan_valid,
            prefix=prefix,
            sorted_groups=sorted_groups,
            order_free=order_free,
        )


# -- rowstore ---------------------------------------------------------------------


@dataclass
class RowstoreBatch(_Batch):
    """Compiled (indices/views × queries) batch for the row store."""

    is_view: np.ndarray  # (S,) bool
    key_bytes: np.ndarray  # (S,) covering-read width (0 for views)
    # accesses (A)
    acc_rows: np.ndarray
    acc_row_bytes: np.ndarray
    acc_pred: np.ndarray
    acc_seek_add: np.ndarray  # SEEK_COST_MS · log2(max(rows, 2)), folded
    acc_base_scan: np.ndarray  # full-table-scan cost (dimension fallback)
    acc_build_add: np.ndarray
    # (S, A) pair factors (index rows only; view rows are invalid)
    seek_valid: np.ndarray
    seek_sel: np.ndarray  # folded seek-prefix selectivity
    seek_depth: np.ndarray  # folded seek depth (float64)
    covering: np.ndarray
    # per query (Q)
    base_path: np.ndarray  # scan + post cost (the NoDesign anchor path)
    post: np.ndarray  # aggregation/sort/probe work after index fetch
    # (S, Q): view rollup costs (inf for index rows / unanswerable pairs)
    view_cost: np.ndarray

    consts = _row
    per_query = _Batch.per_query + ("base_path", "post")
    per_pair = _Batch.per_pair + ("view_cost",)

    # benchmarks/e2e/spans.py wraps these three by ``vars(RowstoreBatch)[name]``,
    # which an inherited method would not satisfy: re-export the one
    # implementation (same function object, no wrapper frame).
    design_costs = _Batch.design_costs
    candidate_costs = _Batch.candidate_costs
    delta_design_costs = _Batch.delta_design_costs

    @property
    def base_anchor(self) -> np.ndarray:
        return self.base_path

    @property
    def base_dim(self) -> np.ndarray:
        return self.acc_base_scan

    def _dim_matrix(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Cost of driving the pairs' accesses ``a[i]`` through indices
        ``s[i]``, inf where the index cannot seek the access."""
        matched = np.maximum(self.acc_rows[a] * self.seek_sel[s, a], 1.0)
        fetch = np.where(
            self.covering[s, a],
            (matched * self.key_bytes[s]) * _row.BYTE_COST_MS,
            ((matched * self.acc_row_bytes[a]) * _row.BYTE_COST_MS)
            * _row.RANDOM_READ_FACTOR,
        )
        cost = self.acc_seek_add[a] + fetch
        remaining = np.maximum(self.acc_pred[a] - self.seek_depth[s, a], 0.0)
        cost = cost + (matched * remaining) * _row.PREDICATE_COST_MS
        return np.where(self.seek_valid[s, a], cost, np.inf)

    def _anchor_matrix(self, s: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Full query cost of the pairs ``(s[i], q[i])`` via the
        structure's anchor path."""
        idx_anchor = self._dim_matrix(s, self.anchor_acc[q]) + self.post[q]
        return np.where(self.is_view[s], self.view_cost[s, q], idx_anchor)


@dataclass
class RowstoreArena(_Arena):
    """Query-side compiled state for the row-store substrate.

    Keeps the source :class:`QueryProfile` list (unlike the other
    arenas): materialized-view rollup costs go through the scalar
    ``model._view_cost(profile, view)`` at bind time, pair by pair.
    """

    accesses: list[TableAccess]
    profiles: list[QueryProfile]
    acc_rows: np.ndarray
    acc_row_bytes: np.ndarray
    acc_pred: np.ndarray
    acc_seek_add: np.ndarray
    acc_base_scan: np.ndarray
    acc_build_add: np.ndarray
    acc_mask: np.ndarray
    predicates: dict[int, _TablePredicates]
    base_path: np.ndarray
    post: np.ndarray
    #: anchor table id -> the query rows a view on that table could answer.
    view_queries: dict[int, list[int]]


class RowstoreKernel(_Kernel):
    """Compiles and batch-prices the row-store (index/view) substrate."""

    name = "rowstore"
    arena_type = RowstoreArena
    batch_type = RowstoreBatch

    def compile_queries(self, profiles) -> RowstoreArena:
        model = self.model
        profiles = list(profiles)
        accesses, shared = self._compile_shared(profiles)

        acc_row_bytes = np.array(
            [float(a.row_bytes) for a in accesses], dtype=np.float64
        )
        acc_seek_add = np.zeros(len(accesses), dtype=np.float64)
        acc_base_scan = np.zeros(len(accesses), dtype=np.float64)
        for i, access in enumerate(accesses):
            acc_seek_add[i] = _row.SEEK_COST_MS * math.log2(max(access.row_count, 2))
            acc_base_scan[i] = model._scan_cost(access)

        count = len(profiles)
        base_path = np.zeros(count, dtype=np.float64)
        post = np.zeros(count, dtype=np.float64)
        for q, profile in enumerate(profiles):
            post[q] = model._post_cost(profile)
            base_path[q] = model._scan_cost(profile.anchor) + model._post_cost(profile)

        # A view can only answer an aggregate query with no joins anchored
        # on its own table (``MaterializedView.answers``' first checks).
        anchor_tid = shared["acc_table"][shared["anchor_acc"]]
        view_queries: dict[int, list[int]] = {}
        for q, (profile, tid) in enumerate(zip(profiles, anchor_tid.tolist())):
            if profile.has_aggregates and not profile.dimensions:
                view_queries.setdefault(tid, []).append(q)

        return RowstoreArena(
            **shared,
            **_access_side(accesses, shared["bits"], _row),
            profiles=profiles,
            view_queries=view_queries,
            acc_row_bytes=acc_row_bytes,
            acc_seek_add=acc_seek_add,
            acc_base_scan=acc_base_scan,
            base_path=base_path,
            post=post,
        )

    @staticmethod
    def fold_key(structure) -> tuple:
        """Scalar fold order: all of a table's indexes (by columns), then
        its views (by groupings + measures) — see ``_write_cost``."""
        if isinstance(structure, MaterializedView):
            return (structure.table, 1, structure.group_columns, structure.measure_columns)
        return (structure.table, 0, structure.columns, ())

    def bind(self, arena: RowstoreArena, structures) -> RowstoreBatch:
        model = self.model
        structures = list(structures)
        bits = arena.bits
        is_view = np.array(
            [isinstance(s, MaterializedView) for s in structures], dtype=bool
        ).reshape(len(structures))
        struct_table = bits.table_ids_of(structures)
        # An index covers (and a write touches it) through its key columns,
        # a view is touched through its groupings + measures (the scalar
        # ``write_touches`` rule) and covers nothing.
        struct_mask = bits.masks(
            [
                (s.table, s.group_columns + s.measure_columns if view else s.columns)
                for s, view in zip(structures, is_view.tolist())
            ]
        )
        key_bytes = np.zeros(len(structures), dtype=np.float64)
        for s, structure in enumerate(structures):
            if not is_view[s] and struct_table[s] >= 0:
                schema_table = model.schema.table(structure.table)
                key_bytes[s] = float(
                    sum(schema_table.column(c).type.byte_width for c in structure.columns)
                )

        # Seek depth + prefix selectivity and covering reads, one
        # same-table block of index rows at a time (a view's table id is
        # masked out: it seeks and covers nothing).
        shape = (len(structures), len(arena.accesses))
        seek_sel = np.ones(shape, dtype=np.float64)
        seek_depth = np.zeros(shape, dtype=np.float64)
        covering = np.zeros(shape, dtype=bool)
        for block, covered, selectivity, depth in _table_blocks(
            arena,
            np.where(is_view, -1, struct_table),
            struct_mask,
            [() if view else s.columns for s, view in zip(structures, is_view.tolist())],
        ):
            covering[block] = covered
            seek_sel[block] = selectivity
            seek_depth[block] = depth

        # View rollup costs go pair by pair through the scalar helper
        # itself (its log2 term), over the queries a view on that table
        # could answer.
        view_cost = np.full((len(structures), arena.query_count), np.inf, dtype=np.float64)
        for s in np.flatnonzero(is_view).tolist():
            for q in arena.view_queries.get(int(struct_table[s]), ()):
                cost = model._view_cost(arena.profiles[q], structures[s])
                if cost is not None:
                    view_cost[s, q] = cost

        return self._bound(
            arena,
            structures,
            struct_table,
            write_mask=struct_mask,
            is_view=is_view,
            key_bytes=key_bytes,
            seek_valid=seek_depth > 0,
            seek_sel=seek_sel,
            seek_depth=seek_depth,
            covering=covering,
            view_cost=view_cost,
        )


# -- dispatch ---------------------------------------------------------------------


def kernel_for(cost_model):
    """The batch kernel matching ``cost_model``, or None (scalar path).

    Dispatch is deliberately exact-type: a subclass may override cost
    arithmetic the kernel would silently disagree with, and protocol
    stubs (tests, foreign models) have no compiled form at all.
    """
    if type(cost_model) is _col.ColumnarCostModel:
        return ColumnarKernel(cost_model)
    if type(cost_model) is _row.RowstoreCostModel:
        return RowstoreKernel(cost_model)
    return None
