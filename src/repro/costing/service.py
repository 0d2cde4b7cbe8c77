"""Unified cost-evaluation service shared by both design substrates.

CliffGuard's inner loop (Algorithm 2) evaluates ``f(W, D)`` for every
sampled neighbor under every candidate design; with the paper defaults
(n = 20 samples + the base workload, 5 iterations) the same queries are
re-costed hundreds of times per replay window even though neighbors
overwhelmingly share queries.  The paper itself stresses that what-if
cost calls dominate designer runtime (Figure 14), so this module puts
**one batching, instrumented layer** between the consumers (CliffGuard,
the baseline designers, the replay harness, the CLI) and the two
engine cost models.

The service only assumes the :class:`CostModel` protocol — ``profile``,
``query_cost``, ``workload_cost`` — which both substrates
(:class:`repro.engine.optimizer.ColumnarCostModel`,
:class:`repro.rowstore.optimizer.RowstoreCostModel`) already satisfy, so
the batching is shared rather than re-implemented per engine.

Contract (see ``docs/cost_model.md`` for the prose version):

* **No cost is memoized.**  Every entry point collapses its request to
  distinct SQL and prices it; a caller that needs a cost twice keeps
  the one it was given.  What the service does keep is derived state —
  compiled workload arenas and, per arena, a store of priced structure
  columns — which depends only on the queries, the structures and the
  model, is never exported, and cannot change a float or an exported
  counter.
* **Each structure is priced once per arena.**  A design's cost is a
  reduction over per-structure quantities (an anchor cost per query, a
  dimension cost per access, a write-touch row; see
  :class:`~repro.costing.kernel.StructureColumns`).  The first request
  that names a structure binds it over the whole root arena; every
  later design and candidate matrix over any subset of that arena's
  texts gathers its column and takes a ``min``.  A bounded LRU of
  columns (``max_store_cells``) caps the memory.
* **Identity is content.**  A design's fingerprint digests the
  canonical DDL of its structures in deterministic order, and a store
  column is keyed by its structure's DDL text, so content-identical
  structures share columns even when they are distinct objects.
* **One pricing path, in process.**  Every batched request is priced by
  :meth:`CostEvaluationService._price`: the design's columns gathered
  from the request's store, or the scalar model when the cost model has
  no kernel.  The service never fans out
  inside a pricing call: parallelism lives one level up, in the
  harness's whole-task fan-out and the serve daemon's background
  re-design (see :mod:`repro.parallel`).
* **Bit-identical results.**  Every float is the exact float the
  underlying cost model produces — the property tests in
  ``tests/test_costing_service.py`` and ``tests/test_costing_arena.py``
  assert equality, not closeness.
* **Explicit invalidation.**  The service never watches the cost model
  for mutation; callers that change statistics or cost constants must
  call :meth:`CostEvaluationService.clear`, which drops every arena and
  every column priced from the old ones.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from dataclasses import fields as dataclass_fields
from typing import Protocol, runtime_checkable

import numpy as np

from repro.costing.kernel import StructureColumns, _write_fold_order, kernel_for
from repro.costing.memo import BoundedMemo
from repro.costing.report import WorkloadCostReport
from repro.obs import MetricsRegistry, get_metrics, tracer

#: Bound on the per-service workload-arena cache.  Arenas are per
#: distinct query set — one per replay window or neighborhood pool — and
#: a handful of windows are ever live at once; each holds the compiled
#: query-side arrays plus profiles, so the bound is deliberately small.
DEFAULT_MAX_ARENAS = 8
#: Bound on the structure-column stores, in float cells (a column holds
#: an anchor cost per query and a dimension cost per access of its root
#: arena) across every live store.  Sized for a designer-comparison run
#: (~1-2k structures × ~500 distinct queries); the shrink policy drops
#: whole least-recently-used columns, never partial ones.
DEFAULT_MAX_STORE_CELLS = 2_000_000
#: Candidates a candidate-matrix request gathers and prices at a time.
_MATRIX_ROWS = 128


@runtime_checkable
class CostModel(Protocol):
    """The what-if surface every engine cost model exposes.

    Both substrates satisfy this structurally; the service (and the
    :class:`repro.designers.base.DesignAdapter` refactored onto it) only
    ever touches these four members.
    """

    def profile(self, sql: str, statement=None):  # pragma: no cover - protocol
        """Parse and schema-resolve one SQL text (``statement``: the text
        already parsed)."""
        ...

    def annotate(self, sql: str, statement):  # pragma: no cover - protocol
        """:meth:`profile` of a parsed text, not memoised."""
        ...

    def query_cost(self, sql_or_profile, design) -> float:  # pragma: no cover
        """Estimated latency (model ms) of one query under ``design``."""
        ...

    def workload_cost(self, queries, design) -> WorkloadCostReport:  # pragma: no cover
        """Latency report of a workload under ``design``."""
        ...


# -- fingerprints ----------------------------------------------------------------


def _digest(*parts: str) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    return h.hexdigest()


def design_fingerprint(design) -> str:
    """Stable content hash of a design's structures.

    Designs iterate their structures in deterministic order and every
    structure renders stable DDL via ``str``, so two content-identical
    designs — even distinct objects built in different ways — produce
    the same fingerprint.
    """
    return _digest("d", *[str(structure) for structure in design])


def workload_fingerprint(queries: Iterable) -> str:
    """Stable content hash of a (sql, weight) sequence, order-sensitive.

    Accepts raw iterables (lists, generators) or a
    :class:`~repro.workload.workload.Workload`; both spell the same
    digest.
    """
    parts: list[str] = ["w"]
    for query in queries:
        if isinstance(query, str):
            parts.append(query)
            parts.append("1.0")
        else:
            parts.append(query.sql)
            parts.append(repr(float(query.frequency)))
    return _digest(*parts)


# -- instrumentation -------------------------------------------------------------


class _Counters:
    """``snapshot`` / ``since`` over whatever fields a stats dataclass
    declares, so a field added to one can never read 0 in a delta."""

    def snapshot(self):
        """An independent copy (for before/after deltas)."""
        return replace(self)

    def since(self, earlier):
        """The delta between this snapshot and an ``earlier`` one."""
        return type(self)(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in dataclass_fields(self)
            }
        )

    def add(self, delta) -> None:
        """Add a :meth:`since` delta to these counters, in place."""
        for f in dataclass_fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(delta, f.name))


@dataclass
class CostServiceStats(_Counters):
    """Counters for one service (cumulative; see :meth:`snapshot`)."""

    #: Query-cost evaluations requested by consumers.  Nothing is
    #: memoized, so every request is priced: this always equals
    #: ``raw_model_calls``.
    query_requests: int = 0
    # Read by benchmarks/e2e/spans.py (``getattr(stats, "query_hits")``)
    # and by nothing else: the service memoizes no cost, so no path
    # counts into it and it reads 0 until the ledger stops naming it.
    query_hits: int = 0
    #: (design, query) pairs priced, by the scalar model or the kernel.
    raw_model_calls: int = 0
    #: Duplicate (design, query) pairs collapsed by batched evaluation
    #: before the model was consulted.
    dedup_saved: int = 0
    #: Wall-clock seconds spent inside evaluation entry points, in this
    #: process: not run state, so never exported (see
    #: :meth:`CostEvaluationService.export_state`).
    eval_seconds: float = 0.0
    # Read by benchmarks/e2e/spans.py by name, like ``query_hits``; no
    # exported cache is left to evict from, so it reads 0.
    evictions: int = 0
    #: Vectorized kernel dispatches (one per compiled batch evaluation).
    kernel_batch_calls: int = 0
    #: (design, query) pairs priced by the vectorized kernel; these are a
    #: subset of ``raw_model_calls`` (kernel-priced pairs still count as
    #: raw evaluations — the kernel is an implementation of the model,
    #: not a cache level).
    kernel_pairs_priced: int = 0
    #: (design, query) pairs priced whose query is a write statement
    #: (INSERT/UPDATE/DELETE) — a subset of ``raw_model_calls`` covering
    #: both the scalar and kernel paths.
    write_pairs_priced: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of batched lookups collapsed as duplicates."""
        total = self.query_requests + self.dedup_saved
        if total == 0:
            return 0.0
        return self.dedup_saved / total

    def rows(self) -> list[list[object]]:
        """(label, value) rows for the reporting tables."""
        return [
            ["raw cost-model calls", self.raw_model_calls],
            ["query-cost lookups", self.query_requests],
            ["batched duplicates collapsed", self.dedup_saved],
            ["dedup ratio", self.dedup_ratio],
            ["evaluation wall-time (s)", self.eval_seconds],
            ["kernel batch dispatches", self.kernel_batch_calls],
            ["kernel-priced pairs", self.kernel_pairs_priced],
            ["write pairs priced", self.write_pairs_priced],
        ]


@dataclass
class ArenaStats(_Counters):
    """Counters for the workload arenas and their structure-column stores.

    Deliberately **separate** from :class:`CostServiceStats` and
    **excluded from** :meth:`CostEvaluationService.export_state`: arenas
    are derived state, rebuilt on demand after a resume, so a resumed
    run's arena counters legitimately differ from the uninterrupted
    run's — folding them into the exported stats would break the
    kill-resume byte-identity of every report that renders counters.
    """

    #: Arena compilations (cache misses).
    builds: int = 0
    #: Arena cache hits (a bind reused compiled query-side arrays).
    hits: int = 0
    #: Arenas dropped by the LRU bound.
    evictions: int = 0
    #: Arenas dropped by ``clear``.
    invalidations: int = 0
    #: Store cells a design or candidate request read from columns an
    #: earlier request priced, instead of binding their structures again
    #: (the name predates the store; ``benchmarks/e2e/spans.py`` reads it).
    matrix_hits: int = 0
    #: Store cells the kernel priced into fresh columns (root space: a
    #: column covers every query and access of its root arena).
    matrix_pairs_priced: int = 0
    #: Store columns dropped by the cell-budget LRU bound.
    store_evictions: int = 0
    # Read by benchmarks/e2e/spans.py (``getattr(arena_stats,
    # "delta_pairs_saved")``) and by nothing else: no path counts into
    # it, so it reads 0 until the ledger stops naming it.
    delta_pairs_saved: int = 0


# -- the structure-column store ------------------------------------------------------


class _Store:
    """The priced structures of one compiled root arena.

    Each structure is bound once, over the whole root, and kept as one
    row of the :class:`~repro.costing.kernel.StructureColumns` its bind
    produced (a *block*: the structures one request lacked), keyed by its
    DDL text (``str(structure)``, the identity a design fingerprint
    digests), least recently used first.  Every request whose texts the
    root holds is a :class:`_View` of it: its designs and candidate
    matrices are gathers of these rows over the view's rows.  A block is
    kept as it came out of the bind — nothing is copied in — and freed
    with its last row.  Derived state, exactly like the arena: never
    exported, dropped with the last cached view or by ``clear``.
    """

    def __init__(self, key: tuple[str, ...], arena, base):
        self.key = key
        self.arena = arena
        #: The empty-design bind: the query side every view takes rows
        #: of, and the base costs, priced once per arena.
        self.base = base
        self.base_costs = base.base_costs()
        #: Structure key -> ``(block id, row, fold key)``, least recently
        #: used first.
        self.rows: OrderedDict[str, tuple[int, int, tuple]] = OrderedDict()
        #: Block id -> ``[columns, rows still keyed]``.
        self.blocks: dict[int, list] = {}
        self._next_block = 0
        #: Float cells of one column: an anchor cost per query plus a
        #: dimension cost per access.
        self.column_cells = arena.query_count + base.acc_table.shape[0]
        #: Cached views (``_arenas`` entries) that read this store.
        self.views = 0

    def add(self, keys: list[str], priced: StructureColumns, fold_keys: list) -> None:
        """Keep the rows of ``priced`` under ``keys`` (the write side only
        when the root holds a write)."""
        if not self.base.any_write:
            priced = priced._replace(touch=None, weight=None)
        block = self._next_block
        self._next_block += 1
        self.blocks[block] = [priced._replace(rank=None), len(keys)]
        for row, (key, fold_key) in enumerate(zip(keys, fold_keys)):
            self.rows[key] = (block, row, fold_key)

    def drop_oldest(self) -> None:
        """Forget the least recently used column (its block with it, when
        no other row of the block is keyed)."""
        _, (block, _, _) = self.rows.popitem(last=False)
        entry = self.blocks[block]
        entry[1] -= 1
        if entry[1] == 0:
            del self.blocks[block]


class _View:
    """A request's texts as rows of a store's root (``rows=None``: the
    root itself), with the empty-design batch and base costs of those
    rows."""

    def __init__(self, store: _Store, rows: np.ndarray | None):
        self.store = store
        self.rows = rows
        if rows is None:
            self.base, self.base_costs = store.base, store.base_costs
        else:
            self.base, self.base_costs = store.base.take(rows), store.base_costs[rows]

    def gather(self, keys: list[str]) -> StructureColumns:
        """The store's columns ``keys`` as :class:`StructureColumns` over
        this view's rows (the write side only where the rows hold a
        write), gathered one block at a time."""
        store = self.store
        found = [store.rows[key] for key in keys]
        count = len(found)
        base = self.base
        write = base.any_write
        table = np.empty(count, dtype=np.int64)
        anchor = np.empty((count, base.query_count))
        dim = np.empty((count, base.acc_table.shape[0]))
        touch = np.empty((count, base.query_count), dtype=bool) if write else None
        weight = np.empty(count) if write else None
        blocks = np.array([block for block, _, _ in found], dtype=np.intp)
        at = np.array([row for _, row, _ in found], dtype=np.intp)
        for block in dict.fromkeys(blocks.tolist()):
            columns = store.blocks[block][0]
            into = np.flatnonzero(blocks == block)
            rows = at[into]
            table[into] = columns.table[rows]
            anchor[into] = self._rows(columns.anchor[rows])
            dim[into] = columns.dim[rows]
            if write:
                touch[into] = self._rows(columns.touch[rows])
                weight[into] = columns.weight[rows]
        return StructureColumns(
            table=table,
            anchor=anchor,
            dim=dim,
            touch=touch,
            weight=weight,
            rank=_write_fold_order([fold_key for _, _, fold_key in found]) if write else None,
        )

    def _rows(self, matrix: np.ndarray) -> np.ndarray:
        return matrix if self.rows is None else np.take(matrix, self.rows, axis=1)


# -- the service -----------------------------------------------------------------


@dataclass
class _Timer:
    stats: CostServiceStats
    started: float = field(default=0.0)

    def __enter__(self) -> "_Timer":
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stats.eval_seconds += time.perf_counter() - self.started


def _sql_weights(queries) -> tuple[list[str], list[float]]:
    """``(sqls, weights)`` of a query sequence, one entry per occurrence.

    Accepts the same inputs the engine cost models do: ``WorkloadQuery``-
    like objects (``sql`` + ``frequency``) or raw SQL strings (weight 1).
    """
    sqls: list[str] = []
    weights: list[float] = []
    for query in queries:
        if isinstance(query, str):
            sqls.append(query)
            weights.append(1.0)
        else:
            sqls.append(query.sql)
            weights.append(float(query.frequency))
    return sqls, weights


@dataclass(frozen=True)
class WorkloadBatch:
    """What a batched evaluation reads of its workloads: each one's
    ``(sqls, weights)`` and their distinct SQL, first seen first.

    :meth:`CostEvaluationService.evaluate_neighborhood` builds one per
    call from a list of workloads; a caller that evaluates one fixed list
    under many designs (CliffGuard's neighborhood) builds it once with
    :meth:`of` and passes it in place of the list.
    """

    per_workload: tuple[tuple[list[str], list[float]], ...]
    unique: tuple[str, ...]
    #: Query occurrences over all the workloads.
    occurrences: int

    @classmethod
    def of(cls, workloads: Sequence) -> "WorkloadBatch":
        per_workload = tuple(_sql_weights(w) for w in workloads)
        return cls(
            per_workload=per_workload,
            unique=tuple(dict.fromkeys(sql for sqls, _ in per_workload for sql in sqls)),
            occurrences=sum(len(sqls) for sqls, _ in per_workload),
        )


class CostEvaluationService:
    """Batched, counted evaluation over one cost model."""

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model
        #: Vectorized batch kernel for the model, or None (scalar path).
        #: Dispatch is exact-type; stubs and subclasses stay scalar.
        self.kernel = kernel_for(cost_model)
        self.stats = CostServiceStats()
        #: Arena/store counters — derived-state instrumentation,
        #: intentionally outside ``stats`` (see :class:`ArenaStats`).
        self.arena_stats = ArenaStats()
        #: distinct-SQL tuple -> the :class:`_View` serving it.  Derived
        #: state: never exported, rebuilt on demand after clear/resume.
        self._arenas = BoundedMemo(
            max_entries=DEFAULT_MAX_ARENAS, on_evict=self._arena_evicted
        )
        #: Bound on the float cells of every live store's columns; 0
        #: keeps no column past the call that priced it (the cold
        #: baseline — same floats, same exported counters).
        self.max_store_cells = DEFAULT_MAX_STORE_CELLS
        #: root texts -> the :class:`_Store` of every root arena a cached
        #: view reads, least recently used first.
        self._stores: OrderedDict[tuple[str, ...], _Store] = OrderedDict()
        #: Cells of every live column, kept current where a column is
        #: priced or dropped.
        self._store_cells = 0
        #: How many times :meth:`clear` ran: work derived from the model
        #: outside the service (the nominal designers' design memo) is
        #: valid while this count stands.
        self.clears = 0

    def clear(self) -> None:
        """Drop every compiled arena and every store of priced columns.

        ``clear`` is the "cost model changed under me" escape hatch:
        arenas bake the model's statistics into their query-side arrays
        and store columns into their costs.
        """
        self.clears += 1
        t = tracer()
        stores, columns = len(self._stores), self.cached_store_columns
        self._stores.clear()
        self._store_cells = 0
        if t.enabled and stores:
            t.emit("store_evict", reason="clear", stores=stores, columns=columns)
        arenas = len(self._arenas)
        self._arenas.clear()
        self.arena_stats.invalidations += arenas
        if t.enabled and arenas:
            t.emit("arena_evict", reason="clear", arenas=arenas)

    # -- checkpoint/resume support ---------------------------------------------------

    def export_state(self) -> dict:
        """Snapshot the counters for a run checkpoint.

        The service memoizes no cost, so its counters are its only run
        state: restoring them via :meth:`import_state` makes a resumed
        run's counter deltas bit-identical to the uninterrupted run's
        (see docs/state.md), and the export stays the same size however
        long the run.  Compiled workload arenas, their stores of priced
        columns and :class:`ArenaStats` are not exported — all are
        derived state (pure functions of the queries, the structures,
        and the model, rebuilt on demand after a resume), and folding
        their counters into the snapshot would make a resumed run's
        exported stats diverge from the uninterrupted run's even though
        every cost is identical.  ``eval_seconds`` is wall-clock time,
        not run state: it is exported as 0, so two same-seed runs write
        the same bytes.
        """
        return {"stats": replace(self.stats, eval_seconds=0.0)}

    def import_state(self, state: dict) -> None:
        """Restore the counters from :meth:`export_state` in place;
        whatever arenas this service holds stay valid — they depend
        only on queries and the model.  ``eval_seconds`` keeps this
        process's reading (an older export's wall-clock is ignored), so
        it never runs backwards."""
        self.stats = replace(state["stats"], eval_seconds=self.stats.eval_seconds)

    # -- workload arenas and their stores ------------------------------------------------

    @property
    def cached_arenas(self) -> int:
        return len(self._arenas)

    @property
    def cached_store_columns(self) -> int:
        return sum(len(store.rows) for store in self._stores.values())

    @property
    def cached_store_cells(self) -> int:
        return self._store_cells

    def _arena_evicted(self, key: tuple[str, ...], view: _View) -> None:
        self.arena_stats.evictions += 1
        t = tracer()
        if t.enabled:
            t.emit("arena_evict", reason="lru", key=_digest("a", *key), arenas=1)
        store = view.store
        store.views -= 1
        if store.views == 0:
            del self._stores[store.key]
            self._store_cells -= len(store.rows) * store.column_cells

    def compile_arena(self, sqls: Sequence[str]) -> None:
        """Compile (or find) the arena of the distinct texts ``sqls``
        before any request that reads a subset of them, so those
        requests are served as views of it — one compile and one store
        of priced structures — rather than each compiling its own.
        Prices and charges nothing; a no-op without a kernel."""
        if self.kernel is not None:
            self._view_for(tuple(dict.fromkeys(sqls)))

    def _view_for(self, unique_sqls: tuple[str, ...], profiles=None) -> _View:
        """The :class:`_View` serving a distinct-SQL tuple.

        Resolution order: the exact key; then the most recently used
        live store whose root arena holds every requested text, served
        as a view of its rows and cached under the exact key; then a
        compile: queries are profiled (unless the caller already holds
        ``profiles``), the kernel's ``compile_queries`` runs once and the
        new store binds the empty design once for its base costs.  A
        view prices exactly like a compile of its texts (every
        query-side value is per query), so which of the three served a
        request never shows in a cost.
        """
        # The tuple itself is the key: its texts' hashes are cached on the
        # strings, so a lookup costs no digest.
        key = unique_sqls
        view = self._arenas.get(key)
        t = tracer()
        if view is None:
            for store in reversed(self._stores.values()):
                row_of = store.arena.row_of
                if store.arena.query_count >= len(unique_sqls) and all(
                    sql in row_of for sql in unique_sqls
                ):
                    rows = np.array([row_of[sql] for sql in unique_sqls], dtype=np.intp)
                    view = self._cache_view(key, _View(store, rows))
                    break
        else:
            self._stores.move_to_end(view.store.key)
        if view is not None:
            self.arena_stats.hits += 1
            if t.enabled:
                t.emit("arena_hit", key=_digest("a", *key), queries=len(unique_sqls))
            return view
        if profiles is None:
            profiles = [self.cost_model.profile(sql) for sql in unique_sqls]
        arena = self.kernel.compile_queries(list(profiles))
        self.arena_stats.builds += 1
        if t.enabled:
            t.emit(
                "arena_build",
                key=_digest("a", *key),
                substrate=self.kernel.name,
                queries=len(unique_sqls),
                bytes=arena.nbytes,
            )
        return self._cache_view(key, _View(_Store(key, arena, self._bind(arena, [])), None))

    def _cache_view(self, key: tuple[str, ...], view: _View) -> _View:
        store = view.store
        store.views += 1
        self._stores[store.key] = store
        self._stores.move_to_end(store.key)
        self._arenas[key] = view
        return view

    def _bind(self, arena, structures):
        """``kernel.bind`` plus its ``kernel_bind`` trace event — the one
        place the service binds, so the event log sees every bind."""
        batch = self.kernel.bind(arena, structures)
        t = tracer()
        if t.enabled:
            t.emit(
                "kernel_bind",
                substrate=self.kernel.name,
                queries=batch.query_count,
                structures=batch.structure_count,
                words=arena.bits.words,
            )
        return batch

    def _keep(self, view: _View, structures, keys) -> None:
        """Make ``view``'s store hold a column for every structure
        ``keys`` names, most recently used last.

        Structures the store lacks are bound once, together, over the
        whole root; every other column is the one priced earlier.  The
        cells each kind covers land in ``matrix_pairs_priced`` /
        ``matrix_hits``."""
        store = view.store
        keyed = store.rows
        fresh: dict[str, object] = {}
        for key, structure in zip(keys, structures):
            if key not in keyed:
                fresh.setdefault(key, structure)
        warm = len(dict.fromkeys(keys)) - len(fresh)
        if fresh:
            batch = self._bind(store.arena, list(fresh.values()))
            fold_key = self.kernel.fold_key
            store.add(
                list(fresh),
                batch.structure_columns,
                [fold_key(structure) for structure in fresh.values()],
            )
            added = len(fresh) * store.column_cells
            self._store_cells += added
            self.arena_stats.matrix_pairs_priced += added
        for key in keys:
            keyed.move_to_end(key)
        warm_cells = warm * store.column_cells
        self.arena_stats.matrix_hits += warm_cells
        t = tracer()
        if t.enabled and warm_cells:
            t.emit(
                "store_hit",
                key=_digest("a", *store.key),
                cells=warm_cells,
                structures=len(keys),
                queries=view.base.query_count,
            )

    def _shrink_stores(self) -> None:
        """Enforce the cell budget by dropping least-recently-used
        columns, oldest store first.  A store itself (its arena and base
        costs) stays while a cached view reads it."""
        t = tracer()
        for store in list(self._stores.values()):
            while self._store_cells > self.max_store_cells and store.rows:
                store.drop_oldest()
                self._store_cells -= store.column_cells
                self.arena_stats.store_evictions += 1
                if t.enabled:
                    t.emit(
                        "store_evict", reason="lru", key=_digest("a", *store.key), columns=1
                    )
            if self._store_cells <= self.max_store_cells:
                return

    # -- the one pricing path -------------------------------------------------------------

    def _charge(self, pairs: int, writes: int, kernel: bool = False) -> None:
        """Count ``pairs`` freshly priced (design, query) pairs, ``writes``
        of them write statements.  The only place requests and raw
        evaluations are charged, and always together: nothing is
        memoized, so every request is a raw evaluation."""
        self.stats.query_requests += pairs
        self.stats.raw_model_calls += pairs
        self.stats.write_pairs_priced += writes
        if kernel:
            self.stats.kernel_batch_calls += 1
            self.stats.kernel_pairs_priced += pairs

    def _price(self, design, unique: tuple[str, ...]) -> list[float]:
        """Costs of the distinct SQL texts ``unique`` under ``design``.

        Every batched entry point prices here, one way: the design's
        structures are gathered from the store of the request's view (a
        key stable across designs and iterations; structures the store
        lacks are bound once) and reduced to per-query costs.  A model
        without a kernel is priced by the scalar model, the reference the
        kernel is tested against: kernel results are bit-identical to it
        (every kernel op is element-wise or a per-query reduction).
        """
        if self.kernel is None:
            costs = [self.cost_model.query_cost(sql, design) for sql in unique]
            self._charge(len(unique), self._count_write_sqls(unique))
            return costs
        view = self._view_for(unique)
        members = list(design)
        keys = [str(s) for s in members]
        self._keep(view, members, keys)
        costs = view.base.design_costs(columns=view.gather(keys)).tolist()
        self._charge(len(unique), int(view.base.is_write.sum()), kernel=True)
        self._shrink_stores()
        t = tracer()
        if t.enabled:
            t.emit(
                "kernel_batch",
                substrate=self.kernel.name,
                design=design_fingerprint(design),
                pairs=len(unique),
                structures=len(members),
            )
        return costs

    def _count_write_sqls(self, sqls) -> int:
        """How many of ``sqls`` are write statements (for ``writes.*``
        observability).  Profiles come from the model's cache, so this
        never re-parses; texts the model cannot profile count as reads."""
        profiler = getattr(self.cost_model, "profile", None)
        if profiler is None:  # protocol stubs without a profiler
            return 0
        count = 0
        for sql in sqls:
            try:
                if getattr(profiler(sql), "is_write", False):
                    count += 1
            except ValueError:
                continue
        return count

    def _reports(self, design, per_workload, unique) -> list[WorkloadCostReport]:
        """One report per ``(sqls, weights)`` workload, priced in one
        request over ``unique``, their distinct SQL."""
        cost_of = dict(zip(unique, self._price(design, unique)))
        return [
            WorkloadCostReport(
                per_query_ms=[cost_of[sql] for sql in sqls], weights=list(weights)
            )
            for sqls, weights in per_workload
        ]

    # -- single-query costing --------------------------------------------------------

    def query_cost(self, sql_or_profile, design) -> float:
        """``cost_model.query_cost``, counted (one request, one raw call)."""
        with _Timer(self.stats):
            cost = self.cost_model.query_cost(sql_or_profile, design)
        if isinstance(sql_or_profile, str):
            writes = self._count_write_sqls((sql_or_profile,))
        else:
            writes = int(getattr(sql_or_profile, "is_write", False))
        self._charge(1, writes)
        return cost

    # -- workload costing -------------------------------------------------------------

    def workload_cost(self, queries, design) -> WorkloadCostReport:
        """Workload report, priced once per distinct SQL text.

        Accepts the same inputs the engine cost models do: an iterable of
        ``WorkloadQuery``-like objects (``sql`` + ``frequency``) or raw
        SQL strings (weight 1).
        """
        with _Timer(self.stats):
            sqls, weights = _sql_weights(queries)
            unique = tuple(dict.fromkeys(sqls))
            return self._reports(design, [(sqls, weights)], unique)[0]

    # -- batched neighborhood evaluation ----------------------------------------------

    def _batched_reports(
        self, designs: Sequence, workloads: Sequence
    ) -> list[list[WorkloadCostReport]]:
        """``result[d][w]`` — the loop behind both batched entry points.

        The distinct SQL of all ``workloads`` (a list, or a
        :class:`WorkloadBatch` of one) is one request per design:
        duplicates are collapsed (and counted in ``dedup_saved``) before
        the model is consulted.  (A shared private loop, not one entry
        point calling the other: ``_Timer`` does not nest.)
        """
        if not isinstance(workloads, WorkloadBatch):
            workloads = WorkloadBatch.of(workloads)
        unique = workloads.unique
        results: list[list[WorkloadCostReport]] = []
        for design in designs:
            self.stats.dedup_saved += workloads.occurrences - len(unique)
            results.append(self._reports(design, workloads.per_workload, unique))
        return results

    def evaluate_neighborhood(
        self, designs: Sequence, workloads: Sequence
    ) -> list[list[WorkloadCostReport]]:
        """Cost every design × workload pair, deduplicating shared queries.

        This replaces the per-neighbor list comprehension in CliffGuard's
        neighborhood exploration: the sampled neighbors overwhelmingly
        share queries (they are drawn from the same history pool), so each
        distinct (design, query) pair is costed exactly once no matter how
        many neighbors contain it.  Returns ``result[d][w]``, the report
        of ``workloads[w]`` under ``designs[d]``; ``workloads`` may be a
        :class:`WorkloadBatch` built once for a fixed list.
        """
        with _Timer(self.stats):
            return self._batched_reports(designs, workloads)

    def workload_costs_batch(self, designs: Sequence, workload) -> list[WorkloadCostReport]:
        """Cost one workload under many designs, one report per design.

        The neighborhood shape of the paper's Algorithm 4 turned
        sideways — the query axis is fixed, the design axis fans out —
        and exactly ``evaluate_neighborhood(designs, [workload])``.
        """
        with _Timer(self.stats):
            return [row[0] for row in self._batched_reports(designs, [workload])]

    def candidate_costs(
        self, profiles: Sequence, candidates: Sequence, keys: Sequence[str] | None = None
    ):
        """``(base_costs, matrix)`` for greedy candidate selection.

        Both are fresh C-contiguous float64 arrays: reductions over them
        (the bandit's BLAS calls) read the same bits however the request
        was served.

        The matrix is assembled from the same structure columns that
        price designs: each candidate is bound once per root arena, so a
        designer re-run over an arena-resident workload binds only the
        candidates the store has never seen, and a fully warm call binds
        nothing.  Results are bit-identical to a cold rebuild, and so is
        **every exported counter**: priced cells are charged as-if-cold
        on every call — the store is derived state, invisible to
        checkpoints (see :meth:`export_state`); its savings land in
        :class:`ArenaStats` (``matrix_hits``) only.  Cells whose
        candidate is unrelated to the query keep the base cost without
        being priced (an off-table structure cannot change any access
        path); anchor-table candidates that cannot serve the query are
        ``inf``, exactly like the scalar designer.

        ``keys``, when given, are ``str(candidate)`` for each candidate —
        a caller that re-prices the same structures call after call
        computes them once.
        """
        if self.kernel is None:
            raise RuntimeError(
                "candidate_costs requires a vectorized kernel; "
                "this cost model only supports the scalar path"
            )
        with _Timer(self.stats):
            profiles = list(profiles)
            candidates = list(candidates)
            sqls = tuple(p.sql for p in profiles)
            keys = [str(c) for c in candidates] if keys is None else list(keys)
            view = self._view_for(sqls, profiles)
            self._keep(view, candidates, keys)
            batch = view.base
            base = view.base_costs.copy()
            matrix = np.empty((len(keys), len(sqls)))
            is_write = batch.is_write
            priced_request = priced_writes = 0
            # A few hundred candidates at a time: the gathered columns
            # and masks of a whole pool would double the call's memory.
            for lo in range(0, len(keys), _MATRIX_ROWS):
                columns = view.gather(keys[lo : lo + _MATRIX_ROWS])
                frame = batch.candidate_frame(columns)
                matrix[lo : lo + _MATRIX_ROWS] = batch.candidate_costs(base, columns, frame)
                price = frame[0]
                priced_request += int(price.sum())
                priced_writes += int((price & is_write[None, :]).sum())
            # As-if-cold accounting: every base cost and every priced cell
            # is one request and one raw evaluation on every call,
            # whatever the store served — exported stats must not leak
            # warmth.
            self._charge(
                len(sqls) + priced_request,
                int(is_write.sum()) + priced_writes,
                kernel=True,
            )
            self._shrink_stores()
            t = tracer()
            if t.enabled:
                t.emit(
                    "kernel_batch",
                    substrate=self.kernel.name,
                    queries=len(sqls),
                    structures=len(candidates),
                    pairs=len(sqls) + priced_request,
                )
            return base, matrix

    def publish_metrics(self, registry: MetricsRegistry | None = None) -> None:
        """Publish the cumulative :class:`CostServiceStats` (plus current
        cache sizes) into a metrics registry (default: the process-wide
        one; see :func:`repro.obs.get_metrics`).

        Counters are published as gauges because the service's stats are
        already cumulative — the registry mirrors the latest snapshot
        rather than double-accumulating.  ``python -m repro stats``
        renders the result.
        """
        registry = registry if registry is not None else get_metrics()
        registry.gauge("costing.query_requests").set(self.stats.query_requests)
        registry.gauge("costing.raw_model_calls").set(self.stats.raw_model_calls)
        registry.gauge("costing.dedup_saved").set(self.stats.dedup_saved)
        registry.gauge("costing.eval_seconds").set(self.stats.eval_seconds)
        registry.gauge("costing.kernel.batch_calls").set(self.stats.kernel_batch_calls)
        registry.gauge("costing.kernel.pairs_priced").set(
            self.stats.kernel_pairs_priced
        )
        registry.gauge("writes.pairs_priced").set(self.stats.write_pairs_priced)
        registry.gauge("arena.builds").set(self.arena_stats.builds)
        registry.gauge("arena.hits").set(self.arena_stats.hits)
        registry.gauge("arena.evictions").set(self.arena_stats.evictions)
        registry.gauge("arena.invalidations").set(self.arena_stats.invalidations)
        registry.gauge("arena.cached").set(self.cached_arenas)
        registry.gauge("arena.resident_bytes").set(
            sum(store.arena.nbytes for store in self._stores.values())
        )
        registry.gauge("store.hits").set(self.arena_stats.matrix_hits)
        registry.gauge("store.cells_priced").set(self.arena_stats.matrix_pairs_priced)
        registry.gauge("store.evictions").set(self.arena_stats.store_evictions)
        registry.gauge("store.columns").set(self.cached_store_columns)
        registry.gauge("store.cells").set(self.cached_store_cells)
