"""Unified cost-evaluation service shared by all three design substrates.

CliffGuard's inner loop (Algorithm 2) evaluates ``f(W, D)`` for every
sampled neighbor under every candidate design; with the paper defaults
(n = 20 samples + the base workload, 5 iterations) the same queries are
re-costed hundreds of times per replay window even though neighbors
overwhelmingly share queries.  The paper itself stresses that what-if
cost calls dominate designer runtime (Figure 14), so this module puts
**one batching, instrumented layer** between the consumers (CliffGuard,
the baseline designers, the replay harness, the CLI) and the three
engine cost models.

The service only assumes the :class:`CostModel` protocol — ``profile``,
``query_cost``, ``workload_cost`` — which all three substrates
(:class:`repro.engine.optimizer.ColumnarCostModel`,
:class:`repro.rowstore.optimizer.RowstoreCostModel`,
:class:`repro.samples.optimizer.SamplesCostModel`) already satisfy, so
the batching is shared rather than re-implemented per engine.

Contract (see ``docs/cost_model.md`` for the prose version):

* **No cost is memoized.**  Every entry point collapses its request to
  distinct SQL and prices it; a caller that needs a cost twice keeps
  the one it was given.  What the service does keep is derived state —
  compiled workload arenas and the candidate-matrix cache — which
  depends only on the queries, the candidates and the model, is never
  exported, and cannot change a float or an exported counter.
* **Identity is content.**  A design's fingerprint digests the
  canonical DDL of its structures in deterministic order, and a
  candidate-matrix column is keyed by its structure's DDL text, so
  content-identical candidates share columns even when they are
  distinct objects.
* **One pricing path, in process.**  Every batched request is priced by
  :meth:`CostEvaluationService._price`: the request's arena bound to
  the design, or the scalar model below ``KERNEL_MIN_BATCH`` distinct
  queries.  The service never fans out inside a pricing call: the
  kernel reduction is ~1% of a design run's wall, so parallelism lives
  one level up, in the harness's whole-task fan-out and the serve
  daemon's background re-design (see :mod:`repro.parallel`).
* **Bit-identical results.**  Every float is the exact float the
  underlying cost model produces — the property tests in
  ``tests/test_costing_service.py`` assert equality, not closeness.
* **Explicit invalidation.**  The service never watches the cost model
  for mutation; callers that change statistics or cost constants must
  call :meth:`CostEvaluationService.clear`, which drops every arena and
  matrix column built from the old ones.
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

from repro.costing.kernel import kernel_for
from repro.costing.memo import BoundedMemo
from repro.costing.report import WorkloadCostReport
from repro.obs import MetricsRegistry, get_metrics, tracer

#: Requests with fewer distinct queries stay on the scalar path:
#: compiling the structure-of-arrays batch has fixed overhead that only
#: pays off once a vectorized call amortizes it over enough pairs.
KERNEL_MIN_BATCH = 8
#: Bound on the per-service workload-arena cache.  Arenas are per
#: distinct query set — one per replay window or neighborhood pool — and
#: a handful of windows are ever live at once; each holds the compiled
#: query-side arrays plus profiles, so the bound is deliberately small.
DEFAULT_MAX_ARENAS = 8
#: Bound on the candidate-matrix cache, in (candidate, query) cells
#: across every resident entry.  Sized for a designer-comparison run
#: (~1-2k candidates × ~500 distinct queries); the shrink policy drops
#: whole least-recently-used columns, never partial ones.
DEFAULT_MAX_MATRIX_CELLS = 2_000_000


@runtime_checkable
class CostModel(Protocol):
    """The what-if surface every engine cost model exposes.

    All three substrates satisfy this structurally; the service (and the
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


def query_fingerprint(sql: str) -> str:
    """Stable content hash of one query's exact SQL text."""
    return _digest("q", sql)


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
    #: Wall-clock seconds spent inside evaluation entry points.
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
    """Counters for the workload-arena and candidate-matrix caches.

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
    #: (candidate, query) cells served from the candidate-matrix cache
    #: instead of being re-priced by the kernel.
    matrix_hits: int = 0
    #: (candidate, query) cells the kernel actually priced into matrix
    #: columns (entry space: extension tails price ahead of requests).
    matrix_pairs_priced: int = 0
    #: Matrix entries grown in place to cover new SQL (arena extension
    #: instead of a from-scratch recompile).
    matrix_extends: int = 0
    #: Matrix columns dropped by the cell-budget LRU bound.
    matrix_evictions: int = 0
    # Read by benchmarks/e2e/spans.py (``getattr(arena_stats,
    # "delta_pairs_saved")``) and by nothing else: no path counts into
    # it, so it reads 0 until the ledger stops naming it.
    delta_pairs_saved: int = 0


# -- candidate-matrix cache -------------------------------------------------------


@dataclass
class _MatrixColumn:
    """One priced candidate column over a matrix entry's query rows.

    ``costs[q]`` is the matrix cell itself: the kernel's single-structure
    cost where ``price[q]`` is set, ``inf`` where the candidate cannot
    serve the query, and the entry's base cost elsewhere; ``price`` is
    the :meth:`candidate_frame` price mask for this candidate.  A column
    priced before its entry was extended is shorter than the entry —
    its tail is priced on the next request that needs it.
    """

    costs: np.ndarray
    price: np.ndarray


@dataclass
class _MatrixEntry:
    """Cached candidate-matrix state for one distinct-SQL tuple.

    Derived state, exactly like the arenas: entries hold their own
    arena reference (so an LRU-evicted arena stays alive while its
    matrix does), are never exported by
    :meth:`CostEvaluationService.export_state`, and are dropped by
    ``clear``.
    """

    key: str
    sqls: tuple[str, ...]
    profiles: list
    arena: object
    #: sql -> row in ``sqls`` (and in ``base`` / every full column).
    index: dict[str, int]
    #: (N,) empty-design costs, priced eagerly at build time.
    base: np.ndarray
    #: candidate DDL text (``str(structure)``) -> priced column,
    #: LRU-ordered (oldest first).
    columns: OrderedDict[str, _MatrixColumn]


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
        #: Arena/matrix counters — derived-state instrumentation,
        #: intentionally outside ``stats`` (see :class:`ArenaStats`).
        self.arena_stats = ArenaStats()
        #: arena key (digest of the distinct SQL tuple) -> compiled
        #: workload arena.  Derived state: never exported, rebuilt on
        #: demand after clear/resume.
        self._arenas = BoundedMemo(
            max_entries=DEFAULT_MAX_ARENAS, on_evict=self._arena_evicted
        )
        #: Candidate-matrix cache toggle: off, every ``candidate_costs``
        #: call re-prices the full matrix (the cold-rebuild baseline).
        #: Results and exported counters are identical either way.
        self.matrix_cache_enabled = True
        self.max_matrix_cells = DEFAULT_MAX_MATRIX_CELLS
        #: matrix key (digest of the distinct SQL tuple) -> cached
        #: candidate-matrix entry, LRU-ordered (oldest first).  Derived
        #: state: never exported, rebuilt on demand (see _MatrixEntry).
        self._matrix: OrderedDict[str, _MatrixEntry] = OrderedDict()
        #: Cells of every resident column, kept current where a column is
        #: added, tail-extended or evicted (an extended entry carries its
        #: predecessor's columns over; a dropped entry holds none).
        self._matrix_cells = 0

    def clear(self) -> None:
        """Drop every compiled arena and candidate-matrix entry.

        ``clear`` is the "cost model changed under me" escape hatch:
        arenas bake the model's statistics into their query-side arrays
        and matrix columns into their costs (matrix entries pin their
        own arena reference, so an empty arena cache does not imply an
        empty matrix; matrix drops are not counted as arena
        invalidations).
        """
        t = tracer()
        entries, columns = len(self._matrix), self.cached_matrix_columns
        self._matrix.clear()
        self._matrix_cells = 0
        if t.enabled and entries:
            t.emit("matrix_evict", reason="clear", entries=entries, columns=columns)
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
        long the run.  Compiled workload arenas, the candidate-matrix
        cache and :class:`ArenaStats` are not exported — all are derived
        state (pure functions of the queries, the candidates, and the
        model, rebuilt on demand after a resume), and folding their
        counters into the snapshot would make a resumed run's exported
        stats diverge from the uninterrupted run's even though every
        cost is identical.
        """
        return {"stats": self.stats.snapshot()}

    def import_state(self, state: dict) -> None:
        """Restore the counters from :meth:`export_state` in place;
        whatever arenas this service holds stay valid — they depend
        only on queries and the model."""
        self.stats = state["stats"].snapshot()

    # -- workload arenas ---------------------------------------------------------------

    @property
    def cached_arenas(self) -> int:
        return len(self._arenas)

    def _arena_evicted(self, key: str, _arena) -> None:
        self.arena_stats.evictions += 1
        t = tracer()
        if t.enabled:
            t.emit("arena_evict", reason="lru", key=key, arenas=1)

    def _arena_for(self, unique_sqls: tuple[str, ...], profiles=None):
        """The compiled workload arena for a distinct-SQL tuple.

        Resolution order: the exact key; then the most recently used
        resident arena that holds every requested text, served as its
        row-mapped view (``arena.take``) and cached under the exact key;
        then a compile, LRU-cached: queries are profiled (unless the
        caller already holds ``profiles``) and the kernel's
        ``compile_queries`` runs once.  Every later design bind against
        the same query set reuses the arrays.  A view prices exactly like
        a compile of its texts (every query-side value is per query), so
        which of the three served a request never shows in a cost.
        """
        key = _digest("a", *unique_sqls)
        arena = self._arenas.get(key)
        t = tracer()
        if arena is None:
            for _, resident in reversed(self._arenas.items()):
                if resident.query_count < len(unique_sqls):
                    continue
                row_of = resident.row_of
                if all(sql in row_of for sql in unique_sqls):
                    arena = self._arenas[key] = resident.take(
                        [row_of[sql] for sql in unique_sqls]
                    )
                    break
        if arena is not None:
            self.arena_stats.hits += 1
            if t.enabled:
                t.emit("arena_hit", key=key, queries=len(unique_sqls))
            return arena
        if profiles is None:
            profiles = [self.cost_model.profile(sql) for sql in unique_sqls]
        arena = self._arenas[key] = self.kernel.compile_queries(profiles)
        self.arena_stats.builds += 1
        if t.enabled:
            t.emit(
                "arena_build",
                key=key,
                substrate=self.kernel.name,
                queries=len(unique_sqls),
                bytes=arena.nbytes,
            )
        return arena

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

    # -- candidate-matrix cache --------------------------------------------------------

    @property
    def cached_matrix_columns(self) -> int:
        return sum(len(entry.columns) for entry in self._matrix.values())

    @property
    def cached_matrix_cells(self) -> int:
        return self._matrix_cells

    def _build_matrix_entry(self, sqls: tuple[str, ...], profiles) -> _MatrixEntry:
        """Compile a fresh matrix entry (arena + eager base costs)."""
        arena = self._arena_for(sqls, profiles=list(profiles))
        # ``base_costs`` depends only on the arena's query-side arrays,
        # so an empty bind prices it once for the entry's whole lifetime.
        base = np.asarray(self._bind(arena, []).base_costs(), dtype=np.float64)
        entry = _MatrixEntry(
            key=_digest("m", *sqls),
            sqls=sqls,
            profiles=list(profiles),
            arena=arena,
            index={sql: i for i, sql in enumerate(sqls)},
            base=base,
            columns=OrderedDict(),
        )
        if self.matrix_cache_enabled:
            self._matrix[entry.key] = entry
        return entry

    def _extend_matrix_entry(self, old: _MatrixEntry, sqls, profiles) -> _MatrixEntry:
        """Grow ``old`` in place of a recompile to cover new SQL.

        The arena over the concatenated text list comes from
        :meth:`_arena_for` — a view of a resident arena that holds every
        text (a CliffGuard design's neighborhood arena, typically), else
        a compile; either way every old row prices the same bits, so
        every already-priced column value stays valid — and the priced
        columns are carried over; their tails are priced lazily by the
        next request that asks for them.
        """
        prof_of = dict(zip(sqls, profiles))
        fresh = [sql for sql in sqls if sql not in old.index]
        all_sqls = old.sqls + tuple(fresh)
        del self._matrix[old.key]
        entry = self._build_matrix_entry(
            all_sqls, old.profiles + [prof_of[sql] for sql in fresh]
        )
        entry.columns.update(old.columns)
        self.arena_stats.matrix_extends += 1
        t = tracer()
        if t.enabled:
            t.emit(
                "matrix_extend",
                key=entry.key,
                queries=len(all_sqls),
                added=len(fresh),
                columns=len(old.columns),
            )
        return entry

    def _matrix_entry_for(self, sqls: tuple[str, ...], profiles, keys=()):
        """``(entry, rows)`` covering ``sqls`` (``rows=None`` = identity).

        Resolution order: exact key, then a resident superset entry
        (row-mapped), then extension of the entry sharing at least half
        the requested SQL, then a fresh build.  With the cache disabled
        every call builds an entry that is not retained — same pricing,
        same counters.

        ``keys`` — the request's candidate column keys — gates the
        superset and extension paths: serving a request through a
        *wider* entry prices every fresh candidate over the entry's
        full query axis, which only pays off when at least half the
        requested candidates are already priced columns.  A request
        whose candidates the entry has never seen (a designer minting
        fresh candidates per window) builds at its own width instead.
        """
        if not self.matrix_cache_enabled:
            return self._build_matrix_entry(sqls, profiles), None
        key = _digest("m", *sqls)
        entry = self._matrix.get(key)
        if entry is not None:
            self._matrix.move_to_end(key)
            return entry, None
        unique_keys = set(keys)

        def _warm_enough(other: _MatrixEntry) -> bool:
            priced = sum(1 for k in unique_keys if k in other.columns)
            return 2 * priced >= len(unique_keys)

        for other_key in reversed(self._matrix):
            other = self._matrix[other_key]
            if len(other.sqls) > len(sqls) and not _warm_enough(other):
                continue
            if all(sql in other.index for sql in sqls):
                self._matrix.move_to_end(other_key)
                rows = np.array([other.index[sql] for sql in sqls], dtype=np.intp)
                return other, rows
        best = None
        best_overlap = 0
        for other in self._matrix.values():
            overlap = sum(1 for sql in sqls if sql in other.index)
            if overlap > best_overlap:
                best, best_overlap = other, overlap
        if (
            best is not None
            and 2 * best_overlap >= len(sqls)
            and unique_keys
            and _warm_enough(best)
        ):
            entry = self._extend_matrix_entry(best, sqls, profiles)
            rows = np.array([entry.index[sql] for sql in sqls], dtype=np.intp)
            return entry, rows
        return self._build_matrix_entry(sqls, profiles), None

    def _price_columns(self, entry: _MatrixEntry, members, start: int = 0):
        """One priced :class:`_MatrixColumn` per member structure over
        ``entry``'s query rows ``[start:]`` (one bind for the group)."""
        batch = self._bind(entry.arena, members)
        if start:
            batch = batch.take(list(range(start, len(entry.sqls))))
        price, _ = batch.candidate_frame()
        costs = batch.candidate_costs(entry.base[start:])
        return [_MatrixColumn(costs=costs[j], price=price[j]) for j in range(len(members))]

    def _shrink_matrix(self) -> None:
        """Enforce the cell budget by dropping least-recently-used
        columns (then emptied entries), oldest entry first.  The sole
        resident entry's base is never dropped — it is almost certainly
        the one the current design stream is using."""
        t = tracer()
        while self._matrix and self._matrix_cells > self.max_matrix_cells:
            key = next(iter(self._matrix))
            entry = self._matrix[key]
            if entry.columns:
                _, column = entry.columns.popitem(last=False)
                self._matrix_cells -= column.costs.shape[0]
                self.arena_stats.matrix_evictions += 1
                if t.enabled:
                    t.emit("matrix_evict", reason="lru", key=key, columns=1)
                continue
            if len(self._matrix) == 1:
                break
            del self._matrix[key]

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

        Every batched entry point prices here, one way: the arena of the
        request's distinct-SQL tuple — a key stable across designs and
        iterations — is bound to the design.  Requests below
        ``KERNEL_MIN_BATCH``, and models without a kernel, are priced by
        the scalar model.  Kernel results are bit-identical to the
        scalar path (every kernel op is element-wise or a per-query
        reduction), so floats and counters never depend on which of the
        two priced a request.
        """
        if self.kernel is None or len(unique) < KERNEL_MIN_BATCH:
            costs = [self.cost_model.query_cost(sql, design) for sql in unique]
            self._charge(len(unique), self._count_write_sqls(unique))
            return costs
        batch = self._bind(self._arena_for(unique), list(design))
        costs = [float(cost) for cost in batch.design_costs()]
        self._charge(len(unique), int(batch.is_write.sum()), kernel=True)
        t = tracer()
        if t.enabled:
            t.emit(
                "kernel_batch",
                substrate=self.kernel.name,
                design=design_fingerprint(design),
                pairs=len(unique),
                structures=batch.structure_count,
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

        Both are fresh C-contiguous float64 arrays, on every resolution
        path: reductions over them (the bandit's BLAS calls) read the same
        bits whichever path served the request.

        Pricing goes through the bounded candidate-matrix cache: priced
        (candidate DDL text × arena) columns persist across calls, so
        a designer re-run over an arena-resident workload prices only
        the (query, candidate) pairs the cache has never seen — new SQL
        extends the resident entry (and each stale column's tail) in
        place of a recompile, new candidates price fresh columns, and a
        fully warm call reduces to assembling cached columns.  Results
        are bit-identical to a cold rebuild, and so is **every exported
        counter**: priced cells are charged as-if-cold on every call —
        the cache is derived state, invisible to checkpoints (see
        :meth:`export_state`); its savings land in :class:`ArenaStats`
        (``matrix_hits``) only.  Cells whose candidate is unrelated to
        the query keep the base cost without being priced (an off-table
        structure cannot change any access path); anchor-table
        candidates that cannot serve the query are ``inf``, exactly
        like the scalar designer.

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
            # A column is keyed by its candidate's DDL text: the content
            # identity a design fingerprint digests, read off the
            # structure without building a design around it (``keys``:
            # the caller already holds them).
            keys = [str(c) for c in candidates] if keys is None else list(keys)
            t = tracer()
            entry, rows = self._matrix_entry_for(sqls, profiles, keys)
            n_entry = len(entry.sqls)
            first_of: dict[str, int] = {}
            for i, key in enumerate(keys):
                first_of.setdefault(key, i)
            fresh = [key for key in first_of if key not in entry.columns]
            stale_groups: dict[int, list[str]] = {}
            for key in first_of:
                column = entry.columns.get(key)
                if column is not None and column.costs.shape[0] < n_entry:
                    stale_groups.setdefault(column.costs.shape[0], []).append(key)
            priced_entry_cells = 0
            added_cells = 0
            if fresh:
                members = [candidates[first_of[key]] for key in fresh]
                for key, column in zip(fresh, self._price_columns(entry, members)):
                    entry.columns[key] = column
                    priced_entry_cells += int(column.price.sum())
                added_cells += len(fresh) * n_entry
            for old_len in sorted(stale_groups):
                # Columns priced before the entry's last extension only
                # cover a prefix; price the missing tail rows, grouped by
                # prefix length so each group binds once.
                group = stale_groups[old_len]
                members = [candidates[first_of[key]] for key in group]
                tails = self._price_columns(entry, members, start=old_len)
                for key, tail in zip(group, tails):
                    column = entry.columns[key]
                    entry.columns[key] = _MatrixColumn(
                        costs=np.concatenate([column.costs, tail.costs]),
                        price=np.concatenate([column.price, tail.price]),
                    )
                    priced_entry_cells += int(tail.price.sum())
                added_cells += len(group) * (n_entry - old_len)
            if self._matrix.get(entry.key) is entry:
                # Only resident columns count against the budget (with the
                # cache off, the entry is not kept).
                self._matrix_cells += added_cells
            for key in first_of:
                entry.columns.move_to_end(key)
            columns = [entry.columns[key] for key in keys]
            if columns:
                matrix = np.stack([column.costs for column in columns])
                price = np.stack([column.price for column in columns])
            else:
                matrix = np.zeros((0, n_entry), dtype=np.float64)
                price = np.zeros((0, n_entry), dtype=bool)
            is_write = np.asarray(entry.arena.is_write, dtype=bool)
            if rows is None:
                base = entry.base.copy()
                rows = np.arange(n_entry, dtype=np.intp)
            else:
                # ``take`` keeps the row-mapped matrix C-contiguous; a
                # ``[:, rows]`` index would return it in Fortran order.
                base, is_write = entry.base[rows], is_write[rows]
                matrix = np.take(matrix, rows, axis=1)
                price = np.take(price, rows, axis=1)
            priced_request = int(price.sum())
            # As-if-cold accounting: every base cost and every priced cell
            # is one request and one raw evaluation on every call,
            # whatever the matrix cache served — exported stats must not
            # leak warmth.
            self._charge(
                len(sqls) + priced_request,
                int(is_write.sum()) + int((price & is_write[None, :]).sum()),
                kernel=True,
            )
            # Derived-state savings accounting (never exported): request
            # cells minus the cells this call actually priced.
            new_request = sum(int(price[first_of[key]].sum()) for key in fresh)
            for old_len, group in stale_groups.items():
                tail = rows >= old_len
                new_request += sum(int(price[first_of[key]][tail].sum()) for key in group)
            warm_cells = priced_request - new_request
            self.arena_stats.matrix_pairs_priced += priced_entry_cells
            self.arena_stats.matrix_hits += warm_cells
            if t.enabled:
                if warm_cells:
                    t.emit(
                        "matrix_hit",
                        key=entry.key,
                        cells=warm_cells,
                        candidates=len(candidates),
                        queries=len(sqls),
                    )
                t.emit(
                    "kernel_batch",
                    substrate=self.kernel.name,
                    queries=len(sqls),
                    structures=len(candidates),
                    pairs=len(sqls) + priced_request,
                )
            self._shrink_matrix()
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
        # A row-mapped view shares its access side with the arena it was
        # taken from: each array counts once.
        resident = {
            id(array): array.nbytes
            for _, arena in self._arenas.items()
            for array in arena.arrays()
        }
        registry.gauge("arena.resident_bytes").set(sum(resident.values()))
        registry.gauge("matrix.hits").set(self.arena_stats.matrix_hits)
        registry.gauge("matrix.pairs_priced").set(
            self.arena_stats.matrix_pairs_priced
        )
        registry.gauge("matrix.extends").set(self.arena_stats.matrix_extends)
        registry.gauge("matrix.evictions").set(self.arena_stats.matrix_evictions)
        registry.gauge("matrix.cached_columns").set(self.cached_matrix_columns)
        registry.gauge("matrix.cached_cells").set(self.cached_matrix_cells)

