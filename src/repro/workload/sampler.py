"""Γ-neighborhood sampling (paper Appendix B, Algorithm 4).

To explore the uncertainty region, CliffGuard needs ``n`` perturbed
workloads ``W_i`` with ``δ(W0, W_i) ≤ Γ``.  Algorithm 4 reduces this to
sampling a workload at one exact distance ``α``:

1. find a query set ``Q`` disjoint from ``W0`` (by template) with
   ``β = δ(W0, Q) > α``;
2. set ``λ = sqrt(α / β)`` and ``c = n·λ / (k·(1 − λ))`` where ``n`` is
   ``W0``'s query count and ``k = |Q|``;
3. return ``W1 = W0 ⊎ ⌊c⌋`` copies of every query in ``Q``.

Because ``δ_euclidean`` is quadratic in the frequency-difference vector,
the mixture puts exactly a ``λ`` fraction of mass on ``Q``'s templates, so
``δ(W0, W1) = λ² · β = α`` (up to the integer rounding of ``⌊c⌋``).

Perturbation queries mix a historical pool (distinct templates from the
query log, most recent first — recurrence is the predictable part of real
drift) with *template mutations* of ``W0``'s own queries (1–3 referenced
columns swapped for co-occurring columns of the same table — the novel
part).  Historical candidates are weighted up by ``history_bias`` when
drawing a perturbation set.

Mutation works on parsed statements: each base query is parsed once per
:meth:`NeighborhoodSampler.sample` call, the mutation chain walks the
AST, and only a candidate whose template survives the dedup is formatted
back to SQL.  ``tests/test_sampler_bit_identity.py`` holds the text-level
chain this replaced as the oracle: same SQL, same generator state.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from repro.catalog.schema import Schema
from repro.sql.analyzer import analyze
from repro.sql.ast import (
    Aggregate,
    ColumnRef,
    DeleteStatement,
    InsertStatement,
    OrderItem,
    SelectItem,
    Statement,
    UpdateStatement,
)
from repro.sql.formatter import format_statement
from repro.sql.parser import parse
from repro.workload.distance import WorkloadDistance
from repro.workload.query import WorkloadQuery
from repro.workload.workload import VectorKey, Workload, template_key

#: The paper reports finding a suitable Q "with a few trials for k ≤ 5";
#: we search larger query sets by default because real workload drift
#: spreads new mass over *many* templates, and a perturbation whose mass
#: rides on a single query is a heavily biased sample of the Γ-sphere
#: (the same finite-sample bias the paper's top-K worst-neighbor loosening
#: guards against, here on the sampling side).
MIN_QUERY_SET_SIZE = 16
MAX_QUERY_SET_SIZE = 48
ATTEMPTS_PER_SIZE = 8


class ColumnAffinity:
    """Column co-occurrence statistics learned from observed queries.

    Real workload drift swaps a column for a *related* column — one that
    analysts use together with the rest of the query's columns — not for an
    arbitrary column of the table.  The sampler learns that relatedness
    from the observable query history: ``counts[table][a][b]`` is how often
    columns ``a`` and ``b`` appeared in the same query template.
    """

    def __init__(self) -> None:
        self.counts: dict[str, dict[str, dict[str, float]]] = {}
        #: ``counts`` per table as (column -> index, matrix); see _dense_counts.
        self._dense: dict[str, tuple[dict[str, int], np.ndarray]] = {}

    def observe(self, queries) -> None:
        """Accumulate co-occurrence from an iterable of workload queries."""
        self._dense.clear()
        for query in queries:
            try:
                template = query.template
            except ValueError:
                continue
            per_table: dict[str, list[str]] = {}
            for qualified in template.union:
                table, _, column = qualified.partition(".")
                if column:
                    per_table.setdefault(table, []).append(column)
            for table, columns in per_table.items():
                table_counts = self.counts.setdefault(table, {})
                for a in columns:
                    row = table_counts.setdefault(a, {})
                    for b in columns:
                        if a != b:
                            row[b] = row.get(b, 0.0) + 1.0

    def _dense_counts(self, table: str) -> tuple[dict[str, int], np.ndarray]:
        """``counts[table]`` as an index map plus a square matrix, built on
        first use after ``observe``.  The extra all-zero row and column at
        ``len(index)`` stands for every column never observed."""
        dense = self._dense.get(table)
        if dense is None:
            table_counts = self.counts.get(table, {})
            index = {column: i for i, column in enumerate(table_counts)}
            matrix = np.zeros((len(index) + 1, len(index) + 1), dtype=np.float64)
            for a, row in table_counts.items():
                for b, count in row.items():
                    matrix[index[a], index[b]] = count
            dense = self._dense[table] = (index, matrix)
        return dense

    def replacement_weights(
        self, table: str, context_columns: list[str], options: list[str]
    ) -> np.ndarray:
        """Sampling weights for replacement columns: 1 + total co-occurrence
        with the query's remaining columns.

        The counts are integer-valued, so the gather-and-sum is exact: the
        weights do not depend on summation order.

        An empty ``options`` list (a single-column table offers no
        replacement) yields an empty weight array; normalizing it would
        divide zero by zero and return NaN with a RuntimeWarning.
        """
        weights = np.ones(len(options), dtype=np.float64)
        if not options:
            return weights
        index, matrix = self._dense_counts(table)
        rows = [index[c] for c in context_columns if c in index]
        columns = [index.get(o, len(index)) for o in options]
        weights += matrix[rows].sum(axis=0)[columns]
        return weights / weights.sum()


def mutate_query(
    query: str | Statement,
    schema: Schema,
    rng: np.random.Generator,
    affinity: ColumnAffinity | None = None,
) -> str | Statement | None:
    """Swap one referenced column for a sibling column of the same table.

    SQL text in, SQL text out; a parsed statement in, a statement out (so
    the sampler's chain stays on the AST — equivalent to the text form step
    by step, by the formatter's round-trip guarantee).  Returns ``None``
    when the query offers nothing to mutate.  With an :class:`ColumnAffinity`, the
    replacement is drawn from columns that co-occur with the query's other
    columns — the way real analytical queries actually drift (same shape,
    a related column).  The literal of a mutated predicate is kept as-is:
    template distances only see column sets.
    """
    if not isinstance(query, str):
        return _mutate_statement(query, schema, rng, affinity)
    try:
        stmt = parse(query)
    except ValueError:
        return None
    mutated = _mutate_statement(stmt, schema, rng, affinity)
    return None if mutated is None else format_statement(mutated)


def _mutate_statement(
    stmt: Statement,
    schema: Schema,
    rng: np.random.Generator,
    affinity: ColumnAffinity | None,
) -> Statement | None:
    table = schema.tables.get(stmt.table)
    if table is None:
        return None

    context_columns = [
        qualified.partition(".")[2] or qualified
        for qualified in analyze(stmt).union
    ]

    def sibling(name: str) -> str | None:
        options = [c for c in table.column_names if c != name]
        if not options:
            return None
        if affinity is not None:
            context = [c for c in context_columns if c != name]
            weights = affinity.replacement_weights(stmt.table, context, options)
            return options[int(rng.choice(len(options), p=weights))]
        return options[int(rng.integers(0, len(options)))]

    def swap_ref(ref: ColumnRef) -> ColumnRef | None:
        if ref.table is not None and ref.table != stmt.table:
            return None  # only mutate anchor-table references
        replacement = sibling(ref.name)
        if replacement is None:
            return None
        return ColumnRef(replacement, ref.table)

    if isinstance(stmt, (InsertStatement, UpdateStatement, DeleteStatement)):
        return _mutate_write(stmt, rng, swap_ref)

    # Collect mutation sites: (kind, position) pairs.  Select-list and
    # grouping sites are weighted up (entered twice) because analytical
    # drift changes the measures and breakdowns far more often than the
    # sticky business-key filters.
    sites: list[tuple[str, int]] = []
    for i, item in enumerate(stmt.select):
        if isinstance(item.expr, ColumnRef) or (
            isinstance(item.expr, Aggregate) and item.expr.column is not None
        ):
            sites.append(("select", i))
            sites.append(("select", i))
    sites.extend(("where", i) for i in range(len(stmt.where)))
    for i in range(len(stmt.group_by)):
        sites.append(("group", i))
        sites.append(("group", i))
    sites.extend(("order", i) for i in range(len(stmt.order_by)))
    if not sites:
        return None

    kind, pos = sites[int(rng.integers(0, len(sites)))]
    if kind == "select":
        item = stmt.select[pos]
        if isinstance(item.expr, Aggregate):
            new_ref = swap_ref(item.expr.column)
            if new_ref is None:
                return None
            new_expr: ColumnRef | Aggregate = dataclasses.replace(
                item.expr, column=new_ref
            )
        else:
            new_ref = swap_ref(item.expr)
            if new_ref is None:
                return None
            new_expr = new_ref
        select = list(stmt.select)
        select[pos] = SelectItem(expr=new_expr, alias=item.alias)
        stmt = dataclasses.replace(stmt, select=tuple(select))
    elif kind == "where":
        pred = stmt.where[pos]
        new_ref = swap_ref(pred.column)
        if new_ref is None:
            return None
        where = list(stmt.where)
        where[pos] = dataclasses.replace(pred, column=new_ref)
        stmt = dataclasses.replace(stmt, where=tuple(where))
    elif kind == "group":
        new_ref = swap_ref(stmt.group_by[pos])
        if new_ref is None:
            return None
        group = list(stmt.group_by)
        group[pos] = new_ref
        stmt = dataclasses.replace(stmt, group_by=tuple(group))
    else:
        item = stmt.order_by[pos]
        new_ref = swap_ref(item.column)
        if new_ref is None:
            return None
        order = list(stmt.order_by)
        order[pos] = OrderItem(column=new_ref, ascending=item.ascending)
        stmt = dataclasses.replace(stmt, order_by=tuple(order))
    return stmt


def _mutate_write(stmt, rng: np.random.Generator, swap_ref):
    """Template-mutate one DML statement (the write analogue of drift).

    Writes drift the same way reads do — the *column set* shifts: an
    insert starts populating a different attribute, an update rewrites a
    different measure, a delete filters on a different key.  Written
    columns are weighted up (entered twice) over locate predicates, and
    a swap that would collide with another referenced column is a failed
    attempt (``None``), mirroring the read path's contract.
    """
    if isinstance(stmt, InsertStatement):
        taken = {c.name for c in stmt.columns}
        pos = int(rng.integers(0, len(stmt.columns)))
        new_ref = swap_ref(stmt.columns[pos])
        if new_ref is None or new_ref.name in taken:
            return None
        columns = list(stmt.columns)
        columns[pos] = new_ref
        return dataclasses.replace(stmt, columns=tuple(columns))
    sites: list[tuple[str, int]] = []
    if isinstance(stmt, UpdateStatement):
        for i in range(len(stmt.assignments)):
            sites.append(("set", i))
            sites.append(("set", i))
    sites.extend(("where", i) for i in range(len(stmt.where)))
    if not sites:
        return None
    kind, pos = sites[int(rng.integers(0, len(sites)))]
    if kind == "set":
        taken = {a.column.name for a in stmt.assignments}
        assignment = stmt.assignments[pos]
        new_ref = swap_ref(assignment.column)
        if new_ref is None or new_ref.name in taken:
            return None
        assignments = list(stmt.assignments)
        assignments[pos] = dataclasses.replace(assignment, column=new_ref)
        stmt = dataclasses.replace(stmt, assignments=tuple(assignments))
    else:
        pred = stmt.where[pos]
        new_ref = swap_ref(pred.column)
        if new_ref is None:
            return None
        where = list(stmt.where)
        where[pos] = dataclasses.replace(pred, column=new_ref)
        stmt = dataclasses.replace(stmt, where=tuple(where))
    return stmt


@dataclasses.dataclass(frozen=True)
class _CandidateSources:
    """What candidate generation reads; see ``_candidate_sources``."""

    #: The base workload's queries, parsed, in workload order.
    statements: list[Statement]
    #: Template-distinct pool queries at unit frequency, most recent first.
    history: list[WorkloadQuery]
    #: Template keys a mutation may not land on: the base's and history's.
    taken: frozenset[VectorKey]
    #: Column co-occurrence over the base plus the recent pool.
    affinity: ColumnAffinity


class NeighborhoodSampler:
    """Samples perturbed workloads in the Γ-neighborhood of a workload."""

    def __init__(
        self,
        distance: WorkloadDistance,
        schema: Schema,
        pool: Sequence[WorkloadQuery] = (),
        seed: int = 0,
        recent_pool_size: int = 400,
        min_query_set: int = MIN_QUERY_SET_SIZE,
        max_query_set: int = MAX_QUERY_SET_SIZE,
        history_bias: float = 3.0,
    ):
        self.distance = distance
        self.schema = schema
        self.pool = list(pool)
        self.rng = np.random.default_rng(seed)
        self.recent_pool_size = recent_pool_size
        if not 1 <= min_query_set <= max_query_set:
            raise ValueError("need 1 <= min_query_set <= max_query_set")
        self.min_query_set = min_query_set
        self.max_query_set = max_query_set
        #: How much likelier a historical template is to enter a perturbed
        #: workload than a synthesized mutation.  Real drift is largely
        #: recurrence (the generator's revival channel), and recurrence is
        #: measurable from the query history, so the sampler leans on it.
        self.history_bias = history_bias

    def set_pool(self, queries: Sequence[WorkloadQuery]) -> None:
        """Replace the perturbation pool (e.g. with only-past queries)."""
        self.pool = list(queries)

    # -- Algorithm 4 -------------------------------------------------------------

    def sample(self, base: Workload, gamma: float, count: int) -> list[Workload]:
        """``count`` workloads at uniformly random distances in ``[0, Γ]``."""
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        # Nothing below Γ = 0 (or under an empty base) reads the sources.
        sources = self._candidate_sources(base) if gamma > 0.0 and base else None
        samples: list[Workload] = []
        for _ in range(count):
            alpha = float(self.rng.uniform(0.0, gamma))
            samples.append(self._sample_from(base, alpha, sources))
        return samples

    def sample_at(self, base: Workload, alpha: float) -> Workload:
        """One workload at distance ≈ ``alpha`` from ``base``."""
        return self._sample_from(base, alpha, None)

    def _sample_from(
        self, base: Workload, alpha: float, sources: _CandidateSources | None
    ) -> Workload:
        if alpha <= 0.0 or not base:
            return Workload(list(base))
        if sources is None:
            sources = self._candidate_sources(base)
        candidates, pool_count = self._candidate_queries(sources)
        if not candidates:
            return Workload(list(base))
        base_count = max(base.total_weight, 1.0)
        best: Workload | None = None
        best_error = math.inf
        midpoint = (self.min_query_set + self.max_query_set) // 2
        sizes = sorted({self.min_query_set, midpoint, self.max_query_set})
        for k in sizes:
            for _ in range(ATTEMPTS_PER_SIZE):
                picks = self._pick_distinct(candidates, pool_count, k)
                if len(picks) < k:
                    break
                probe = Workload(picks)
                # The probe is template-disjoint from the base by
                # construction, so the decomposed fast path applies.
                beta = self.distance.disjoint_distance(base, probe)
                if beta <= alpha:
                    continue
                lam = math.sqrt(alpha / beta)
                if lam >= 1.0:
                    continue
                copies = math.floor(base_count * lam / (k * (1.0 - lam)))
                if copies < 1:
                    continue
                moved = Workload(
                    list(base)
                    + [q.with_frequency(q.frequency * copies) for q in picks]
                )
                # δ(base, moved) = μ²·β exactly, where μ is the probe's
                # mass fraction in the mixture (see the module docstring);
                # no extra O(T²) distance evaluation is needed.
                mass = k * copies
                mu = mass / (base_count + mass)
                achieved = mu * mu * beta
                error = abs(achieved - alpha)
                if error < best_error:
                    best, best_error = moved, error
                if error <= 0.1 * alpha:
                    return moved
            if best is not None:
                return best
        return best if best is not None else Workload(list(base))

    # -- candidate machinery -----------------------------------------------------

    def _candidate_sources(self, base: Workload) -> _CandidateSources:
        """What candidate generation reads and draws no randomness for: a
        function of ``(base, pool)`` alone, built once per :meth:`sample`.

        Disjointness is checked under the *distance metric's* clause spec so
        the decomposed fast path in :meth:`WorkloadDistance.disjoint_distance`
        is exact.
        """
        clauses = self.distance.clauses
        taken = self.distance.template_keys(base)
        history: list[WorkloadQuery] = []
        # History first, most recent first: templates that ran before but
        # are absent from the current window are plausible comebacks, and
        # recently retired ones are the likeliest.  Deduplicating by
        # template lets the scan reach months back within the candidate
        # budget instead of stopping at the last few days.
        for query in reversed(self.pool):
            if len(history) >= self.recent_pool_size:
                break
            try:
                template = query.template
            except ValueError:
                continue
            if template.is_empty:
                continue
            key = template_key(template, clauses)
            if key in taken:
                continue
            taken.add(key)
            history.append(query.with_frequency(1.0))
        affinity = ColumnAffinity()
        affinity.observe(base)
        affinity.observe(self.pool[-self.recent_pool_size :])
        statements = [parse(query.sql) for query in base]
        return _CandidateSources(statements, history, frozenset(taken), affinity)

    def _candidate_queries(
        self, sources: _CandidateSources
    ) -> tuple[list[WorkloadQuery], int]:
        """Pool queries (template-disjoint from the base) plus mutations.

        Returns the candidate list (historical templates first) and the
        count of historical entries, so picking can weight history up.
        """
        clauses = self.distance.clauses
        statements = sources.statements
        candidates = list(sources.history)
        taken = set(sources.taken)
        # Always add affinity-guided mutations of the base's own queries:
        # fresh drift looks like an existing query with one related column
        # swapped, which history alone cannot supply.
        for _ in range(400):
            source = int(self.rng.integers(0, len(statements)))
            # Future drift is several mutation steps away from the current
            # window, so perturbation queries are mutated 1-3 times.
            depth = int(self.rng.integers(1, 4))
            mutated: Statement | None = statements[source]
            for _ in range(depth):
                mutated = mutate_query(mutated, self.schema, self.rng, sources.affinity)
                if mutated is None:
                    break
            if mutated is None:
                continue
            template = analyze(mutated)
            if template.is_empty:
                continue
            key = template_key(template, clauses)
            if key in taken:
                continue
            taken.add(key)
            candidates.append(WorkloadQuery(sql=format_statement(mutated)))
            if len(candidates) >= self.recent_pool_size + self.max_query_set * 4:
                break
        return candidates, len(sources.history)

    def _pick_distinct(
        self, candidates: list[WorkloadQuery], pool_count: int, k: int
    ) -> list[WorkloadQuery]:
        """Sample ``k`` distinct candidates, historical ones weighted up."""
        if len(candidates) < k:
            return []
        weights = np.ones(len(candidates), dtype=np.float64)
        weights[:pool_count] = self.history_bias
        weights /= weights.sum()
        picks = self.rng.choice(len(candidates), size=k, replace=False, p=weights)
        return [candidates[int(i)] for i in picks]
