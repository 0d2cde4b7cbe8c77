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

**The random stream is the contract.**  :meth:`NeighborhoodSampler.sample`
makes these draws on ``self.rng``, in this order, and no others:

* per sample, ``uniform(0, Γ)`` for ``α``;
* per mutation chain (at most ``MUTATION_CHAINS``, fewer once the candidate
  list holds ``recent_pool_size + 4·max_query_set`` entries),
  ``integers(0, |W0|)`` for the source query and ``integers(1, 4)`` for the
  depth;
* per chain step — one module-level :func:`mutate_query` call —
  ``integers(0, sites)`` for the mutation site, then one ``random()`` that
  picks the replacement column by affinity weight (``integers(0, others)``
  without an affinity).  A site on a joined table's column, or on a table
  with no other column, draws no replacement: the step fails and ends the
  chain;
* per probe, ``choice(candidates, size=k, replace=False, p=...)``, up to
  ``ATTEMPTS_PER_SIZE`` times for each of three sizes ``k``.

Everything between the draws — how sites are counted, weights gathered,
statements rebuilt, when a candidate is formatted — may be rewritten while
``tests/test_sampler_bit_identity.py`` holds: its verbatim text-level chain
(parse → swap → format per step, ``Generator.choice`` over an options list)
is the oracle, and its recorded neighborhoods pin every SQL text, every
frequency and the generator's final state.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.catalog.schema import Schema, Table
from repro.sql.analyzer import analyze
from repro.sql.ast import (
    Aggregate,
    Assignment,
    ColumnRef,
    InsertStatement,
    OrderItem,
    SelectItem,
    SelectStatement,
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
#: Mutation chains started per sample (each 1-3 ``mutate_query`` steps).
MUTATION_CHAINS = 400


@dataclasses.dataclass(frozen=True)
class _TableLayout:
    """One table's columns laid out against a :class:`ColumnAffinity`."""

    #: Column name -> its index in the table's declaration order.
    position: dict[str, int]
    #: Observed column name -> its row of ``counts``.
    rows: dict[str, int]
    #: ``counts[rows[a], position[b]]``: how often ``a`` and ``b`` co-occurred.
    counts: np.ndarray

    def weights(self, context_columns: Iterable[str]) -> np.ndarray:
        """Per column, by position: 1 + total co-occurrence with the context.

        The counts are integer-valued, so the gather-and-sum is exact: the
        weights (and their sum) do not depend on summation order.
        """
        rows = [self.rows[c] for c in context_columns if c in self.rows]
        return np.add.reduce(self.counts.take(rows, axis=0), axis=0) + 1.0


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
        #: ``layout`` per table name, dropped by ``observe``.
        self._layouts: dict[str, _TableLayout] = {}

    def observe(self, queries) -> None:
        """Accumulate co-occurrence from an iterable of workload queries."""
        self._layouts.clear()
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

    def layout(self, table: Table) -> _TableLayout:
        """``table``'s columns against ``counts``, built on first use after
        ``observe``."""
        if table.name not in self._layouts:
            self._layouts[table.name] = self._layout_over(table.name, table.column_names)
        return self._layouts[table.name]

    def _layout_over(self, table: str, names: Sequence[str]) -> _TableLayout:
        position = {name: j for j, name in enumerate(names)}
        table_counts = self.counts.get(table, {})
        rows = {column: i for i, column in enumerate(table_counts)}
        counts = np.zeros((len(rows), len(names)), dtype=np.float64)
        for a, row in table_counts.items():
            for b, count in row.items():
                if b in position:
                    counts[rows[a], position[b]] = count
        return _TableLayout(position, rows, counts)

    def replacement_weights(
        self, table: str, context_columns: list[str], options: list[str]
    ) -> np.ndarray:
        """Sampling weights for replacement columns: 1 + total co-occurrence
        with the query's remaining columns, normalized.

        An empty ``options`` list (a single-column table offers no
        replacement) yields an empty weight array; normalizing it would
        divide zero by zero and return NaN with a RuntimeWarning.
        """
        weights = self._layout_over(table, options).weights(context_columns)
        return weights / weights.sum() if options else weights


def _weighted_draw(rng: np.random.Generator, weights: np.ndarray) -> int:
    """``rng.choice(len(weights), p=weights / weights.sum())``: the same
    arithmetic on the same single ``rng.random()``, minus ``choice``'s
    argument validation.  ``side="right"`` never lands on a zero weight."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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


def _context_columns(stmt: Statement) -> list[str]:
    """Bare names of the distinct columns ``stmt`` references — what
    ``analyze(stmt).union`` holds, read straight off the column refs (a
    bare DML column counts as the target table's, as in the analyzer)."""
    if isinstance(stmt, InsertStatement):
        refs = list(stmt.columns)
    else:
        refs = [pred.column for pred in stmt.where]
        if isinstance(stmt, UpdateStatement):
            refs += [assignment.column for assignment in stmt.assignments]
        elif isinstance(stmt, SelectStatement):
            exprs = [item.expr for item in stmt.select]
            refs += [e.column if isinstance(e, Aggregate) else e for e in exprs]
            refs += [ref for join in stmt.joins for ref in (join.left, join.right)]
            refs += stmt.group_by
            refs += [item.column for item in stmt.order_by]
    default = None if isinstance(stmt, SelectStatement) else stmt.table
    distinct = {(ref.table or default, ref.name) for ref in refs if ref is not None}
    return [name for _, name in distinct]


def _mutate_statement(
    stmt: Statement,
    schema: Schema,
    rng: np.random.Generator,
    affinity: ColumnAffinity | None,
) -> Statement | None:
    table = schema.tables.get(stmt.table)
    if table is None:
        return None

    def swap_ref(ref: ColumnRef) -> ColumnRef | None:
        if ref.table is not None and ref.table != stmt.table:
            return None  # only mutate anchor-table references
        # The swapped-out column keeps its slot and is skipped over (uniform
        # draw) or masked to weight 0 (affinity draw): the pick an options
        # list without it would give, minus building the list.
        names = table.column_names
        known = table.has_column(ref.name)
        if len(names) == known:
            return None  # no other column to swap in
        if affinity is None:
            pick = int(rng.integers(0, len(names) - known))
            if known and pick >= names.index(ref.name):
                pick += 1
        else:
            layout = affinity.layout(table)
            weights = layout.weights([c for c in _context_columns(stmt) if c != ref.name])
            if known:
                weights[layout.position[ref.name]] = 0.0
            pick = _weighted_draw(rng, weights)
        return ColumnRef(names[pick], ref.table)

    if not isinstance(stmt, SelectStatement):
        return _mutate_write(stmt, rng, swap_ref)

    # One draw over the mutation sites, clause by clause.  Select-list and
    # grouping sites are weighted up (two indices each) because analytical
    # drift changes the measures and breakdowns far more often than the
    # sticky business-key filters.
    select, where, group_by, order_by = stmt.select, stmt.where, stmt.group_by, stmt.order_by
    selectable = [
        i for i, item in enumerate(select)
        if isinstance(item.expr, ColumnRef) or item.expr.column is not None
    ]
    select_sites, group_sites = 2 * len(selectable), 2 * len(group_by)
    sites = select_sites + len(where) + group_sites + len(order_by)
    if not sites:
        return None
    site = int(rng.integers(0, sites))
    if site < select_sites:
        pos = selectable[site // 2]
        item = select[pos]
        aggregate = item.expr if isinstance(item.expr, Aggregate) else None
        new_ref = swap_ref(aggregate.column if aggregate else item.expr)
        if new_ref is None:
            return None
        if aggregate:
            new_ref = Aggregate(aggregate.func, new_ref, aggregate.distinct)
        select = _with(select, pos, SelectItem(new_ref, item.alias))
    elif (site := site - select_sites) < len(where):
        new_ref = swap_ref(where[site].column)
        if new_ref is None:
            return None
        where = _with(where, site, dataclasses.replace(where[site], column=new_ref))
    elif (site := site - len(where)) < group_sites:
        new_ref = swap_ref(group_by[site // 2])
        if new_ref is None:
            return None
        group_by = _with(group_by, site // 2, new_ref)
    else:
        item = order_by[site - group_sites]
        new_ref = swap_ref(item.column)
        if new_ref is None:
            return None
        order_by = _with(order_by, site - group_sites, OrderItem(new_ref, item.ascending))
    return SelectStatement(
        select, stmt.table, stmt.joins, where, group_by, order_by,
        stmt.limit, stmt.select_star,
    )


def _with(items: tuple, pos: int, item) -> tuple:
    """``items`` with the element at ``pos`` replaced."""
    return items[:pos] + (item,) + items[pos + 1 :]


def _mutate_write(stmt, rng: np.random.Generator, swap_ref):
    """Template-mutate one DML statement (the write analogue of drift).

    Writes drift the same way reads do — the *column set* shifts: an
    insert starts populating a different attribute, an update rewrites a
    different measure, a delete filters on a different key.  Written
    columns are weighted up (two site indices each) over locate predicates,
    and a swap that would collide with another referenced column is a failed
    attempt (``None``), mirroring the read path's contract.
    """
    if isinstance(stmt, InsertStatement):
        taken = {c.name for c in stmt.columns}
        pos = int(rng.integers(0, len(stmt.columns)))
        new_ref = swap_ref(stmt.columns[pos])
        if new_ref is None or new_ref.name in taken:
            return None
        return InsertStatement(stmt.table, _with(stmt.columns, pos, new_ref), stmt.rows)
    assignments = stmt.assignments if isinstance(stmt, UpdateStatement) else ()
    sites = 2 * len(assignments) + len(stmt.where)
    if not sites:
        return None
    site = int(rng.integers(0, sites))
    if site < 2 * len(assignments):
        taken = {a.column.name for a in assignments}
        assignment = assignments[site // 2]
        new_ref = swap_ref(assignment.column)
        if new_ref is None or new_ref.name in taken:
            return None
        assignment = Assignment(new_ref, assignment.value)
        return UpdateStatement(
            stmt.table, _with(assignments, site // 2, assignment), stmt.where
        )
    pos = site - 2 * len(assignments)
    new_ref = swap_ref(stmt.where[pos].column)
    if new_ref is None:
        return None
    pred = dataclasses.replace(stmt.where[pos], column=new_ref)
    return dataclasses.replace(stmt, where=_with(stmt.where, pos, pred))


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
        if recent_pool_size < 0:
            raise ValueError("recent_pool_size must be non-negative")
        self.recent_pool_size = recent_pool_size
        if not 1 <= min_query_set <= max_query_set:
            raise ValueError("need 1 <= min_query_set <= max_query_set")
        self.min_query_set = min_query_set
        self.max_query_set = max_query_set
        if not history_bias > 0:
            raise ValueError("history_bias must be positive")
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
        if count < 0:
            raise ValueError("count must be non-negative")
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
        # Historical candidates weighted up; the same vector for every pick.
        weights = np.ones(len(candidates), dtype=np.float64)
        weights[:pool_count] = self.history_bias
        weights /= weights.sum()
        base_count = max(base.total_weight, 1.0)
        best: Workload | None = None
        best_error = math.inf
        midpoint = (self.min_query_set + self.max_query_set) // 2
        sizes = sorted({self.min_query_set, midpoint, self.max_query_set})
        for k in sizes:
            for _ in range(ATTEMPTS_PER_SIZE):
                picks = self._pick_distinct(candidates, weights, k)
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
    ) -> tuple[list[WorkloadQuery | Statement], int]:
        """Pool queries (template-disjoint from the base) plus mutations.

        Returns the candidate list (historical templates first) and the
        count of historical entries, so picking can weight history up.
        A mutation stays a statement until ``_pick_distinct`` picks it.
        """
        clauses = self.distance.clauses
        statements = sources.statements
        candidates = list(sources.history)
        taken = set(sources.taken)
        # Always add affinity-guided mutations of the base's own queries:
        # fresh drift looks like an existing query with one related column
        # swapped, which history alone cannot supply.
        for _ in range(MUTATION_CHAINS):
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
            candidates.append(mutated)
            if len(candidates) >= self.recent_pool_size + self.max_query_set * 4:
                break
        return candidates, len(sources.history)

    def _pick_distinct(
        self, candidates: list[WorkloadQuery | Statement], weights: np.ndarray, k: int
    ) -> list[WorkloadQuery]:
        """Sample ``k`` distinct candidates with probabilities ``weights``;
        a mutation is formatted to SQL, in place, the first time it is picked."""
        if len(candidates) < k:
            return []
        picks = self.rng.choice(len(candidates), size=k, replace=False, p=weights)
        for i in picks:
            if not isinstance(candidates[i], WorkloadQuery):
                candidates[i] = WorkloadQuery(sql=format_statement(candidates[i]))
        return [candidates[i] for i in picks]
