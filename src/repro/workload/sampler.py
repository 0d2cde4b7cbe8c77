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

* ``uniform(0, Γ, size=n)`` for the ``n`` samples' ``α`` (the same doubles
  as ``n`` scalar draws);
* once per call, and only when some ``α > 0`` under a non-empty base — the
  candidate pool every sample picks from:

  * ``integers(0, |W0|, size=MUTATION_CHAINS)`` for the chains' source
    queries, then ``integers(1, 4, size=MUTATION_CHAINS)`` for their
    depths;
  * per chain step, chain by chain (fewer chains once the candidate list
    holds ``recent_pool_size + 4·max_query_set`` entries) — one
    module-level :func:`mutate_query` call — ``integers(0, sites)`` for the
    mutation site, then one ``random()`` that picks the replacement column
    by affinity weight (``integers(0, others)`` without an affinity).  A
    site on a joined table's column, or on a table with no other column,
    draws no replacement: the step fails and ends the chain;

* per sample with ``α > 0``, per probe, ``choice(candidates, size=k,
  replace=False, p=...)``, up to ``ATTEMPTS_PER_SIZE`` times for each of
  three sizes ``k``.

:meth:`NeighborhoodSampler.sample_at` is ``sample`` after its ``α`` draw:
the pool, then one sample's probes.  The pool is a local of one call;
nothing of it outlives the call.

Everything between the draws — how sites are counted, weights gathered,
statements rebuilt, when a candidate is formatted — may be rewritten while
``tests/test_sampler_bit_identity.py`` holds: its verbatim text-level chain
(parse → swap → format per step, ``Generator.choice`` over an options list)
is the oracle of a chain step, and its recorded neighborhoods pin every SQL
text, every frequency and the generator's final state.

No chain step touches an AST.  :meth:`NeighborhoodSampler.sample` parses
each distinct base text once (or takes the statement from its caller's
``statements``) and compiles each base query into a :class:`_Chain`: its column
refs as one flat list of names, its mutation sites as indices into that
list, the multiplicity of every distinct qualified ref, and ``totals``, the
replacement weights with nothing swapped out (1 + the affinity rows of
those refs, summed; statements with the same distinct refs share one
array).  A step swaps one name, adjusts ``totals`` by at most two rows, and
weighs the swap as ``totals − k·row`` for the ``k`` distinct refs that share
the swapped-out name; the counts are integers, so these are the floats the
per-step gather gave.  A chain's template key is read off its refs — under
SWGO, the distinct qualified names themselves; under any other spec, a
:class:`QueryTemplate` built from the refs clause by clause — and only a
candidate a probe picks becomes a statement and SQL, once, however many
samples pick it.  A probe's template vector is built from its candidates'
keys (:meth:`Workload.keyed`), so no picked text is parsed again; the
caller's ``statements`` receives the statement of each pick a returned
sample holds.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.catalog.schema import Schema, Table
from repro.sql.analyzer import QueryTemplate
from repro.sql.ast import (
    Aggregate,
    Assignment,
    ColumnRef,
    DeleteStatement,
    InsertStatement,
    OrderItem,
    SelectItem,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.sql.formatter import format_statement
from repro.sql.parser import parse
from repro.workload.distance import SWGO, WorkloadDistance
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
#: Mutation chains started per :meth:`NeighborhoodSampler.sample` call (each
#: 1-3 ``mutate_query`` steps); every sample of the call picks from them.
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
    query: str | Statement | _Chain,
    schema: Schema,
    rng: np.random.Generator,
    affinity: ColumnAffinity | None = None,
) -> str | Statement | _Chain | None:
    """Swap one referenced column for a sibling column of the same table.

    SQL text in, SQL text out; a parsed statement in, a statement out; a
    :class:`_Chain` in, the chain's next state out (the sampler's form: a
    chain carries the table and affinity it was compiled against, so
    ``schema`` and ``affinity`` are not read again).  The three take the
    same step on the same compiled chain.  Returns ``None`` when the query
    offers nothing to mutate.  With a :class:`ColumnAffinity`, the
    replacement is drawn from columns that co-occur with the query's other
    columns — the way real analytical queries actually drift (same shape, a
    related column).  The literal of a mutated predicate is kept as-is:
    template distances only see column sets.
    """
    if isinstance(query, _Chain):
        return query.step(rng)
    if isinstance(query, str):
        try:
            stmt = parse(query)
        except ValueError:
            return None
    else:
        stmt = query
    mutated = _Chain.compile(stmt, schema, affinity).step(rng)
    if mutated is None:
        return None
    stmt = mutated.statement()
    return format_statement(stmt) if isinstance(query, str) else stmt


def _twice(indices: range) -> list[int]:
    return [i for i in indices for _ in (0, 1)]


@dataclasses.dataclass(frozen=True, eq=False)
class _Shape:
    """What no step of a chain changes: its base statement, compiled.

    The statement's column refs sit in one flat list, clause by clause:
    select, where, group by, order by, then join keys (context only, never
    a site).  A DML statement's list is its written columns (INSERT list or
    UPDATE targets), then its predicates.
    """

    #: The base statement, rebuilt around the swapped refs on a pick.
    stmt: Statement
    #: The anchor table, or ``None`` when the schema does not define it.
    table: Table | None
    #: The anchor table against the affinity; ``None`` draws uniformly.
    layout: _TableLayout | None
    #: Per ref: its table as written (a swap keeps the qualifier).
    tables: tuple[str | None, ...]
    #: Per ref: ``"table."`` as the template qualifies it, or ``""``
    #: (a bare DML column is the target table's, as in the analyzer).
    prefixes: tuple[str, ...]
    #: The distinct ``prefixes``: every scope a swapped-out name may also
    #: be counted under, so ``k`` never exceeds their number.
    scopes: tuple[str, ...]
    #: Per ref: its base name, which a render keeps the AST node for.
    names: tuple[str, ...]
    #: Mutation sites as ref indices: 2 per selectable item, 1 per WHERE
    #: predicate, 2 per GROUP BY column, 1 per ORDER BY item; for DML, 2 per
    #: assignment or 1 per INSERT column, then 1 per predicate.
    sites: tuple[int, ...]
    #: Refs ``[0, written)`` are DML written columns: a swap onto the name
    #: of one of them is a failed step.
    written: int
    #: Where the select, where, group-by and order-by refs end.
    bounds: tuple[int, int, int, int]


class _Chain:
    """One state of a mutation chain: a compiled statement's refs, swapped
    one name at a time in place of a rebuilt AST (module docstring)."""

    __slots__ = ("shape", "names", "counts", "totals")

    def __init__(
        self,
        shape: _Shape,
        names: list[str],
        counts: dict[str, int],
        totals: np.ndarray | None,
    ):
        self.shape = shape
        #: Per ref: its column name now.
        self.names = names
        #: Qualified ref -> how many refs read it.  The keys are the
        #: statement's distinct columns: its SWGO template key.
        self.counts = counts
        #: Per column of the table: 1 + its co-occurrence with every
        #: distinct ref — ``layout.weights`` of the whole context.
        self.totals = totals

    @classmethod
    def compile(
        cls,
        stmt: Statement,
        schema: Schema,
        affinity: ColumnAffinity | None,
        shared: dict | None = None,
    ) -> _Chain:
        """``stmt`` as a chain's first state.  ``shared`` (context ->
        ``totals``) lets statements with the same distinct refs share one
        array."""
        if isinstance(stmt, SelectStatement):
            exprs = [item.expr for item in stmt.select]
            select = [e.column if isinstance(e, Aggregate) else e for e in exprs]
            select = [ref for ref in select if ref is not None]
            where = [pred.column for pred in stmt.where]
            group = list(stmt.group_by)
            order = [item.column for item in stmt.order_by]
            joins = [ref for join in stmt.joins for ref in (join.left, join.right)]
            refs = select + where + group + order + joins
            s = len(select)
            w = s + len(where)
            g = w + len(group)
            o = g + len(order)
            sites = _twice(range(s)) + list(range(s, w)) + _twice(range(w, g)) + list(range(g, o))
            written, bounds = 0, (s, w, g, o)
            prefixes = tuple(f"{ref.table}." if ref.table else "" for ref in refs)
        else:
            if isinstance(stmt, InsertStatement):
                targets, where = list(stmt.columns), []
                sites = list(range(len(targets)))
            else:
                assignments = stmt.assignments if isinstance(stmt, UpdateStatement) else ()
                targets = [assignment.column for assignment in assignments]
                where = [pred.column for pred in stmt.where]
                sites = _twice(range(len(targets))) + list(
                    range(len(targets), len(targets) + len(where))
                )
            refs = targets + where
            written, bounds = len(targets), (len(targets), len(refs), len(refs), len(refs))
            prefixes = tuple(f"{ref.table or stmt.table}." for ref in refs)
        names = [ref.name for ref in refs]
        distinct: dict[str, str] = {}
        counts: dict[str, int] = {}
        for prefix, name in zip(prefixes, names):
            key = prefix + name
            distinct[key] = name
            counts[key] = counts.get(key, 0) + 1
        table = schema.tables.get(stmt.table)
        layout = totals = None
        if affinity is not None and table is not None:
            layout = affinity.layout(table)
            context = (table.name, frozenset(distinct))
            totals = None if shared is None else shared.get(context)
            if totals is None:
                totals = layout.weights(distinct.values())
                if shared is not None:
                    shared[context] = totals
        shape = _Shape(
            stmt, table, layout, tuple(ref.table for ref in refs), prefixes,
            tuple(dict.fromkeys(prefixes)), tuple(names), tuple(sites), written, bounds,
        )
        return cls(shape, names, counts, totals)

    def step(self, rng: np.random.Generator) -> _Chain | None:
        """One mutation: the site draw, then the replacement draw."""
        shape = self.shape
        table, sites = shape.table, shape.sites
        if table is None or not sites:
            return None
        slot = sites[int(rng.integers(0, len(sites)))]
        qualifier = shape.tables[slot]
        if qualifier is not None and qualifier != shape.stmt.table:
            return None  # only mutate anchor-table references
        # The swapped-out column keeps its slot and is skipped over (uniform
        # draw) or masked to weight 0 (affinity draw): the pick an options
        # list without it would give, minus building the list.
        columns = table.column_names
        old = self.names[slot]
        known = table.has_column(old)
        if len(columns) == known:
            return None  # no other column to swap in
        if shape.layout is None:
            pick = int(rng.integers(0, len(columns) - known))
            if known and pick >= columns.index(old):
                pick += 1
        else:
            pick = _weighted_draw(rng, self.weights(old))
        new = columns[pick]
        if slot < shape.written and new in self.names[: shape.written]:
            return None  # a DML swap onto another written column
        return self._swapped(slot, old, new)

    def weights(self, name: str) -> np.ndarray:
        """Replacement weights for swapping out a ref named ``name``:
        ``layout.weights`` of every other distinct ref's name, with
        ``name``'s own column masked to 0.

        Every distinct ref named ``name`` leaves the context, and each put
        its row into ``totals`` once.  The counts are integers, so the
        subtraction is exact.
        """
        layout = self.shape.layout
        row = layout.rows.get(name)
        if row is None:
            weights = self.totals.copy()
        else:
            scopes = self.shape.scopes
            k = 1 if len(scopes) == 1 else sum(s + name in self.counts for s in scopes)
            counts = layout.counts[row]
            weights = self.totals - (counts if k == 1 else k * counts)
        position = layout.position.get(name)
        if position is not None:
            weights[position] = 0.0
        return weights

    def _swapped(self, slot: int, old: str, new: str) -> _Chain:
        """The next state: ref ``slot`` renamed ``old`` → ``new``."""
        shape = self.shape
        names = self.names.copy()
        names[slot] = new
        counts = self.counts.copy()
        prefix = shape.prefixes[slot]
        gone, came = prefix + old, prefix + new
        left = counts.pop(gone) - 1
        if left:
            counts[gone] = left
        already = counts.get(came, 0)
        counts[came] = already + 1
        totals = self.totals
        if totals is not None:
            rows, matrix = shape.layout.rows, shape.layout.counts
            if not left and old in rows:
                totals = totals - matrix[rows[old]]
            if not already and new in rows:
                totals = totals + matrix[rows[new]]
        return _Chain(shape, names, counts, totals)

    def key(self, clauses: Sequence[str] | str) -> VectorKey | None:
        """``template_key(analyze(statement), clauses)``, read off the refs;
        ``None`` when the statement references no column at all (an empty
        template, which the sampler skips — an empty key under a restricted
        spec is still a key)."""
        if not self.counts:
            return None
        if clauses == SWGO:
            return frozenset(self.counts)
        return template_key(self.template(), clauses)

    def template(self) -> QueryTemplate:
        """``analyze(self.statement())``, read off the refs."""
        shape = self.shape
        refs = [prefix + name for prefix, name in zip(shape.prefixes, self.names)]
        s, w, g, o = shape.bounds
        return QueryTemplate(
            select=frozenset(refs[:s]),
            where=frozenset(refs[s:w] + refs[o:]),  # join keys filter too
            group_by=frozenset(refs[w:g]),
            order_by=frozenset(refs[g:o]),
        )

    def statement(self) -> Statement:
        """The base statement with every swapped ref put in."""
        shape = self.shape
        stmt = shape.stmt
        refs = iter([
            None if name == base else ColumnRef(name, table)
            for name, base, table in zip(self.names, shape.names, shape.tables)
        ])
        if isinstance(stmt, InsertStatement):
            return InsertStatement(stmt.table, _replaced(stmt.columns, refs, _ref), stmt.rows)
        if isinstance(stmt, UpdateStatement):
            assignments = _replaced(
                stmt.assignments, refs, lambda assignment, ref: Assignment(ref, assignment.value)
            )
            return UpdateStatement(stmt.table, assignments, _replaced(stmt.where, refs, _predicate))
        if isinstance(stmt, DeleteStatement):
            return DeleteStatement(stmt.table, _replaced(stmt.where, refs, _predicate))
        select = []
        for item in stmt.select:
            expr = item.expr
            if isinstance(expr, ColumnRef) or expr.column is not None:
                ref = next(refs)
                if ref is not None:
                    if isinstance(expr, Aggregate):
                        ref = Aggregate(expr.func, ref, expr.distinct)
                    item = SelectItem(ref, item.alias)
            select.append(item)
        return SelectStatement(
            tuple(select),
            stmt.table,
            stmt.joins,
            _replaced(stmt.where, refs, _predicate),
            _replaced(stmt.group_by, refs, _ref),
            _replaced(
                stmt.order_by, refs, lambda item, ref: OrderItem(ref, item.ascending)
            ),
            stmt.limit,
            stmt.select_star,
        )


def _replaced(nodes: tuple, refs, rebuild) -> tuple:
    """``nodes``, each rebuilt around the next of ``refs`` unless that is
    ``None`` (the node still reads its base column)."""
    return tuple(node if (ref := next(refs)) is None else rebuild(node, ref) for node in nodes)


def _ref(_node, ref: ColumnRef) -> ColumnRef:
    return ref


def _predicate(pred, ref: ColumnRef):
    return dataclasses.replace(pred, column=ref)


@dataclasses.dataclass(frozen=True)
class _CandidateSources:
    """What candidate generation reads; see ``_candidate_sources``."""

    #: The base workload's queries, compiled against the schema and the
    #: column co-occurrence of the base plus the recent pool, in workload
    #: order.
    chains: list[_Chain]
    #: Template-distinct pool queries at unit frequency, most recent first.
    history: list[WorkloadQuery]
    #: Their template keys under the metric's clause spec, in order.
    history_keys: list[VectorKey]
    #: Template keys a mutation may not land on: the base's and history's.
    taken: frozenset[VectorKey]


@dataclasses.dataclass
class _Pool:
    """The candidates one ``sample`` call picks from; see ``_pool``."""

    candidates: list[WorkloadQuery | _Chain]
    #: Per candidate: its template key under the metric's clause spec.
    keys: list[VectorKey]
    #: Per candidate: its pick probability.
    weights: np.ndarray
    #: Each picked mutation's SQL -> its statement.
    rendered: dict[str, Statement] = dataclasses.field(default_factory=dict)


class NeighborhoodSampler:
    """Samples perturbed workloads in the Γ-neighborhood of a workload."""

    #: How many of the pool's most recent queries feed the history and the
    #: column affinity.
    recent_pool_size = 400
    #: How much likelier a historical template is to enter a perturbed
    #: workload than a synthesized mutation.  Real drift is largely
    #: recurrence (the generator's revival channel), and recurrence is
    #: measurable from the query history, so the sampler leans on it.
    history_bias = 3.0

    def __init__(
        self,
        distance: WorkloadDistance,
        schema: Schema,
        pool: Sequence[WorkloadQuery] = (),
        seed: int = 0,
        min_query_set: int = MIN_QUERY_SET_SIZE,
        max_query_set: int = MAX_QUERY_SET_SIZE,
    ):
        self.distance = distance
        self.schema = schema
        self.pool = list(pool)
        self.rng = np.random.default_rng(seed)
        if not 1 <= min_query_set <= max_query_set:
            raise ValueError("need 1 <= min_query_set <= max_query_set")
        self.min_query_set = min_query_set
        self.max_query_set = max_query_set

    def set_pool(self, queries: Sequence[WorkloadQuery]) -> None:
        """Replace the perturbation pool (e.g. with only-past queries)."""
        self.pool = list(queries)

    # -- Algorithm 4 -------------------------------------------------------------

    def sample(
        self,
        base: Workload,
        gamma: float,
        count: int,
        statements: dict[str, Statement] | None = None,
    ) -> list[Workload]:
        """``count`` workloads at uniformly random distances in ``[0, Γ]``,
        each picking its perturbation from one candidate pool.

        ``statements`` (SQL text -> parsed statement) lends the call the
        base's statements a caller already parsed, and receives the
        statement of every mutation in a returned sample; the draws and
        the workloads are the same with or without it.
        """
        if not 0.0 <= gamma < math.inf:
            raise ValueError(f"gamma must be finite and non-negative, got {gamma!r}")
        if count < 0:
            raise ValueError("count must be non-negative")
        alphas = self.rng.uniform(0.0, gamma, size=count).tolist()
        if statements is None:
            statements = {}
        # Nothing at α = 0 (or under an empty base) reads the pool.
        pool = (
            self._pool(base, statements)
            if base and any(alpha > 0.0 for alpha in alphas)
            else None
        )
        samples = [self._sample_from(base, alpha, pool) for alpha in alphas]
        if pool is not None and pool.rendered:
            for sample in samples:
                for query in sample:
                    stmt = pool.rendered.get(query.sql)
                    if stmt is not None:
                        statements.setdefault(query.sql, stmt)
        return samples

    def sample_at(self, base: Workload, alpha: float) -> Workload:
        """One workload at distance ≈ ``alpha`` from ``base``."""
        if not 0.0 <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {alpha!r}")
        pool = self._pool(base, {}) if base and alpha > 0.0 else None
        return self._sample_from(base, alpha, pool)

    def _sample_from(self, base: Workload, alpha: float, pool: _Pool | None) -> Workload:
        if alpha <= 0.0 or not base:
            return Workload(list(base))
        if not pool.candidates:
            return Workload(list(base))
        base_count = max(base.total_weight, 1.0)
        best: Workload | None = None
        best_error = math.inf
        midpoint = (self.min_query_set + self.max_query_set) // 2
        sizes = sorted({self.min_query_set, midpoint, self.max_query_set})
        for k in sizes:
            for _ in range(ATTEMPTS_PER_SIZE):
                picks, keys = self._pick_distinct(pool, k)
                if len(picks) < k:
                    break
                probe = Workload.keyed(picks, self.distance.clauses, keys)
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

    def _candidate_sources(
        self, base: Workload, statements: dict[str, Statement]
    ) -> _CandidateSources:
        """What candidate generation reads and draws no randomness for: a
        function of ``(base, pool)`` alone.  ``statements`` holds the
        base's parsed texts; a text missing there is parsed into it.

        Disjointness is checked under the *distance metric's* clause spec so
        the decomposed fast path in :meth:`WorkloadDistance.disjoint_distance`
        is exact.
        """
        clauses = self.distance.clauses
        taken = self.distance.template_keys(base)
        history: list[WorkloadQuery] = []
        history_keys: list[VectorKey] = []
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
            history_keys.append(key)
        affinity = ColumnAffinity()
        affinity.observe(base)
        affinity.observe(self.pool[max(len(self.pool) - self.recent_pool_size, 0) :])
        shared: dict = {}
        chains = []
        for query in base:
            stmt = statements.get(query.sql)
            if stmt is None:
                stmt = statements[query.sql] = parse(query.sql)
            chains.append(_Chain.compile(stmt, self.schema, affinity, shared))
        return _CandidateSources(chains, history, history_keys, frozenset(taken))

    def _pool(self, base: Workload, statements: dict[str, Statement]) -> _Pool:
        """The candidates every sample of one call picks from: pool queries
        (template-disjoint from the base) plus mutations.

        Returns the candidate list (historical templates first), their
        template keys and pick probabilities, history weighted up by
        ``history_bias``.  A mutation stays a chain until
        ``_pick_distinct`` picks it.  ``statements`` holds the base's
        parsed texts (see ``_candidate_sources``).
        """
        sources = self._candidate_sources(base, statements)
        clauses = self.distance.clauses
        chains = sources.chains
        candidates: list[WorkloadQuery | _Chain] = list(sources.history)
        keys = list(sources.history_keys)
        taken = set(sources.taken)
        # Always add affinity-guided mutations of the base's own queries:
        # fresh drift looks like an existing query with one related column
        # swapped, which history alone cannot supply.  Future drift is
        # several mutation steps away from the current window, so each
        # chain mutates its source 1-3 times.
        starts = self.rng.integers(0, len(chains), size=MUTATION_CHAINS).tolist()
        depths = self.rng.integers(1, 4, size=MUTATION_CHAINS).tolist()
        for source, depth in zip(starts, depths):
            mutated: _Chain | None = chains[source]
            for _ in range(depth):
                # The chain carries its table and affinity layout.
                mutated = mutate_query(mutated, self.schema, self.rng)
                if mutated is None:
                    break
            if mutated is None:
                continue
            key = mutated.key(clauses)
            if key is None or key in taken:
                continue
            taken.add(key)
            candidates.append(mutated)
            keys.append(key)
            if len(candidates) >= self.recent_pool_size + self.max_query_set * 4:
                break
        weights = np.ones(len(candidates), dtype=np.float64)
        weights[: len(sources.history)] = self.history_bias
        return _Pool(candidates, keys, weights / weights.sum())

    def _pick_distinct(self, pool: _Pool, k: int) -> tuple[list[WorkloadQuery], list[VectorKey]]:
        """Sample ``k`` distinct candidates with the pool's probabilities,
        and their template keys; a mutation becomes a statement and SQL,
        in place, the first time it is picked."""
        candidates = pool.candidates
        if len(candidates) < k:
            return [], []
        picks = self.rng.choice(len(candidates), size=k, replace=False, p=pool.weights)
        for i in picks:
            if not isinstance(candidates[i], WorkloadQuery):
                stmt = candidates[i].statement()
                candidates[i] = WorkloadQuery(sql=format_statement(stmt))
                pool.rendered[candidates[i].sql] = stmt
        return [candidates[i] for i in picks], [pool.keys[i] for i in picks]
