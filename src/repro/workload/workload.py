"""Workload containers and template-frequency vectors.

The paper models a workload ``W`` as a sparse vector ``V_W`` whose
coordinates are query templates (column sets) and whose entries are
normalized occurrence frequencies (Section 5).  :class:`Workload` carries
the raw queries and materializes those vectors on demand.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.sql.analyzer import CLAUSES, QueryTemplate
from repro.workload.query import WorkloadQuery

#: Clause specifications: either a subset of SWGO clauses whose union forms
#: the template key, or the sentinel "separate" for clause-wise 4-tuples.
ClauseSpec = tuple[str, ...]
SEPARATE = "separate"

#: Template-vector keys: a flat column set, or a 4-tuple of clause sets.
VectorKey = frozenset[str] | tuple[frozenset[str], ...]


def template_key(template: QueryTemplate, clauses: ClauseSpec | str) -> VectorKey:
    """Map a template to its vector coordinate under a clause spec."""
    if clauses == SEPARATE:
        return tuple(template.clause(name) for name in CLAUSES)
    return template.restricted(tuple(clauses))


class Workload:
    """An immutable-ish sequence of weighted queries."""

    def __init__(self, queries: Iterable[WorkloadQuery] = ()):
        self.queries: list[WorkloadQuery] = list(queries)
        self._vectors: dict[object, dict[VectorKey, float]] = {}

    # -- basic container behaviour -------------------------------------------------

    def __getstate__(self) -> dict:
        # The template-vector cache is derived data keyed by frozensets,
        # whose pickle byte order is hash-randomized — persisting it
        # would make otherwise-equal checkpoints differ byte-wise (and
        # bloat them).  Recomputed on demand after unpickling.
        return {"queries": self.queries}

    def __setstate__(self, state: dict) -> None:
        self.queries = state["queries"]
        self._vectors = {}

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[WorkloadQuery]:
        return iter(self.queries)

    def __bool__(self) -> bool:
        return bool(self.queries)

    @property
    def total_weight(self) -> float:
        """Sum of query frequencies."""
        return sum(q.frequency for q in self.queries)

    @property
    def span_days(self) -> tuple[float, float]:
        """(first, last) timestamp, or (0, 0) when empty."""
        if not self.queries:
            return 0.0, 0.0
        timestamps = [q.timestamp for q in self.queries]
        return min(timestamps), max(timestamps)

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_sql(cls, statements: Iterable[str]) -> "Workload":
        """Build a workload of unit-frequency queries from SQL strings."""
        return cls(WorkloadQuery(sql=s) for s in statements)

    def collapsed(self) -> "Workload":
        """Collapse identical SQL into single entries with summed weight."""
        weights: dict[str, float] = defaultdict(float)
        first_seen: dict[str, WorkloadQuery] = {}
        for query in self.queries:
            weights[query.sql] += query.frequency
            first_seen.setdefault(query.sql, query)
        return Workload(
            WorkloadQuery(
                sql=sql,
                timestamp=first_seen[sql].timestamp,
                frequency=weight,
            )
            for sql, weight in weights.items()
        )

    def merged_with(self, other: "Workload") -> "Workload":
        """Plain union of the two query lists (weights kept as-is)."""
        return Workload([*self.queries, *other.queries])

    # -- template machinery ------------------------------------------------------------

    def templates(self, clauses: ClauseSpec | str = tuple(CLAUSES)) -> set[VectorKey]:
        """The distinct template keys present (empty templates excluded)."""
        return set(self.template_vector(clauses))

    def template_vector(
        self, clauses: ClauseSpec | str = tuple(CLAUSES)
    ) -> dict[VectorKey, float]:
        """The paper's ``V_W``: normalized template-frequency vector.

        Queries referencing no columns at all are ignored (the paper drops
        trivia like ``SELECT version()``).  The vector is cached per clause
        spec.
        """
        cache_key = _spec_key(clauses)
        cached = self._vectors.get(cache_key)
        if cached is not None:
            return cached
        vector = _normalized_vector(
            (template_key(query.template, clauses), query.frequency)
            for query in self.queries
        )
        self._vectors[cache_key] = vector
        return vector

    @classmethod
    def keyed(
        cls,
        queries: Iterable[WorkloadQuery],
        clauses: ClauseSpec | str,
        keys: Iterable[VectorKey],
    ) -> "Workload":
        """A workload whose template keys under ``clauses`` the caller
        already holds, one per query in order.  Its vector for that spec
        is built from them, so no SQL is re-analysed; it equals the one
        :meth:`template_vector` computes from the texts, bit for bit."""
        workload = cls(queries)
        workload._vectors[_spec_key(clauses)] = _normalized_vector(
            zip(keys, (query.frequency for query in workload.queries), strict=True)
        )
        return workload

    def normalized_weights(self) -> dict[str, float]:
        """Normalized weight per distinct SQL text."""
        total = self.total_weight
        if total == 0:
            return {}
        weights: dict[str, float] = defaultdict(float)
        for query in self.queries:
            weights[query.sql] += query.frequency
        return {sql: w / total for sql, w in weights.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.span_days
        return (
            f"Workload({len(self.queries)} queries, weight={self.total_weight:.0f},"
            f" days=[{lo:.1f}, {hi:.1f}])"
        )


def _spec_key(clauses: ClauseSpec | str) -> object:
    return clauses if isinstance(clauses, str) else tuple(clauses)


def _key_nonempty(key: VectorKey) -> bool:
    if isinstance(key, tuple):
        return any(part for part in key)
    return bool(key)


def _normalized_vector(
    entries: Iterable[tuple[VectorKey, float]],
) -> dict[VectorKey, float]:
    """``V_W`` from ``(template key, frequency)`` pairs in query order;
    empty keys (queries referencing no columns) are ignored."""
    raw: dict[VectorKey, float] = defaultdict(float)
    total = 0.0
    for key, frequency in entries:
        if not _key_nonempty(key):
            continue
        raw[key] += frequency
        total += frequency
    return {key: weight / total for key, weight in raw.items()} if total else {}
