"""The DBMS-X-style nominal index/view advisor.

The paper observes that DBMS-X's designer employs anti-overfitting
heuristics "such as omitting workload details" (workload compression), so
its designs degrade less sharply than Vertica's under drift — yet still far
more than CliffGuard's.  This advisor reproduces both halves:

* **Workload compression**: templates whose column sets nearly coincide are
  merged into a generalized template (their union) before candidate
  generation, so recommended structures are slightly broader than any one
  query needs.
* **Candidates**: composite indices keyed on the filter columns (with a
  covering variant) and materialized aggregate views keyed on the
  grouping + filter columns.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.costing.profile import QueryProfile
from repro.designers.base import RowstoreAdapter, _NominalDesigner
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload

#: Templates whose union column sets differ by at most this many columns
#: are merged by workload compression.
COMPRESSION_RADIUS = 2
#: Indices longer than this stop paying for themselves.
MAX_INDEX_WIDTH = 4
#: Covering indices wider than this are not proposed.
MAX_COVERING_WIDTH = 6
#: Views whose estimated row count exceeds this fraction of the base table
#: rows are pointless and are not proposed.
MAX_VIEW_FRACTION = 0.25


@dataclass
class _CompressedTemplate:
    """A (possibly merged) template: unions of per-role column sets."""

    table: str
    eq_columns: list[str]  # ordered by selectivity (most selective first)
    range_columns: list[str]
    group_columns: list[str]
    measure_columns: list[str]
    select_columns: set[str]
    weight: float
    has_aggregates: bool
    #: Every column of the five roles; kept up to date by :func:`_merge`.
    union: set[str] = field(init=False)

    def __post_init__(self) -> None:
        self.union = (
            set(self.eq_columns)
            | set(self.range_columns)
            | set(self.group_columns)
            | set(self.measure_columns)
            | self.select_columns
        )

    def at(self, weight: float) -> "_CompressedTemplate":
        """This template at ``weight``, sharing its column containers
        (:func:`compress_templates` copies them before a merge)."""
        clone = object.__new__(_CompressedTemplate)
        vars(clone).update(vars(self))
        clone.weight = weight
        return clone

    def own(self) -> None:
        """Give this template column containers of its own."""
        self.eq_columns = self.eq_columns.copy()
        self.range_columns = self.range_columns.copy()
        self.group_columns = self.group_columns.copy()
        self.measure_columns = self.measure_columns.copy()
        self.select_columns = self.select_columns.copy()
        self.union = self.union.copy()


def _template_of(profile: QueryProfile, weight: float) -> _CompressedTemplate:
    eq = list(
        dict.fromkeys(
            name
            for name, _ in sorted(profile.anchor.eq_selectivity, key=lambda i: i[1])
        )
    )
    rng = [
        name
        for name, _ in sorted(profile.anchor.range_selectivity, key=lambda i: i[1])
        if name not in eq
    ]
    rng = list(dict.fromkeys(rng))
    measures = [a.column for a in profile.aggregates if a.column is not None]
    return _CompressedTemplate(
        table=profile.anchor.table,
        eq_columns=eq,
        range_columns=rng,
        group_columns=list(profile.group_by),
        measure_columns=list(dict.fromkeys(measures)),
        select_columns=set(profile.select_columns),
        weight=weight,
        has_aggregates=profile.has_aggregates,
    )


def _merge(into: _CompressedTemplate, other: _CompressedTemplate) -> None:
    for name in other.eq_columns:
        if name not in into.eq_columns:
            into.eq_columns.append(name)
    for name in other.range_columns:
        if name not in into.range_columns:
            into.range_columns.append(name)
    for name in other.group_columns:
        if name not in into.group_columns:
            into.group_columns.append(name)
    for name in other.measure_columns:
        if name not in into.measure_columns:
            into.measure_columns.append(name)
    into.select_columns |= other.select_columns
    into.union |= other.union
    into.weight += other.weight
    into.has_aggregates = into.has_aggregates or other.has_aggregates


def compress_templates(
    templates: list[_CompressedTemplate], radius: int = COMPRESSION_RADIUS
) -> list[_CompressedTemplate]:
    """Merge near-identical templates (the DBMS-X anti-overfit heuristic).

    Heaviest first, each template merges into the first earlier survivor
    on its table whose column union is within ``radius`` of its own.  A
    survivor gets containers of its own before its first merge, so the
    input templates are never mutated through shared ones.
    """
    merged: list[_CompressedTemplate] = []
    by_table: dict[str, list[_CompressedTemplate]] = {}
    owned: set[int] = set()
    for template in sorted(templates, key=lambda t: -t.weight):
        size = len(template.union)
        survivors = by_table.setdefault(template.table, [])
        target = None
        for existing in survivors:
            # |A ^ B| >= ||A| - |B||: most pairs fail on the sizes alone.
            if abs(len(existing.union) - size) > radius:
                continue
            if len(existing.union ^ template.union) <= radius:
                target = existing
                break
        if target is None:
            merged.append(template)
            survivors.append(template)
        else:
            if id(target) not in owned:
                owned.add(id(target))
                target.own()
            _merge(target, template)
    return merged


class RowstoreNominalDesigner(_NominalDesigner):
    """Greedy budget-constrained index + view selection (advisor-style)."""

    name = "ExistingDesigner"

    def __init__(
        self,
        adapter: RowstoreAdapter,
        compression_radius: int = COMPRESSION_RADIUS,
    ):
        if compression_radius < 0:
            raise ValueError(f"compression_radius must be >= 0, got {compression_radius}")
        self.adapter = adapter
        self.compression_radius = compression_radius

    # -- candidate generation -------------------------------------------------------

    def generate_candidates(self, workload: Workload) -> list[Index | MaterializedView]:
        """Index and view candidates from compressed templates.

        Inside a :meth:`~repro.designers.base.Designer.scoped` block, each
        text's template and each structure object are kept in the scope
        and reused by later calls; compression, which reads the weights,
        runs again on fresh copies.  Either way the list is the same.
        """
        proposals, structures = self._memos()
        templates: list[_CompressedTemplate] = []
        for query in workload.collapsed():
            if query.sql in proposals:
                template = proposals[query.sql]
            else:
                template = proposals[query.sql] = self._template(query.sql)
            if template is not None:
                templates.append(template.at(query.frequency))
        templates = compress_templates(templates, self.compression_radius)
        return self._candidates(templates, structures)

    def own_candidates(
        self, queries: Iterable[WorkloadQuery]
    ) -> list[list[Index | MaterializedView]]:
        """Each query's candidates alone, in one pass: per query, what
        ``generate_candidates(Workload([query]))`` returns — the
        candidates of its own template, which compression has nothing to
        merge with."""
        proposals, structures = self._memos()
        own = []
        for query in queries:
            if query.sql in proposals:
                template = proposals[query.sql]
            else:
                template = proposals[query.sql] = self._template(query.sql)
            own.append([] if template is None else self._candidates([template], structures))
        return own

    def _memos(self) -> tuple[dict, dict]:
        """``(proposals, structures)``: the scope's, or fresh ones for an
        unscoped call."""
        scope = self.scope
        if scope is None:
            return {}, {}
        return scope.proposals, scope.structures

    def _template(self, sql: str) -> _CompressedTemplate | None:
        """The text's template at weight 0; ``None`` for a text that
        does not profile."""
        try:
            profile = self.adapter.profile(sql)
        except ValueError:
            return None
        return _template_of(profile, 0.0)

    def _candidates(
        self, templates: list[_CompressedTemplate], structures: dict
    ) -> list[Index | MaterializedView]:
        """The index and view candidates of ``templates``, each once;
        ``structures`` interns the structure objects by key."""
        seen: set = set()
        candidates: list[Index | MaterializedView] = []

        def add(key: tuple) -> None:
            if key in seen:
                return
            seen.add(key)
            if key in structures:
                structure = structures[key]
            else:
                structure = structures[key] = self._structure(*key)
            if structure is not None:
                candidates.append(structure)

        for template in templates:
            # A query can carry several predicates on one column (mutated
            # workloads do); keep each column once.
            filter_key = list(
                dict.fromkeys(template.eq_columns + template.range_columns)
            )[:MAX_INDEX_WIDTH]
            if filter_key:
                add(("index", template.table, tuple(filter_key)))
                covering = filter_key + [
                    c
                    for c in sorted(
                        template.select_columns
                        | set(template.group_columns)
                        | set(template.measure_columns)
                    )
                    if c not in filter_key
                ]
                if len(covering) <= MAX_COVERING_WIDTH and len(covering) > len(filter_key):
                    add(("index", template.table, tuple(covering)))
            if template.has_aggregates and template.measure_columns:
                group = list(
                    dict.fromkeys(
                        template.group_columns
                        + template.eq_columns
                        + template.range_columns
                    )
                )
                if group:
                    measures = tuple(m for m in template.measure_columns if m not in group)
                    add(("view", template.table, tuple(group), measures))
        return candidates

    def _structure(self, kind: str, table: str, *columns) -> Index | MaterializedView | None:
        """The structure a candidate key names; ``None`` for a view too
        large to propose."""
        if kind == "index":
            return Index(table=table, columns=columns[0])
        group, measures = columns
        view = MaterializedView(table=table, group_columns=group, measure_columns=measures)
        stats = self.adapter.cost_model.statistics.get(table)
        if stats is not None and view.estimated_rows(stats) <= max(
            1, int(stats.row_count * MAX_VIEW_FRACTION)
        ):
            return view
        return None

    # -- the designer ------------------------------------------------------------------

    # Spelled here for benchmarks/e2e/spans.py (see _NominalDesigner).
    design = _NominalDesigner.design
