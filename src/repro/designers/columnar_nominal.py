"""The Vertica-DBD-style nominal projection designer.

This is the paper's "ExistingDesigner" for the columnar engine: a
sophisticated, *nominal* tool that finds near-optimal designs for exactly
the workload it is given.  Candidates are generated per query template —
the projection stores precisely the referenced columns, sorted to serve the
query's filters or its grouping — which is why the resulting designs are
excellent on the input workload and brittle off it (the overfitting
CliffGuard exists to repair).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable

from repro.costing.profile import QueryProfile, TableAccess
from repro.designers.base import ColumnarAdapter, _NominalDesigner

# Unused here since the nominal designers share one ``design`` (in
# base.py), but benchmarks/e2e/test_e2e_smoke.py checks that the span
# tracer rebinds and restores this module's ``greedy_select``.
from repro.designers.greedy import greedy_select  # noqa: F401
from repro.engine.projection import Projection, SortColumn
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload

#: Sort keys longer than this add negligible prefix benefit.
MAX_SORT_DEPTH = 4

#: Sort key of a ``(column, selectivity)`` pair: most selective first.
_selectivity = operator.itemgetter(1)


def _ordered_columns(
    columns: Iterable[str], sort_key: tuple[str, ...], position: dict[str, int]
) -> tuple[str, ...]:
    """Projection column list: sort key first, then the rest of
    ``columns`` that the table defines, in table order (``position``:
    column name -> its index in the table)."""
    rest = [c for c in columns if c in position and c not in sort_key]
    rest.sort(key=position.__getitem__)
    return (*sort_key, *rest)


def _filter_first_sort(access: TableAccess) -> tuple[str, ...]:
    """Sort key optimized for the filters: most selective equalities first,
    then one range column.  Deduplicated — a query may carry several
    predicates on one column."""
    eq = sorted(access.eq_selectivity, key=_selectivity)
    key = list(dict.fromkeys([name for name, _ in eq]))[:MAX_SORT_DEPTH]
    if len(key) < MAX_SORT_DEPTH:
        for name, _ in sorted(access.range_selectivity, key=_selectivity):
            if name not in key:
                key.append(name)
                break
    return tuple(key)


def _group_first_sort(profile: QueryProfile) -> tuple[str, ...]:
    """Sort key optimized for streaming aggregation: group columns first,
    then the filter columns."""
    key = list(dict.fromkeys(profile.group_by))[:MAX_SORT_DEPTH]
    for name, _ in sorted(profile.anchor.eq_selectivity, key=_selectivity):
        if name not in key and len(key) < MAX_SORT_DEPTH:
            key.append(name)
    return tuple(key)


#: Merged candidates: templates on one table whose column sets differ by at
#: most this many columns are clustered into one union projection.
MERGE_RADIUS = 10
#: Union projections wider than this are not proposed (they approach the
#: super-projection and stop paying for themselves).
MAX_MERGED_WIDTH = 20


class ColumnarNominalDesigner(_NominalDesigner):
    """Greedy budget-constrained projection selection (DBD-style).

    Besides exact per-template candidates, the designer proposes *merged*
    candidates — union projections over clusters of similar templates —
    just as production designers consider multi-query candidates.  On a
    single stable workload the greedy prefers the narrow exact candidates
    (same benefit, fewer bytes); merged candidates win only when many
    related templates carry weight simultaneously, which is precisely what
    CliffGuard's moved workloads create.
    """

    name = "ExistingDesigner"

    def __init__(self, adapter: ColumnarAdapter):
        self.adapter = adapter

    # -- candidate generation ------------------------------------------------------

    def generate_candidates(self, workload: Workload) -> list[Projection]:
        """Per-template candidates plus merged cluster candidates.

        Inside a :meth:`~repro.designers.base.Designer.scoped` block, each
        text's proposals, each projection object and each table's column
        positions are kept in the scope and reused by later calls; only
        the clustering, which reads the weights, runs again.  Either way
        the list is the same.
        """
        proposals, projection_of = self._memos()
        seen: set[int] = set()
        candidates: list[Projection] = []
        # Anchor accesses collected for the merged-candidate clustering
        # pass: (access, weight) pairs.
        anchor_accesses: list[tuple[TableAccess, float]] = []

        def add(projection: Projection) -> None:
            if id(projection) not in seen:
                seen.add(id(projection))
                candidates.append(projection)

        for query in workload.collapsed():
            proposal = proposals.get(query.sql)
            if proposal is None:
                proposal = proposals[query.sql] = self._propose(query.sql, projection_of)
            projections, anchor = proposal
            for projection in projections:  # add(), inlined: the hot loop
                if id(projection) not in seen:
                    seen.add(id(projection))
                    candidates.append(projection)
            if anchor is not None:
                anchor_accesses.append((anchor, query.frequency))

        # Cluster heaviest-first so high-weight queries seed the clusters
        # and their relatives coalesce around them (ordering matters for a
        # single-pass agglomeration).
        clusters: dict[str, list[dict]] = {}
        for access, weight in sorted(anchor_accesses, key=lambda item: -item[1]):
            self._note_cluster(clusters, access, weight)

        for table_name, table_clusters in clusters.items():
            for cluster in table_clusters:
                if cluster["members"] < 2:
                    continue
                # One merged variant per plausible leading filter column: in
                # a columnar engine all of a projection's benefit is in its
                # sort prefix, so robustness against a drifting filter
                # column means owning a variant sorted by each likely one.
                for sort_key in self._cluster_sort_keys(cluster):
                    columns = self._trimmed_columns(cluster, sort_key)
                    add(projection_of(table_name, columns, sort_key))
        return candidates

    def own_candidates(self, queries: Iterable[WorkloadQuery]) -> list[list[Projection]]:
        """Each query's candidates alone, in one pass: per query, what
        ``generate_candidates(Workload([query]))`` returns — its own
        proposals, each once (one query forms no cluster to merge)."""
        proposals, projection_of = self._memos()
        own = []
        for query in queries:
            proposal = proposals.get(query.sql)
            if proposal is None:
                proposal = proposals[query.sql] = self._propose(query.sql, projection_of)
            own.append(list({id(p): p for p in proposal[0]}.values()))
        return own

    def _memos(self) -> tuple[dict, Callable[..., Projection]]:
        """``(proposals, projection_of(table, columns, sort key))``: the
        per-text proposals and the projection interner, over the scope's
        memos or over fresh ones for an unscoped call."""
        scope = self.scope
        proposals = {} if scope is None else scope.proposals
        # (table, columns, sort key) -> its projection: one object per
        # key, so a repeat is recognized by identity.
        structures = {} if scope is None else scope.structures
        positions = {} if scope is None else scope.positions

        def position_of(table_name: str) -> dict[str, int]:
            position = positions.get(table_name)
            if position is None:
                names = self.adapter.schema.table(table_name).column_names
                position = positions[table_name] = {c: i for i, c in enumerate(names)}
            return position

        def projection_of(table_name: str, columns, sort_key: tuple[str, ...]) -> Projection:
            ordered = _ordered_columns(columns, sort_key, position_of(table_name))
            key = (table_name, ordered, sort_key)
            projection = structures.get(key)
            if projection is None:
                projection = structures[key] = Projection(
                    table=table_name,
                    columns=ordered,
                    sort_columns=tuple(SortColumn(c) for c in sort_key),
                )
            return projection

        return proposals, projection_of

    def _propose(
        self, sql: str, projection_of: Callable[..., Projection]
    ) -> tuple[list[Projection], TableAccess | None]:
        """One text's proposals, which no weight changes: each projection
        it asks for (``projection_of(table, columns, sort key)``), and its
        anchor access when that joins the clustering (``None`` otherwise,
        and for a text that does not profile)."""
        try:
            profile = self.adapter.profile(sql)
        except ValueError:
            return [], None
        schema = self.adapter.schema
        projections: list[Projection] = []
        anchor = None
        for access in profile.tables:
            if not access.needed_columns:
                continue
            if access.table not in schema.tables:
                continue
            # A projection only ever beats the super-projection through
            # its sort prefix; an access with no filters and no grouping
            # cannot benefit, so propose nothing for it.
            has_filters = bool(access.eq_selectivity or access.range_selectivity)
            has_grouping = access is profile.anchor and bool(profile.group_by)
            if not has_filters and not has_grouping:
                continue
            filter_key = _filter_first_sort(access)
            if not filter_key and has_grouping:
                filter_key = tuple(profile.group_by[:1])
            if filter_key:
                projections.append(
                    projection_of(access.table, access.needed_columns, filter_key)
                )
            if access is profile.anchor and profile.group_by:
                group_key = _group_first_sort(profile)
                if group_key:
                    projections.append(
                        projection_of(access.table, access.needed_columns, group_key)
                    )
            if access is profile.anchor:
                anchor = access
        return projections, anchor

    def _note_cluster(self, clusters: dict, access: TableAccess, weight: float) -> None:
        """Accumulate this access into a same-table column cluster.

        A query joins a cluster when its column set is close to the
        cluster's (symmetric difference within :data:`MERGE_RADIUS`) and
        the union stays within :data:`MAX_MERGED_WIDTH`; a query that can
        join nowhere seeds a new cluster.  Per-column weights are tracked
        so emission can trim oversized unions back to the columns that
        carry the mass.
        """
        table_clusters = clusters.setdefault(access.table, [])
        for cluster in table_clusters:
            if len(cluster["columns"] ^ access.needed_columns) > MERGE_RADIUS:
                continue
            union = cluster["columns"] | access.needed_columns
            if len(union) <= MAX_MERGED_WIDTH:
                cluster["columns"] = union
                cluster["members"] += 1
                for name in access.needed_columns:
                    cluster["col_weight"][name] = (
                        cluster["col_weight"].get(name, 0.0) + weight
                    )
                for name, sel in access.eq_selectivity:
                    entry = cluster["eq"].setdefault(name, [0.0, sel])
                    entry[0] += weight
                for name, sel in access.range_selectivity:
                    entry = cluster["range"].setdefault(name, [0.0, sel])
                    entry[0] += weight
                return
        table_clusters.append(
            {
                "columns": set(access.needed_columns),
                "members": 1,
                "col_weight": {name: weight for name in access.needed_columns},
                "eq": {name: [weight, sel] for name, sel in access.eq_selectivity},
                "range": {name: [weight, sel] for name, sel in access.range_selectivity},
            }
        )

    @staticmethod
    def _trimmed_columns(cluster: dict, sort_key: tuple[str, ...]) -> set[str]:
        """The cluster's top-weight columns (sort key always kept)."""
        columns = set(sort_key)
        by_weight = sorted(
            cluster["col_weight"].items(), key=lambda item: -item[1]
        )
        for name, _ in by_weight:
            if len(columns) >= MAX_MERGED_WIDTH:
                break
            columns.add(name)
        return columns

    #: Merged variants proposed per cluster (one leading sort column each).
    MERGED_VARIANTS = 6

    def _cluster_sort_keys(self, cluster: dict) -> list[tuple[str, ...]]:
        """Sort keys for a cluster's merged variants.

        One key per top-weighted equality column (that column leading, the
        other top columns following, then the heaviest range column); plus
        a range-led variant when the cluster is range-dominated.
        """
        eq = sorted(
            cluster["eq"].items(), key=lambda item: (-item[1][0], item[1][1])
        )
        rng = sorted(
            cluster["range"].items(), key=lambda item: (-item[1][0], item[1][1])
        )
        eq_names = list(dict.fromkeys(name for name, _ in eq))[: self.MERGED_VARIANTS]
        # A column can carry both equality and range predicates across the
        # cluster's queries; keep each name once.
        range_name = next((name for name, _ in rng if name not in eq_names), None)
        keys: list[tuple[str, ...]] = []
        for leader in eq_names:
            tail = [c for c in eq_names if c != leader][: MAX_SORT_DEPTH - 1]
            key = [leader] + tail
            if range_name and range_name not in key and len(key) < MAX_SORT_DEPTH:
                key.append(range_name)
            keys.append(tuple(dict.fromkeys(key)))
        if range_name and (not eq_names or len(keys) < self.MERGED_VARIANTS):
            key = [range_name] + eq_names[: MAX_SORT_DEPTH - 1]
            keys.append(tuple(dict.fromkeys(key)))
        if not keys and cluster["columns"]:
            keys.append((sorted(cluster["columns"])[0],))
        return keys

    # -- the designer ---------------------------------------------------------------

    # Spelled here for benchmarks/e2e/spans.py (see _NominalDesigner).
    design = _NominalDesigner.design
