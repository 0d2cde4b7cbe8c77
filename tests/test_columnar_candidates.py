"""Invariants of the columnar designer's candidate generation."""

import pytest

from repro.designers.columnar_nominal import (
    MAX_MERGED_WIDTH,
    MAX_SORT_DEPTH,
    ColumnarNominalDesigner,
)
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload


@pytest.fixture
def designer(columnar_adapter) -> ColumnarNominalDesigner:
    return ColumnarNominalDesigner(columnar_adapter)


class TestCandidateInvariants:
    def test_no_duplicates(self, designer, tiny_windows):
        candidates = designer.generate_candidates(tiny_windows[1])
        assert len(candidates) == len(set(candidates))

    def test_sort_depth_bounded(self, designer, tiny_windows):
        for candidate in designer.generate_candidates(tiny_windows[1]):
            assert len(candidate.sort_columns) <= MAX_SORT_DEPTH + 1

    def test_width_bounded(self, designer, tiny_windows):
        for candidate in designer.generate_candidates(tiny_windows[1]):
            assert len(candidate.columns) <= MAX_MERGED_WIDTH + MAX_SORT_DEPTH

    def test_no_super_projections(self, designer, tiny_windows, tiny_star):
        schema, _ = tiny_star
        for candidate in designer.generate_candidates(tiny_windows[1]):
            table = schema.table(candidate.table)
            assert len(candidate.columns) < len(table.columns)
            assert not candidate.is_super

    def test_every_filtered_query_gets_a_candidate(self, designer, columnar_adapter, tiny_windows):
        window = tiny_windows[1]
        candidates = designer.generate_candidates(window)
        for query in window.collapsed():
            try:
                profile = columnar_adapter.profile(query.sql)
            except ValueError:
                continue
            if not profile.anchor.predicate_columns:
                continue
            covering = [
                c
                for c in candidates
                if c.table == profile.anchor.table
                and c.covers(profile.anchor.needed_columns)
            ]
            assert covering, query.sql

    def test_duplicate_predicates_tolerated(self, designer, columnar_adapter, tiny_star):
        """Two predicates on one column must not produce invalid candidates
        (the regression that once broke CliffGuard's moved workloads)."""
        schema, roles = tiny_star
        fact = roles.facts[0].fact
        eq = roles.facts[0].eq_columns[0]
        measure = roles.facts[0].measures[0]
        sql = (
            f"SELECT SUM({fact}.{measure}) FROM {fact} "
            f"WHERE {fact}.{eq} = 1 AND {fact}.{eq} = 2"
        )
        candidates = designer.generate_candidates(Workload([WorkloadQuery(sql=sql)]))
        assert candidates  # and Projection validation did not raise

    def test_empty_workload_no_candidates(self, designer):
        assert designer.generate_candidates(Workload([])) == []

    def test_own_candidates_list_a_twice_proposed_projection_once(self, designer, tiny_star):
        """Filtering and grouping on the same lone column propose one
        projection twice; a query's own candidates hold it once, as its
        single-query ``generate_candidates`` does."""
        _, roles = tiny_star
        fact = roles.facts[0].fact
        eq = roles.facts[0].eq_columns[0]
        measure = roles.facts[0].measures[0]
        query = WorkloadQuery(
            sql=f"SELECT {eq}, SUM({measure}) FROM {fact} WHERE {eq} = 1 GROUP BY {eq}"
        )
        (own,) = designer.own_candidates([query])
        assert own == designer.generate_candidates(Workload([query]))
        assert len(own) == 1
