"""Tests for the designer zoo: greedy machinery, nominal designers, and the
Section 6.1 baselines."""

import pytest

from repro.designers import columnar_nominal
from repro.designers.base import default_budget_bytes
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.greedy import evaluate_candidates, greedy_select
from repro.designers.local_search import OptimalLocalSearchDesigner
from repro.designers.majority_vote import MajorityVoteDesigner
from repro.designers.no_design import NoDesign
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.workload.distance import WorkloadDistance
from repro.workload.sampler import NeighborhoodSampler
from repro.workload.workload import Workload


@pytest.fixture
def window(tiny_windows) -> Workload:
    return tiny_windows[1]


class TestGreedy:
    def test_respects_budget(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        candidates = nominal.generate_candidates(window)
        evaluation = evaluate_candidates(columnar_adapter, window, candidates)
        budget = int(min(evaluation.sizes) * 3.5)
        chosen = greedy_select(evaluation, budget)
        total = sum(columnar_adapter.structure_size(c) for c in chosen)
        assert total <= budget
        assert 1 <= len(chosen) <= 3

    def test_picks_reduce_workload_cost_monotonically(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        candidates = nominal.generate_candidates(window)
        evaluation = evaluate_candidates(columnar_adapter, window, candidates)
        chosen = greedy_select(evaluation, columnar_adapter.budget_bytes)
        design = columnar_adapter.empty_design()
        last = columnar_adapter.workload_cost(window, design).total_ms
        design = columnar_adapter.make_design(chosen)
        now = columnar_adapter.workload_cost(window, design).total_ms
        assert now < last

    def test_empty_candidates(self, columnar_adapter, window):
        evaluation = evaluate_candidates(columnar_adapter, window, [])
        assert greedy_select(evaluation, 10**12) == []


class TestColumnarNominal:
    def test_design_improves_input_workload(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        design = nominal.design(window)
        empty = columnar_adapter.empty_design()
        assert (
            columnar_adapter.workload_cost(window, design).average_ms
            < columnar_adapter.workload_cost(window, empty).average_ms
        )

    def test_design_within_budget(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        design = nominal.design(window)
        assert columnar_adapter.design_price(design) <= columnar_adapter.budget_bytes

    def test_candidates_cover_templates(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        candidates = nominal.generate_candidates(window)
        assert candidates
        # every candidate anchors on a real table and has a sort key
        for candidate in candidates:
            assert candidate.table in columnar_adapter.schema.tables
            assert candidate.sort_columns

    def test_merged_candidates_exist(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        candidates = nominal.generate_candidates(window)
        widths = [len(c.columns) for c in candidates]
        assert max(widths) > min(widths)  # both exact and merged shapes

    def test_empty_workload_gives_empty_design(self, columnar_adapter):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        design = nominal.design(Workload([]))
        assert len(design) == 0

    def test_deterministic(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        assert nominal.design(window) == nominal.design(window)

    def test_zero_arguments_accepted(self, columnar_adapter, window, monkeypatch):
        # A zero radius merges only templates with the same column set.
        monkeypatch.setattr(columnar_nominal, "MERGE_RADIUS", 0)
        nominal = ColumnarNominalDesigner(columnar_adapter)
        design = nominal.design(window)
        assert len(design) > 0
        assert columnar_adapter.design_price(design) <= columnar_adapter.budget_bytes


class TestRowstoreNominal:
    def test_design_improves_input_workload(self, rowstore_adapter, window):
        nominal = RowstoreNominalDesigner(rowstore_adapter)
        design = nominal.design(window)
        empty = rowstore_adapter.empty_design()
        assert (
            rowstore_adapter.workload_cost(window, design).average_ms
            < rowstore_adapter.workload_cost(window, empty).average_ms
        )

    def test_design_within_budget(self, rowstore_adapter, window):
        nominal = RowstoreNominalDesigner(rowstore_adapter)
        design = nominal.design(window)
        assert rowstore_adapter.design_price(design) <= rowstore_adapter.budget_bytes

    def test_generates_indices(self, rowstore_adapter, window):
        from repro.rowstore.index import Index

        nominal = RowstoreNominalDesigner(rowstore_adapter)
        candidates = nominal.generate_candidates(window)
        assert any(isinstance(c, Index) for c in candidates)

    def test_compression_merges_similar_templates(self, rowstore_adapter, window):
        loose = RowstoreNominalDesigner(rowstore_adapter, compression_radius=0)
        tight = RowstoreNominalDesigner(rowstore_adapter, compression_radius=6)
        assert len(tight.generate_candidates(window)) <= len(
            loose.generate_candidates(window)
        )

    def test_compressed_template_keeps_its_column_union(self, rowstore_adapter, window):
        from repro.designers.rowstore_nominal import _template_of, compress_templates

        templates = [
            _template_of(rowstore_adapter.profile(q.sql), q.frequency)
            for q in window.collapsed()
        ]
        merged = compress_templates(templates, radius=6)
        assert len(merged) < len(templates)
        for template in merged:
            assert template.union == (
                set(template.eq_columns)
                | set(template.range_columns)
                | set(template.group_columns)
                | set(template.measure_columns)
                | template.select_columns
            )

    @pytest.mark.parametrize(
        "argument", [{"compression_radius": -1}], ids=lambda a: next(iter(a))
    )
    def test_negative_arguments_rejected(self, rowstore_adapter, argument):
        with pytest.raises(ValueError, match=next(iter(argument))):
            RowstoreNominalDesigner(rowstore_adapter, **argument)

    def test_zero_arguments_accepted(self, rowstore_adapter, window):
        # A zero radius merges only templates with the same column set.
        nominal = RowstoreNominalDesigner(rowstore_adapter, compression_radius=0)
        design = nominal.design(window)
        assert len(design) > 0
        assert rowstore_adapter.design_price(design) <= rowstore_adapter.budget_bytes


class TestBaselines:
    @pytest.fixture
    def sampler(self, tiny_star, tiny_trace, window):
        schema, _ = tiny_star
        distance = WorkloadDistance(schema.total_columns)
        pool = [q for q in tiny_trace if q.timestamp < window.span_days[0]]
        return NeighborhoodSampler(
            distance, schema, pool=pool, seed=3, min_query_set=4, max_query_set=8
        )

    def test_no_design_is_empty(self, columnar_adapter, window):
        assert len(NoDesign(columnar_adapter).design(window)) == 0

    def test_future_knowing_is_marked_oracle(self, columnar_adapter):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        oracle = FutureKnowingDesigner(nominal)
        assert oracle.is_oracle
        assert not getattr(nominal, "is_oracle", False)

    def test_majority_vote_within_budget(self, columnar_adapter, window, sampler):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        designer = MajorityVoteDesigner(
            nominal, columnar_adapter, sampler, gamma=0.005, n_samples=3
        )
        design = designer.design(window)
        assert columnar_adapter.design_price(design) <= columnar_adapter.budget_bytes
        assert len(design) > 0

    def test_majority_vote_keeps_commonly_voted_structures(
        self, columnar_adapter, window, sampler
    ):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        designer = MajorityVoteDesigner(
            nominal, columnar_adapter, sampler, gamma=0.005, n_samples=3
        )
        design = designer.design(window)
        base = nominal.design(window)
        shared = set(columnar_adapter.structures(design)) & set(
            columnar_adapter.structures(base)
        )
        assert shared  # the stable core of the nominal design survives voting

    def test_local_search_within_budget(self, columnar_adapter, window, sampler):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        designer = OptimalLocalSearchDesigner(
            nominal, columnar_adapter, sampler, gamma=0.005, n_samples=3
        )
        design = designer.design(window)
        assert columnar_adapter.design_price(design) <= columnar_adapter.budget_bytes
        assert len(design) > 0

    def test_local_search_improves_over_empty(self, columnar_adapter, window, sampler):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        designer = OptimalLocalSearchDesigner(
            nominal, columnar_adapter, sampler, gamma=0.005, n_samples=3
        )
        design = designer.design(window)
        empty = columnar_adapter.empty_design()
        assert (
            columnar_adapter.workload_cost(window, design).average_ms
            < columnar_adapter.workload_cost(window, empty).average_ms
        )


class TestAdapters:
    def test_default_budget_scales_with_fraction(self, tiny_star):
        schema, _ = tiny_star
        assert default_budget_bytes(schema, 0.5) == pytest.approx(
            default_budget_bytes(schema, 0.25) * 2
        )

    def test_columnar_adapter_surface(self, columnar_adapter, window):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        design = nominal.design(window)
        structures = columnar_adapter.structures(design)
        rebuilt = columnar_adapter.make_design(structures)
        assert rebuilt == design
        for structure in structures[:3]:
            assert columnar_adapter.structure_size(structure) > 0

    def test_rowstore_adapter_surface(self, rowstore_adapter, window):
        nominal = RowstoreNominalDesigner(rowstore_adapter)
        design = nominal.design(window)
        structures = rowstore_adapter.structures(design)
        rebuilt = rowstore_adapter.make_design(structures)
        assert rebuilt == design
