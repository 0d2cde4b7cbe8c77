"""Tests for the replay harness and reporting."""

import pytest

from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.no_design import NoDesign
from repro.harness.replay import DesignerRun, WindowOutcome, beneficial_queries, replay
from repro.harness.reporting import format_series, format_table
from repro.serve.sources import TraceSource
from repro.workload.workload import Workload


class TestBeneficialQueries:
    def test_filters_trivial_queries(self, columnar_adapter, tiny_windows):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        window = tiny_windows[1]
        kept = beneficial_queries(columnar_adapter, nominal, window)
        kept_sqls = {q.sql for q in kept}
        # trivial full scans must be filtered out
        assert not any(sql.startswith("SELECT *") for sql in kept_sqls)
        assert 0 < len(kept) <= len(window.collapsed())

    def test_factor_controls_strictness(self, columnar_adapter, tiny_windows):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        window = tiny_windows[1]
        loose = beneficial_queries(columnar_adapter, nominal, window, factor=1.01)
        strict = beneficial_queries(columnar_adapter, nominal, window, factor=50.0)
        assert len(strict) <= len(loose)


class TestReplay:
    @pytest.fixture
    def outcome(self, columnar_adapter, tiny_windows):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        designers = {
            "NoDesign": NoDesign(columnar_adapter),
            "ExistingDesigner": nominal,
            "FutureKnowingDesigner": FutureKnowingDesigner(nominal),
        }
        return replay(
            TraceSource.from_windows(tiny_windows),
            designers,
            columnar_adapter,
            candidate_source=nominal,
            workload_name="tiny",
        )

    def test_every_designer_has_outcomes(self, outcome):
        for run in outcome.runs.values():
            assert run.windows

    def test_future_knowing_beats_nominal(self, outcome):
        oracle = outcome.run("FutureKnowingDesigner").mean_average_ms
        nominal = outcome.run("ExistingDesigner").mean_average_ms
        nothing = outcome.run("NoDesign").mean_average_ms
        assert oracle < nominal < nothing

    def test_speedup_helper(self, outcome):
        avg, mx = outcome.speedup("NoDesign", "FutureKnowingDesigner")
        assert avg > 1.0
        assert mx >= 1.0

    def test_no_design_has_zero_structures(self, outcome):
        for window in outcome.run("NoDesign").windows:
            assert window.structure_count == 0
            assert window.design_price_bytes == 0

    def test_skip_transitions(self, columnar_adapter, tiny_windows):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        full = replay(
            TraceSource.from_windows(tiny_windows), {"n": nominal}, columnar_adapter, candidate_source=nominal
        )
        skipped = replay(
            TraceSource.from_windows(tiny_windows),
            {"n": nominal},
            columnar_adapter,
            candidate_source=nominal,
            skip_transitions=1,
        )
        assert len(skipped.run("n").windows) == len(full.run("n").windows) - 1

    def test_max_transitions(self, columnar_adapter, tiny_windows):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        capped = replay(
            TraceSource.from_windows(tiny_windows),
            {"n": nominal},
            columnar_adapter,
            candidate_source=nominal,
            max_transitions=1,
        )
        assert len(capped.run("n").windows) == 1

    def test_before_transition_hook_called(self, columnar_adapter, tiny_windows):
        calls = []
        nominal = ColumnarNominalDesigner(columnar_adapter)
        replay(
            TraceSource.from_windows(tiny_windows),
            {"n": nominal},
            columnar_adapter,
            candidate_source=nominal,
            before_transition=lambda i, train, test: calls.append(i),
        )
        assert calls == list(range(len(tiny_windows) - 1))


class TestAggregation:
    def test_designer_run_means(self):
        run = DesignerRun(
            name="x",
            windows=[
                WindowOutcome(0, 10.0, 100.0, 1.0, 0, 0),
                WindowOutcome(1, 30.0, 300.0, 3.0, 0, 0),
            ],
        )
        assert run.mean_average_ms == pytest.approx(20.0)
        assert run.mean_max_ms == pytest.approx(200.0)
        assert run.mean_design_seconds == pytest.approx(2.0)

    def test_empty_run(self):
        run = DesignerRun(name="x")
        assert run.mean_average_ms == 0.0


class TestReporting:
    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 1234.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert any("1,234" in line or "1234" in line for line in lines)

    def test_format_series_bars_scale(self):
        text = format_series("x", "y", [(1, 10.0), (2, 20.0)])
        lines = [l for l in text.splitlines() if "|" in l]
        assert lines[0].count("#") < lines[1].count("#")

    def test_format_series_zero_values(self):
        text = format_series("x", "y", [(1, 0.0)])
        assert "#" not in text.split("|")[1]
