"""Tests for the replay harness and reporting."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.no_design import NoDesign
from repro.harness.replay import DesignerRun, WindowOutcome, beneficial_queries, replay
from repro.harness.reporting import format_series, format_table
from repro.serve.sources import TraceSource


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

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_non_finite_or_negative_factor_rejected(
        self, columnar_adapter, tiny_windows, factor
    ):
        """``base / best >= nan`` is always false: such a factor would keep
        nothing, silently.  It is refused before anything is priced."""
        nominal = ColumnarNominalDesigner(columnar_adapter)
        with pytest.raises(ValueError, match="factor"):
            beneficial_queries(columnar_adapter, nominal, tiny_windows[1], factor=factor)
        assert columnar_adapter.costing.stats.query_requests == 0

    def test_zero_factor_keeps_every_priced_query(self, columnar_adapter, tiny_windows):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        kept = beneficial_queries(columnar_adapter, nominal, tiny_windows[1], factor=0.0)
        assert len(kept) >= len(
            beneficial_queries(columnar_adapter, nominal, tiny_windows[1])
        )


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


    def test_transition_scope_is_left_after_each_transition(
        self, columnar_adapter, tiny_windows
    ):
        """Every designer runs a transition inside one scope and holds
        none after it (nothing of it can reach a checkpoint)."""
        nominal = ColumnarNominalDesigner(columnar_adapter)
        oracle = FutureKnowingDesigner(nominal)
        hooks, designs = [], []
        real_design = nominal.design

        def recording_design(workload):
            designs.append((nominal.scope, oracle.scope))
            return real_design(workload)

        nominal.design = recording_design
        replay(
            TraceSource.from_windows(tiny_windows),
            {"ExistingDesigner": nominal, "FutureKnowingDesigner": oracle},
            columnar_adapter,
            candidate_source=nominal,
            before_transition=lambda i, train, test: hooks.append(nominal.scope),
        )
        del nominal.design
        assert nominal.scope is None and oracle.scope is None
        assert hooks and all(scope is None for scope in hooks)
        # Two designs per transition (the nominal's, then the oracle's
        # through it), both in the transition's scope; no scope is
        # shared by two transitions.
        assert len(designs) == 2 * len(hooks)
        scopes = []
        for (existing, seen), (inner, wrapper) in zip(designs[::2], designs[1::2]):
            assert existing is not None
            assert existing is seen is inner is wrapper
            scopes.append(existing)
        assert len({id(scope) for scope in scopes}) == len(scopes)


def _e2e_workloads():
    """``benchmarks/e2e/workloads.py`` (the ledger's rounds)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_one_replay_equals_one_call_per_transition():
    """The ledger's replay round calls ``replay`` once per transition on
    one warm service; one call over all of them (one transition scope
    after another, the caches carried across) gives the same outcomes,
    field for field — the effort counters included."""
    workloads = _e2e_workloads()
    round_ = workloads.WORKLOADS["replay-r1-nominal"]
    first = round_.skip_windows
    count = round_.units_per_round

    def replayed(stack, skip, transitions):
        session = stack["session"]
        return replay(
            stack["source"],
            stack["designers"],
            session.adapter,
            candidate_source=session.nominal,
            workload_name=round_.family,
            max_transitions=transitions,
            skip_transitions=skip,
        )

    whole = replayed(round_.setup(1), first, count)
    stack = round_.setup(1)
    parts = [replayed(stack, first + i, 1) for i in range(count)]

    def fields(outcome):
        values = dataclasses.asdict(outcome)
        del values["design_seconds"]
        return values

    assert whole.evaluated_query_counts == [
        n for part in parts for n in part.evaluated_query_counts
    ]
    assert len(whole.evaluated_query_counts) == count
    for name in round_.designers:
        assert [fields(w) for w in whole.run(name).windows] == [
            fields(w) for part in parts for w in part.run(name).windows
        ]


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
