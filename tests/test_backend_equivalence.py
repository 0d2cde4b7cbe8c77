"""Bit-identity of the execution backends' whole-task fan-out.

The same experiment grid must produce byte-for-byte identical designs,
cost trajectories, and instrumentation counters on the serial and
process backends at any worker count.  Wall-clock fields
(``design_seconds``, ``eval_seconds``) are the only permitted difference.
"""

import pytest

from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    run_designer_comparison,
    run_gamma_sweep,
)
from repro.designers import registry
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend

MICRO = ExperimentScale(
    days=84,
    window_days=28,
    queries_per_day=6,
    n_samples=3,
    iterations=1,
    seed=2,
    legacy_tables=5,
    max_transitions=1,
    skip_transitions=1,
)

WHICH = ["NoDesign", "ExistingDesigner", "CliffGuard"]


class TestExperimentFanOut:
    def test_gamma_sweep_identical_across_backends(self):
        context = ExperimentContext(MICRO)
        base = context.default_gamma("R1")
        gammas = [0.0, base]
        serial = run_gamma_sweep(context, "R1", gammas=gammas, backend=SerialBackend())
        with ProcessBackend(jobs=2) as pool:
            process = run_gamma_sweep(context, "R1", gammas=gammas, backend=pool)
        assert serial == process

    def test_designer_comparison_identical_across_backends(self):
        context = ExperimentContext(MICRO)
        serial = run_designer_comparison(
            context, "R1", which=WHICH, backend=SerialBackend()
        )
        with ProcessBackend(jobs=2) as pool:
            process = run_designer_comparison(context, "R1", which=WHICH, backend=pool)
        assert set(serial.runs) == set(process.runs) == set(WHICH)
        assert serial.evaluated_query_counts == process.evaluated_query_counts
        for name in WHICH:
            a, b = serial.run(name), process.run(name)
            assert len(a.windows) == len(b.windows)
            for wa, wb in zip(a.windows, b.windows):
                assert wa.window_index == wb.window_index
                assert wa.average_ms == wb.average_ms
                assert wa.max_ms == wb.max_ms
                assert wa.design_price_bytes == wb.design_price_bytes
                assert wa.structure_count == wb.structure_count
                assert wa.query_cost_calls == wb.query_cost_calls
                assert wa.raw_cost_model_calls == wb.raw_cost_model_calls

    @pytest.mark.parametrize("workload, engine", [("R1", "columnar"), ("HTAP", "rowstore")])
    def test_one_worker_replay_equals_cells(self, workload, engine):
        # One worker replays every designer over one cost service, two
        # fan them out as isolated cells: the rule is only sound while
        # both paths return the same outcomes, learner stats and counts.
        context = ExperimentContext(MICRO)
        shared = run_designer_comparison(
            context, workload, engine=engine, backend=SerialBackend()
        )
        with ThreadBackend(jobs=2) as pool:
            cells = run_designer_comparison(context, workload, engine=engine, backend=pool)
        assert list(shared.runs) == list(cells.runs) == registry.names()
        assert shared.evaluated_query_counts
        assert all(run.windows for run in shared.runs.values())
        assert shared.without_timings() == cells.without_timings()
