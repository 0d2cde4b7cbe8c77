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
from repro.parallel import ProcessBackend, SerialBackend

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
        legacy = run_gamma_sweep(context, "R1", gammas=gammas)
        serial = run_gamma_sweep(context, "R1", gammas=gammas, backend=SerialBackend())
        with ProcessBackend(jobs=2) as pool:
            process = run_gamma_sweep(context, "R1", gammas=gammas, backend=pool)
        assert serial == process
        # The legacy inline loop shares one adapter across Γs; the cache
        # returns exact floats, so even it agrees bit-for-bit.
        assert legacy == serial

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

    def test_designer_comparison_task_path_matches_legacy_values(self):
        # The legacy path shares one adapter across designers (warm cache),
        # the task path isolates each designer — *values* must still agree;
        # only cache-hit instrumentation may differ.
        context = ExperimentContext(MICRO)
        legacy = run_designer_comparison(context, "R1", which=WHICH)
        serial = run_designer_comparison(
            context, "R1", which=WHICH, backend=SerialBackend()
        )
        for name in WHICH:
            a, b = legacy.run(name), serial.run(name)
            assert a.mean_average_ms == pytest.approx(b.mean_average_ms)
            assert a.mean_max_ms == pytest.approx(b.mean_max_ms)
            for wa, wb in zip(a.windows, b.windows):
                assert wa.average_ms == wb.average_ms
                assert wa.max_ms == wb.max_ms
                assert wa.design_price_bytes == wb.design_price_bytes
