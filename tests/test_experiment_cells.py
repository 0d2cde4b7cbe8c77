"""The sweeps of ``harness/experiments.py`` are lists of cells.

A cell carries the experiment context (shared by reference in process,
pickled to a worker) instead of regenerating the trace from the scale,
and every recurring piece of the file — the replay protocol, the
resumable fan-out — is written once.
"""

import inspect
import pickle
import re

import pytest

from repro.costing.service import workload_fingerprint
from repro.harness import experiments
from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    run_designer_comparison,
    run_gamma_sweep,
    run_schedule_comparison,
)
from repro.parallel import SerialBackend, ThreadBackend
from repro.workload.generator import TraceGenerator

MICRO = ExperimentScale(
    days=84,
    window_days=28,
    queries_per_day=6,
    n_samples=2,
    iterations=1,
    seed=4,
    legacy_tables=3,
    max_transitions=1,
    skip_transitions=1,
)


@pytest.fixture(scope="module")
def context():
    context = ExperimentContext(MICRO)
    context.default_gamma("R1")  # warm: trace generated, windows split
    return context


class TestCellsCarryTheContext:
    def test_no_cell_regenerates_the_trace(self, context, monkeypatch):
        """One regeneration per cell before cells carried the context."""
        calls = {"generate": 0, "contexts": 0}
        real_generate = TraceGenerator.generate
        real_post_init = ExperimentContext.__post_init__

        def generate(self, *args, **kwargs):
            calls["generate"] += 1
            return real_generate(self, *args, **kwargs)

        def post_init(self):
            calls["contexts"] += 1
            real_post_init(self)

        monkeypatch.setattr(TraceGenerator, "generate", generate)
        monkeypatch.setattr(ExperimentContext, "__post_init__", post_init)
        base = context.default_gamma("R1")
        run_gamma_sweep(context, "R1", gammas=[0.0, base], backend=SerialBackend())
        # Two workers: one worker replays the designers without cells.
        with ThreadBackend(jobs=2) as pool:
            run_designer_comparison(
                context, "R1", which=["NoDesign", "ExistingDesigner"], backend=pool
            )
        run_schedule_comparison(
            context, designers=("ExistingDesigner",), backend=SerialBackend()
        )
        assert calls == {"generate": 0, "contexts": 0}

    def test_pickled_context_is_what_a_process_cell_needs(self, context):
        copy = pickle.loads(pickle.dumps(context))
        assert [workload_fingerprint(w) for w in copy.trace_windows("R1")] == [
            workload_fingerprint(w) for w in context.trace_windows("R1")
        ]
        base = context.default_gamma("R1")
        assert copy.default_gamma("R1") == base
        gammas = [0.0, base]
        assert run_gamma_sweep(copy, "R1", gammas=gammas) == run_gamma_sweep(
            context, "R1", gammas=gammas
        )


class TestOneImplementation:
    """Each recurring thing in the file is spelled once: a drifted copy
    silently changes one figure's protocol."""

    @pytest.mark.parametrize(
        "pattern",
        [r"\breplay\(", r"checkpointer\.load\(", r"checkpointer\.step\("],
    )
    def test_spelled_once(self, pattern):
        source = inspect.getsource(experiments)
        assert len(re.findall(pattern, source)) == 1, pattern

    def test_no_cell_rebuilds_the_context(self):
        assert "ExperimentContext(scale)" not in inspect.getsource(experiments)
