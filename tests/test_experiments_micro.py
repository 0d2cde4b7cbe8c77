"""Micro-scale tests for the remaining experiment entry points."""

import pytest

from repro.designers.base import Designer
from repro.harness import experiments
from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    run_fig6,
    run_gamma_sweep,
    run_latency_metric_correlation,
    run_offline_time,
    run_sample_size_sweep,
)


@pytest.fixture(scope="module")
def context():
    scale = ExperimentScale(
        days=84,
        window_days=28,
        queries_per_day=6,
        n_samples=3,
        iterations=1,
        legacy_tables=5,
        max_transitions=1,
        skip_transitions=1,
    )
    return ExperimentContext(scale)


def _without_timings(runs: dict) -> dict:
    """A schedule comparison's runs with their wall-clock fields at 0."""
    return {key: run.without_timings() for key, run in runs.items()}


class TestGammaSweep:
    def test_zero_gamma_matches_nominal_branch(self, context):
        base = context.default_gamma("R1")
        sweep = run_gamma_sweep(context, "R1", gammas=[0.0, base])
        assert set(sweep) == {0.0, base}
        for avg, mx in sweep.values():
            assert 0 < avg <= mx


class _CountingDesigner(Designer):
    """A nominal designer that counts its ``design`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def design(self, workload):
        self.calls += 1
        return self.inner.design(workload)

    def scoped(self, scope):
        return self.inner.scoped(scope)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestOfflineTime:
    def test_rows_per_designer(self, context, monkeypatch):
        """Figure 14's order — CliffGuard does more design work than the
        designer it wraps — on counted nominal ``design`` calls, not on
        wall-clock seconds a stall under load can reorder."""
        counters: dict[str, _CountingDesigner] = {}
        build = experiments._build_designers

        def counted(context, adapter, nominal, gamma, which, *args, **cfg):
            designers, samplers = {}, []
            for name in which:
                counters[name] = _CountingDesigner(nominal)
                own, own_samplers = build(
                    context, adapter, counters[name], gamma, [name], *args, **cfg
                )
                designers.update(own)
                samplers.extend(own_samplers)
            return designers, samplers

        monkeypatch.setattr(experiments, "_build_designers", counted)
        rows = run_offline_time(
            context, which=["NoDesign", "ExistingDesigner", "CliffGuard"]
        )
        names = {r.designer for r in rows}
        assert names == {"NoDesign", "ExistingDesigner", "CliffGuard"}
        by_name = {r.designer: r for r in rows}
        assert by_name["NoDesign"].deployment_seconds == 0.0
        assert by_name["ExistingDesigner"].deployment_seconds > 0
        # Both designers replay the same windows, so the totals order
        # the per-window counts.
        assert counters["NoDesign"].calls == 0
        assert counters["CliffGuard"].calls > counters["ExistingDesigner"].calls >= 1


class TestFig6Micro:
    def test_points_sorted_and_positive(self, context):
        points = run_fig6(context, n_probes=3, anchors=1)
        assert points == sorted(points)
        assert all(latency > 0 for _, latency in points)


class TestLatencyMetricCorrelation:
    def test_curves_per_omega(self, context):
        curves = run_latency_metric_correlation(
            context, omegas=(0.1, 0.2), n_probes=4
        )
        assert set(curves) == {0.1, 0.2}
        for points in curves.values():
            assert len(points) == 4
            assert all(ratio > 0 for _, ratio in points)
            # δ_latency distances are sorted ascending.
            xs = [d for d, _ in points]
            assert xs == sorted(xs)


class TestSampleSizeSweep:
    def test_each_size_reported(self, context):
        results = run_sample_size_sweep(context, sample_sizes=(2, 4))
        assert set(results) == {2, 4}
        for avg, mx in results.values():
            assert 0 < avg <= mx


class TestExperimentResume:
    """Crash the experiment grids mid-run and resume; results must be
    identical to the uninterrupted run (see docs/state.md)."""

    @staticmethod
    def _replay_facts(result):
        """Everything deterministic about a ReplayResult: all WindowOutcome
        fields except wall-clock ``design_seconds``."""
        import dataclasses

        return {
            "workload": result.workload_name,
            "counts": result.evaluated_query_counts,
            "runs": {
                name: [
                    {
                        f.name: getattr(w, f.name)
                        for f in dataclasses.fields(w)
                        if f.name != "design_seconds"
                    }
                    for w in run.windows
                ]
                for name, run in result.runs.items()
            },
        }

    def test_gamma_sweep_resumes_identically(self, context, tmp_path):
        from repro.harness.experiments import run_gamma_sweep
        from repro.state import RunCheckpointer, SimulatedCrash

        base = context.default_gamma("R1")
        gammas = [0.0, base]
        baseline = run_gamma_sweep(context, "R1", gammas=gammas)
        path = tmp_path / "sweep.ckpt"
        crashing = RunCheckpointer(path, crash_after=1)
        with pytest.raises(SimulatedCrash):
            run_gamma_sweep(context, "R1", gammas=gammas, checkpointer=crashing)
        resumed = run_gamma_sweep(
            context,
            "R1",
            gammas=gammas,
            checkpointer=RunCheckpointer(path, resume=True),
        )
        assert resumed == baseline

    def test_designer_comparison_resumes_identically(self, context, tmp_path):
        from repro.harness.experiments import run_designer_comparison
        from repro.state import RunCheckpointer, SimulatedCrash

        which = ["NoDesign", "ExistingDesigner"]
        baseline = run_designer_comparison(context, "R1", which=which)
        path = tmp_path / "compare.ckpt"
        # The serial path checkpoints per window transition (through
        # replay); with max_transitions=1 the single write lands after
        # the only transition, so the crash leaves a finished snapshot.
        crashing = RunCheckpointer(path, crash_after=1)
        with pytest.raises(SimulatedCrash):
            run_designer_comparison(context, "R1", which=which, checkpointer=crashing)
        resumed = run_designer_comparison(
            context,
            "R1",
            which=which,
            checkpointer=RunCheckpointer(path, resume=True),
        )
        assert self._replay_facts(resumed) == self._replay_facts(baseline)

    def test_schedule_comparison_resumes_identically(self, context, tmp_path):
        from repro.harness.experiments import run_schedule_comparison
        from repro.state import RunCheckpointer, SimulatedCrash

        kwargs = dict(
            workload="R1",
            designers=("ExistingDesigner",),
            everies=(1, 2),
            iterations=1,
        )
        baseline = run_schedule_comparison(context, **kwargs)
        path = tmp_path / "schedule.ckpt"
        crashing = RunCheckpointer(path, crash_after=1)
        with pytest.raises(SimulatedCrash):
            run_schedule_comparison(context, checkpointer=crashing, **kwargs)
        resumed = run_schedule_comparison(
            context,
            checkpointer=RunCheckpointer(path, resume=True),
            **kwargs,
        )
        # A resumed cell reads 0 for the design time it restored; every
        # other field is equal.
        assert _without_timings(resumed) == _without_timings(baseline)

    # -- resume at every cell, not only the first ------------------------------

    @staticmethod
    def _crash_at_every_checkpoint(run, expected_checkpoints, tmp_path, facts=lambda r: r):
        """``run(checkpointer)`` crashed after each of its checkpoints in
        turn and resumed must equal the uninterrupted run."""
        from repro.state import RunCheckpointer, SimulatedCrash

        counting = RunCheckpointer(tmp_path / "count.ckpt")
        baseline = facts(run(counting))
        assert counting.writes == expected_checkpoints
        for boundary in range(1, expected_checkpoints + 1):
            path = tmp_path / f"crash-{boundary}.ckpt"
            with pytest.raises(SimulatedCrash):
                run(RunCheckpointer(path, crash_after=boundary))
            resumed = run(RunCheckpointer(path, resume=True))
            assert facts(resumed) == baseline, boundary

    def test_gamma_sweep_resumes_at_every_cell(self, context, tmp_path):
        from repro.harness.experiments import run_gamma_sweep

        base = context.default_gamma("R1")
        gammas = [0.0, base, 2 * base]

        def run(checkpointer):
            return run_gamma_sweep(context, "R1", gammas=gammas, checkpointer=checkpointer)

        self._crash_at_every_checkpoint(run, len(gammas), tmp_path)

    def test_schedule_comparison_resumes_at_every_cell(self, context, tmp_path):
        from repro.harness.experiments import run_schedule_comparison

        def run(checkpointer):
            return run_schedule_comparison(
                context,
                designers=("ExistingDesigner",),
                everies=(1, 2, 3),
                iterations=1,
                checkpointer=checkpointer,
            )

        self._crash_at_every_checkpoint(run, 3, tmp_path, _without_timings)

    @pytest.mark.parametrize("cells", [False, True])
    def test_designer_comparison_resumes_at_every_cell(self, context, tmp_path, cells):
        from repro.harness.experiments import run_designer_comparison
        from repro.parallel import SerialBackend, ThreadBackend

        which = ["NoDesign", "ExistingDesigner", "CliffGuard"]

        def run(checkpointer):
            with ThreadBackend(jobs=2) if cells else SerialBackend() as backend:
                return run_designer_comparison(
                    context, "R1", which=which, backend=backend, checkpointer=checkpointer
                )

        # The shared replay (one worker) checkpoints per window transition,
        # one at this scale; two workers take the three cells as one batch
        # and checkpoint once it lands.
        self._crash_at_every_checkpoint(run, 1, tmp_path, self._replay_facts)
