"""Regression tests for the designer-comparison harness fixes.

Three correctness holes, each with the failure mode it guards against:

* the backend path adopted the window ``counts`` from whichever designer
  task landed *first* — a divergent replay in any later task slipped
  through silently;
* ``which=["greedy", "greedy"]`` double-ran the designer and corrupted
  the name-keyed resume dict (the second run silently overwrote the
  first);
* a forged or hand-moved checkpoint could carry designers the resuming
  call never asked for, replaying them into the result unnoticed.
"""

from dataclasses import astuple

import pytest

from repro.designers import registry
from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    run_designer_comparison,
)
from repro.harness.replay import DesignerRun
from repro.parallel import ThreadBackend
from repro.state import CheckpointMismatchError, RunCheckpointer, run_key


@pytest.fixture(scope="module")
def context():
    scale = ExperimentScale(
        days=84,
        window_days=28,
        queries_per_day=6,
        n_samples=2,
        iterations=1,
        seed=3,
        legacy_tables=2,
        max_transitions=1,
        skip_transitions=1,
    )
    return ExperimentContext(scale)


class TestWhichValidation:
    def test_duplicate_names_rejected(self, context):
        with pytest.raises(ValueError, match="duplicate designer"):
            run_designer_comparison(
                context, "R1", which=["ExistingDesigner", "ExistingDesigner"]
            )

    def test_unknown_name_rejected(self, context):
        with pytest.raises(ValueError, match="unknown designer"):
            run_designer_comparison(context, "R1", which=["NotADesigner"])

    def test_registry_validate_names(self):
        assert registry.validate_names(["NoDesign", "CliffGuard"]) == [
            "NoDesign",
            "CliffGuard",
        ]
        with pytest.raises(ValueError, match="duplicate designer 'NoDesign'"):
            registry.validate_names(["NoDesign", "NoDesign"])
        with pytest.raises(ValueError, match="unknown designer 'greedy'"):
            registry.validate_names(["greedy"])

    def test_build_all_rejects_duplicates(self, context):
        adapter = context.columnar_adapter()
        from repro.designers.columnar_nominal import ColumnarNominalDesigner

        nominal = ColumnarNominalDesigner(adapter)
        with pytest.raises(ValueError, match="duplicate designer"):
            registry.build_all(
                adapter,
                nominal,
                0.01,
                which=["NoDesign", "NoDesign"],
                make_sampler=context.sampler,
            )

    def test_backend_path_validates_too(self, context):
        with ThreadBackend(jobs=2) as backend:
            with pytest.raises(ValueError, match="duplicate designer"):
                run_designer_comparison(
                    context,
                    "R1",
                    which=["NoDesign", "NoDesign"],
                    backend=backend,
                )


class TestCountsAgreement:
    def test_divergent_task_counts_raise(self, context, monkeypatch):
        """A designer task replaying different windows must fail loudly,
        not silently inherit the first task's counts."""
        import repro.harness.experiments as experiments

        real_task = experiments._designer_comparison_task

        def mismatched(task):
            name, run, counts = real_task(task)
            if name == "ExistingDesigner":
                counts = [c + 1 for c in counts]
            return name, run, counts

        monkeypatch.setattr(
            experiments, "_designer_comparison_task", mismatched
        )
        # Two workers: one takes the shared replay, which has no tasks.
        with ThreadBackend(jobs=2) as backend:
            with pytest.raises(RuntimeError, match="counts diverged"):
                run_designer_comparison(
                    context,
                    "R1",
                    which=["NoDesign", "ExistingDesigner"],
                    backend=backend,
                )

    def test_agreeing_counts_pass(self, context):
        with ThreadBackend(jobs=2) as backend:
            result = run_designer_comparison(
                context,
                "R1",
                which=["NoDesign", "ExistingDesigner"],
                backend=backend,
            )
        assert result.evaluated_query_counts
        assert set(result.runs) == {"NoDesign", "ExistingDesigner"}


class TestResumeCompatibility:
    def test_stale_designer_in_snapshot_rejected(self, context, tmp_path):
        """A snapshot carrying a designer outside the requested selection
        must be rejected, not replayed into the result."""
        names = ("NoDesign", "ExistingDesigner")
        gamma = context.default_gamma("R1")
        state_key = run_key(
            "designer_comparison",
            astuple(context.scale),
            "R1",
            "columnar",
            names,
            gamma,
        )
        path = tmp_path / "forged.ckpt"
        RunCheckpointer(path).save(
            "designer_comparison",
            state_key,
            {
                "runs": {"CliffGuard": DesignerRun(name="CliffGuard")},
                "counts": [7],
            },
        )
        with ThreadBackend(jobs=2) as backend:
            with pytest.raises(
                CheckpointMismatchError, match="CliffGuard"
            ):
                run_designer_comparison(
                    context,
                    "R1",
                    which=list(names),
                    gamma=gamma,
                    backend=backend,
                    checkpointer=RunCheckpointer(path, resume=True),
                )

    def test_subset_snapshot_resumes(self, context, tmp_path):
        """The inverse case stays legal: a snapshot holding a *subset* of
        the requested designers resumes the pending ones."""
        names = ["NoDesign", "ExistingDesigner"]
        path = tmp_path / "partial.ckpt"
        with ThreadBackend(jobs=2) as backend:
            baseline = run_designer_comparison(
                context, "R1", which=names, backend=backend
            )
            run_designer_comparison(
                context,
                "R1",
                which=["NoDesign"],
                backend=backend,
                checkpointer=RunCheckpointer(path),
            )
            # Different selection → different run key, so reuse requires
            # the same names; here we just rerun the full pair fresh with
            # its own checkpoint and resume it to completion.
            full = tmp_path / "full.ckpt"
            run_designer_comparison(
                context,
                "R1",
                which=names,
                backend=backend,
                checkpointer=RunCheckpointer(full),
            )
            resumed = run_designer_comparison(
                context,
                "R1",
                which=names,
                backend=backend,
                checkpointer=RunCheckpointer(full, resume=True),
            )
        assert set(resumed.runs) == set(baseline.runs)
        assert resumed.evaluated_query_counts == baseline.evaluated_query_counts
