"""BanditDesigner: C²UCB model, safety guard, determinism, kill-resume.

The contract under test (docs/designers.md):

* same-seed determinism — the serial, thread, and process backends
  produce bit-identical designs, window trajectories, and arm stats;
* the safety guard — no accepted round's predicted cost regresses past
  ``(1 + safety_margin) ×`` the incumbent's predicted cost;
* observe/checkpoint/kill-resume equivalence — a replay crashed (via
  :class:`SimulatedCrash`) at every window boundary and resumed lands on
  the bit-identical result and learner state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.designers.bandit import (
    FEATURE_DIM,
    BanditDesigner,
    extract_features,
)
from repro.designers.greedy import CandidateEvaluation
from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    run_designer_comparison,
)
from repro.parallel import ProcessBackend, ThreadBackend
from repro.state import RunCheckpointer, SimulatedCrash


def tiny_scale(**overrides) -> ExperimentScale:
    base = dict(
        days=84,
        window_days=28,
        queries_per_day=6,
        n_samples=2,
        iterations=1,
        seed=3,
        legacy_tables=2,
        max_transitions=2,
        skip_transitions=0,
    )
    base.update(overrides)
    return ExperimentScale(**base)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(tiny_scale())


def bandit_for(context, **kwargs):
    from repro.designers.columnar_nominal import ColumnarNominalDesigner

    adapter = context.columnar_adapter()
    nominal = ColumnarNominalDesigner(adapter)
    return BanditDesigner(nominal, adapter, **kwargs), adapter


def replay_facts(result):
    return {
        name: (
            [
                (
                    w.window_index,
                    w.average_ms,
                    w.max_ms,
                    w.design_price_bytes,
                    w.structure_count,
                )
                for w in run.windows
            ],
            run.stats,
        )
        for name, run in result.runs.items()
    }


class TestModel:
    def test_design_learns_and_reports(self, context):
        bandit, adapter = bandit_for(context)
        windows = [w for w in context.trace_windows("R1") if len(w)]
        design = bandit.design(windows[0])
        assert bandit.rounds == 1
        assert adapter.structures(design)
        observed = {
            q.sql: adapter.query_cost(q.sql, design)
            for q in windows[1].collapsed()
        }
        before = bandit.V.copy()
        bandit.observe(windows[1], design, observed)
        assert bandit.observations == 1
        assert not np.array_equal(bandit.V, before)
        stats = bandit.stats()
        assert stats["rounds"] == 1 and stats["observations"] == 1
        assert stats["arms_tracked"] > 0

    def test_observe_ignores_unknown_structures(self, context):
        bandit, adapter = bandit_for(context)
        windows = [w for w in context.trace_windows("R1") if len(w)]
        # A design the bandit never selected: no feature vectors on
        # record, so there is nothing to credit.
        foreign = bandit.nominal.design(windows[0])
        before = bandit.V.copy()
        bandit.observe(windows[0], foreign, {"SELECT 1": 1.0})
        assert np.array_equal(bandit.V, before)

    def test_empty_window_returns_incumbent(self, context):
        from repro.workload.workload import Workload

        bandit, adapter = bandit_for(context)
        design = bandit.design(Workload([]))
        assert design == adapter.empty_design()
        windows = [w for w in context.trace_windows("R1") if len(w)]
        accepted = bandit.design(windows[0])
        assert bandit.design(Workload([])) == accepted

    def test_export_import_round_trip(self, context):
        bandit, adapter = bandit_for(context, seed=11)
        windows = [w for w in context.trace_windows("R1") if len(w)]
        design = bandit.design(windows[0])
        observed = {
            q.sql: adapter.query_cost(q.sql, design)
            for q in windows[1].collapsed()
        }
        bandit.observe(windows[1], design, observed)
        state = bandit.export_state()
        twin, _ = bandit_for(context, seed=999)
        twin.import_state(state)
        assert twin.model_digest() == bandit.model_digest()
        assert twin.design(windows[1]) == bandit.design(windows[1])

    def test_constructor_validation(self, context):
        with pytest.raises(ValueError, match="safety_margin"):
            bandit_for(context, safety_margin=-0.1)


class TestSafetyGuard:
    def test_accepted_rounds_respect_margin(self, context):
        margin = 0.15
        bandit, adapter = bandit_for(context, safety_margin=margin)
        windows = [w for w in context.trace_windows("ECOMMERCE") if len(w)]
        for window in windows:
            incumbent = bandit._incumbent_design()
            fallbacks = bandit.safety_fallbacks
            design = bandit.design(window)
            bound = adapter.workload_cost(window, incumbent).average_ms * (
                1.0 + margin
            )
            if bandit.safety_fallbacks == fallbacks:
                # Accepted: the served design's predicted cost honors the
                # no-regret bound against the round's incumbent.
                assert adapter.workload_cost(window, design).average_ms <= bound * (
                    1.0 + 1e-9
                )
            else:
                # Rejected: the incumbent keeps serving, unchanged.
                assert design == incumbent

    def test_zero_margin_never_regresses(self, context):
        bandit, adapter = bandit_for(context, safety_margin=0.0)
        windows = [w for w in context.trace_windows("HTAP") if len(w)]
        for window in windows:
            incumbent = bandit._incumbent_design()
            design = bandit.design(window)
            assert (
                adapter.workload_cost(window, design).average_ms
                <= adapter.workload_cost(window, incumbent).average_ms
                * (1.0 + 1e-9)
            )

    def test_fallback_surfaces_counter(self, context):
        from repro.obs import get_metrics

        bandit, adapter = bandit_for(context, safety_margin=0.0)
        bandit.alpha = 50.0
        windows = [w for w in context.trace_windows("HTAP") if len(w)]
        before = get_metrics().counter("bandit.safety_fallbacks").value
        for window in windows:
            bandit.design(window)
        if bandit.safety_fallbacks:
            after = get_metrics().counter("bandit.safety_fallbacks").value
            assert after - before == bandit.safety_fallbacks


class TestBackendDeterminism:
    WHICH = ["CliffGuard", "BanditDesigner"]

    def _facts(self, backend):
        context = ExperimentContext(tiny_scale())
        return replay_facts(
            run_designer_comparison(
                context, "R1", which=self.WHICH, backend=backend
            )
        )

    def test_serial_thread_process_identical(self):
        serial = self._facts("serial")
        assert serial["BanditDesigner"][1]["rounds"] == 2
        with ThreadBackend(jobs=2) as threads:
            assert self._facts(threads) == serial
        with ProcessBackend(jobs=2) as pool:
            assert self._facts(pool) == serial


class TestKillResume:
    def test_crash_at_every_window_boundary(self, tmp_path):
        scale = tiny_scale()
        which = ["BanditDesigner"]
        baseline = run_designer_comparison(
            ExperimentContext(scale), "R1", which=which
        )
        transitions = len(baseline.run("BanditDesigner").windows)
        assert transitions >= 2
        for crash_after in range(1, transitions + 1):
            path = tmp_path / f"bandit-{crash_after}.ckpt"
            crashing = RunCheckpointer(path, crash_after=crash_after)
            context = ExperimentContext(scale)
            # The crash fires right after the N-th snapshot lands (the
            # final transition's write included), so every sweep point
            # raises — the snapshot just written is durable.
            with pytest.raises(SimulatedCrash):
                run_designer_comparison(
                    context, "R1", which=which, checkpointer=crashing
                )
            resumed = run_designer_comparison(
                ExperimentContext(scale),
                "R1",
                which=which,
                checkpointer=RunCheckpointer(path, resume=True),
            )
            assert replay_facts(resumed) == replay_facts(baseline)


class TestServeLearner:
    """The daemon wiring: in-process re-designs, boundary feedback, and
    learner state riding in the serve checkpoints (docs/serving.md)."""

    TINY = dict(
        workload="ECOMMERCE",
        days=56,
        window_days=14,
        queries_per_day=5,
        n_samples=2,
        iterations=1,
        legacy_tables=5,
        seed=42,
        backend="serial",
    )

    @classmethod
    def daemon(cls):
        from repro import RobustDesignSession, RunConfig, ServeConfig

        return RobustDesignSession(RunConfig(**cls.TINY)).daemon(
            ServeConfig(
                designer="BanditDesigner",
                policy="periodic",
                every=1,
                swap_mode="boundary",
                min_window_queries=1,
            )
        )

    @staticmethod
    def normalize(outcome):
        return (
            outcome.position,
            outcome.windows,
            outcome.triggers,
            outcome.redesigns_launched,
            outcome.redesigns_failed,
            outcome.swaps,
            outcome.final_epoch,
            outcome.final_design_digest,
            outcome.structure_count,
            outcome.design_price_bytes,
            tuple(
                (p.position, p.timestamp, p.epoch, p.cost_ms)
                for p in outcome.priced
            ),
        )

    def test_learner_attached_and_fed(self):
        daemon = self.daemon()
        assert daemon.learner is not None
        assert daemon.learner.learns_online
        outcome = daemon.run()
        assert outcome.swaps >= 1
        assert daemon.learner.observations >= outcome.windows - 1
        assert daemon.learner.rounds == outcome.redesigns_launched

    def test_kill_resume_bit_identical(self, tmp_path):
        baseline_daemon = self.daemon()
        baseline_daemon.checkpointer = RunCheckpointer(tmp_path / "count")
        baseline = self.normalize(baseline_daemon.run())
        baseline_digest = baseline_daemon.learner.model_digest()
        writes = baseline_daemon.checkpointer.writes
        assert writes >= 3
        for boundary in range(1, writes + 1):
            path = tmp_path / f"crash-{boundary}"
            crashed = self.daemon()
            crashed.checkpointer = RunCheckpointer(path, crash_after=boundary)
            with pytest.raises(SimulatedCrash):
                crashed.run()
            resumed = self.daemon()
            resumed.checkpointer = RunCheckpointer(path, resume=True)
            outcome = resumed.run()
            assert outcome.resumed
            assert self.normalize(outcome) == baseline, (
                f"diverged at write {boundary}"
            )
            assert resumed.learner.model_digest() == baseline_digest


@st.composite
def _feature_case(draw):
    n_candidates = draw(st.integers(min_value=1, max_value=6))
    n_queries = draw(st.integers(min_value=1, max_value=6))

    def floats(lo, hi, n, *extra):
        cell = st.one_of(st.floats(min_value=lo, max_value=hi), *extra)
        return np.array(draw(st.lists(cell, min_size=n, max_size=n)))

    base = floats(0.0, 1e4, n_queries)
    weights = floats(0.0, 100.0, n_queries)
    cells = floats(0.0, 2e4, n_candidates * n_queries, st.just(np.inf))
    sizes = floats(1.0, 1e9, n_candidates)
    return base, cells.reshape(n_candidates, n_queries), weights, sizes


class TestFeatureExtraction:
    @staticmethod
    def _evaluation(base, matrix, weights, sizes):
        return CandidateEvaluation(
            candidates=list(range(matrix.shape[0])),
            sqls=[f"q{i}" for i in range(matrix.shape[1])],
            weights=weights,
            base_costs=base,
            matrix=matrix,
            sizes=sizes,
        )

    @given(case=_feature_case())
    # A denormal base-cost mass used to overflow penalty and best-rel to inf.
    @example(
        case=(
            np.array([2.2250738585e-313]),
            np.array([[1.0]]),
            np.array([1.0]),
            np.array([1.0]),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_features_bounded_and_finite(self, case):
        base, matrix, weights, sizes = case
        n_candidates = matrix.shape[0]
        evaluation = self._evaluation(base, matrix, weights, sizes)
        features = extract_features(evaluation, budget_bytes=10**8)
        assert features.shape == (n_candidates, FEATURE_DIM)
        assert np.isfinite(features).all()
        # bias fixed; coverage, best-rel, and size fractions live in [0, 1]
        assert (features[:, 0] == 1.0).all()
        assert (features[:, 3] >= 0).all() and (features[:, 3] <= 1 + 1e-9).all()
        assert (features[:, 4] >= 0).all() and (features[:, 4] <= 1 + 1e-9).all()
        assert (features[:, 5] >= 0).all() and (features[:, 5] <= 1.0).all()

    def test_benefit_and_penalty_split(self):
        base = np.array([10.0, 10.0])
        weights = np.array([1.0, 1.0])
        # candidate 0 halves query 0 and leaves query 1; candidate 1
        # regresses both (pure maintenance drag).
        matrix = np.array([[5.0, 10.0], [12.0, 14.0]])
        sizes = np.array([100.0, 100.0])
        features = extract_features(
            self._evaluation(base, matrix, weights, sizes), budget_bytes=1000
        )
        assert features[0, 1] == pytest.approx(0.25)  # benefit 5/20
        assert features[0, 2] == 0.0
        assert features[1, 1] == 0.0
        assert features[1, 2] == pytest.approx(0.3)  # penalty 6/20
        assert features[0, 3] == pytest.approx(0.5)  # covers 1 of 2 queries
        assert features[1, 3] == 0.0
