"""Tests for the re-design scheduling extension."""

import pytest

from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.harness.scheduler import (
    DriftTriggeredPolicy,
    PeriodicPolicy,
    scheduled_replay,
)
from repro.serve.sources import TraceSource
from repro.workload.distance import WorkloadDistance


class TestPolicies:
    def test_periodic_every_window(self, tiny_windows):
        policy = PeriodicPolicy(every=1)
        assert policy.should_redesign(0, None, tiny_windows[0])
        assert policy.should_redesign(1, tiny_windows[0], tiny_windows[1])

    def test_periodic_every_second_window(self, tiny_windows):
        policy = PeriodicPolicy(every=2)
        assert policy.should_redesign(0, None, tiny_windows[0])  # first design
        assert policy.should_redesign(2, tiny_windows[0], tiny_windows[1])
        assert not policy.should_redesign(1, tiny_windows[0], tiny_windows[1])

    def test_periodic_rejects_zero(self):
        with pytest.raises(ValueError):
            PeriodicPolicy(every=0)

    def test_drift_triggered(self, tiny_star, tiny_windows):
        schema, _ = tiny_star
        distance = WorkloadDistance(schema.total_columns)
        drift = distance(tiny_windows[0], tiny_windows[1])
        eager = DriftTriggeredPolicy(distance, threshold=drift * 0.5)
        lazy = DriftTriggeredPolicy(distance, threshold=drift * 100)
        assert eager.should_redesign(1, tiny_windows[0], tiny_windows[1])
        assert not lazy.should_redesign(1, tiny_windows[0], tiny_windows[1])

    def test_drift_threshold_validation(self, tiny_star):
        schema, _ = tiny_star
        distance = WorkloadDistance(schema.total_columns)
        with pytest.raises(ValueError):
            DriftTriggeredPolicy(distance, threshold=-1.0)


class TestScheduledReplay:
    def test_monthly_redesign_matches_window_count(
        self, columnar_adapter, tiny_windows
    ):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        outcome = scheduled_replay(
            TraceSource.from_windows(tiny_windows), nominal, columnar_adapter, PeriodicPolicy(every=1)
        )
        assert outcome.redesign_count == len(tiny_windows) - 1
        assert len(outcome.per_window_avg_ms) == len(tiny_windows) - 1
        assert outcome.total_deployment_seconds > 0

    def test_fewer_redesigns_cost_less_deployment(
        self, columnar_adapter, tiny_windows
    ):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        monthly = scheduled_replay(
            TraceSource.from_windows(tiny_windows), nominal, columnar_adapter, PeriodicPolicy(every=1)
        )
        rare = scheduled_replay(
            TraceSource.from_windows(tiny_windows), nominal, columnar_adapter, PeriodicPolicy(every=3)
        )
        assert rare.redesign_count < monthly.redesign_count
        assert rare.total_deployment_seconds < monthly.total_deployment_seconds
        # …but the stale designs serve later windows worse (or equal).
        assert rare.mean_average_ms >= monthly.mean_average_ms * 0.95

    def test_before_design_hook(self, columnar_adapter, tiny_windows):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        calls = []
        scheduled_replay(
            TraceSource.from_windows(tiny_windows),
            nominal,
            columnar_adapter,
            PeriodicPolicy(every=2),
            before_design=calls.append,
        )
        assert calls and calls[0] == 0


class TestPolicyStateRegression:
    def test_periodic_anchors_on_last_redesign_not_window_zero(self, tiny_windows):
        """Regression: the old ``window_index % every`` rule was anchored at
        window 0, so a first design at a late window (e.g. after empty
        leading windows that scheduled_replay skips without consulting the
        policy) silently shortened the first period."""
        window = tiny_windows[0]
        policy = PeriodicPolicy(every=4)
        assert policy.should_redesign(3, None, window)  # first consult: window 3
        # The %-rule would have fired here (4 % 4 == 0) after one window.
        assert not policy.should_redesign(4, window, window)
        assert not policy.should_redesign(6, window, window)
        assert policy.should_redesign(7, window, window)  # a full period later

    def test_periodic_reset_forgets_the_anchor(self, tiny_windows):
        window = tiny_windows[0]
        policy = PeriodicPolicy(every=3)
        assert policy.should_redesign(0, None, window)
        assert not policy.should_redesign(1, window, window)
        policy.reset()
        # After reset the policy behaves like a fresh instance.
        assert policy.should_redesign(5, window, window)
        assert not policy.should_redesign(6, window, window)

    def test_drift_triggers_do_not_accumulate_across_replays(
        self, tiny_star, columnar_adapter, tiny_windows
    ):
        """Regression: ``DriftTriggeredPolicy.triggers`` grew across
        ``scheduled_replay`` calls, mixing window indices from different
        runs.  The replay now resets the policy and returns this run's
        triggers on the outcome."""
        schema, _ = tiny_star
        distance = WorkloadDistance(schema.total_columns)
        drift = distance(tiny_windows[0], tiny_windows[1])
        policy = DriftTriggeredPolicy(distance, threshold=drift * 0.5)
        nominal = ColumnarNominalDesigner(columnar_adapter)
        first = scheduled_replay(TraceSource.from_windows(tiny_windows), nominal, columnar_adapter, policy)
        second = scheduled_replay(TraceSource.from_windows(tiny_windows), nominal, columnar_adapter, policy)
        # The eager threshold fires at least once per replay …
        assert first.drift_triggers
        # … identical replays must report identical triggers …
        assert first.drift_triggers == second.drift_triggers
        # … and the policy's own log holds only the latest run's triggers.
        assert policy.triggers == second.drift_triggers
        assert first.redesign_windows == second.redesign_windows


class _Recording:
    """Designer wrapper that keeps every design it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.designs = []

    def design(self, workload):
        self.designs.append(self.inner.design(workload))
        return self.designs[-1]


class TestDeploymentRate:
    """Re-designs are charged at the *engine's* modeled build rate
    (``design.deployment_seconds``), asked through the adapter."""

    def test_rowstore_charged_at_the_rowstore_rate(self, rowstore_adapter, tiny_windows):
        from repro.designers.rowstore_nominal import RowstoreNominalDesigner

        designer = _Recording(RowstoreNominalDesigner(rowstore_adapter))
        outcome = scheduled_replay(
            TraceSource.from_windows(tiny_windows),
            designer,
            rowstore_adapter,
            PeriodicPolicy(every=1),
        )
        statistics = rowstore_adapter.cost_model.statistics
        own = [d.deployment_seconds(rowstore_adapter.schema, statistics) for d in designer.designs]
        assert sum(own) > 0
        # Regression: a hard-coded 360 s/GB over-reported this by 20 %.
        assert outcome.total_deployment_seconds == sum(own)

    def test_columnar_outcome_and_event_unchanged(
        self, columnar_adapter, tiny_windows, tmp_path
    ):
        import json

        from repro.obs import trace_to

        designer = _Recording(ColumnarNominalDesigner(columnar_adapter))
        with trace_to(tmp_path / "trace.jsonl"):
            outcome = scheduled_replay(
                TraceSource.from_windows(tiny_windows),
                designer,
                columnar_adapter,
                PeriodicPolicy(every=1),
            )
        own = [d.deployment_seconds(columnar_adapter.schema) for d in designer.designs]
        assert outcome.total_deployment_seconds == sum(own)
        events = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        emitted = [e["deployment_seconds"] for e in events if e["event"] == "redesign"]
        assert emitted == own
