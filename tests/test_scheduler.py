"""Tests for re-design scheduling: the policies and ``replay`` under one."""

import pytest

from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.harness.replay import replay
from repro.serve.policy import DriftTriggeredPolicy, PeriodicPolicy
from repro.serve.sources import TraceSource
from repro.workload.distance import WorkloadDistance


def _scheduled(windows, designer, adapter, policy, **kwargs):
    """``designer``'s run of a whole-window replay under ``policy``."""
    result = replay(
        TraceSource.from_windows(windows), {"d": designer}, adapter, policy=policy, **kwargs
    )
    return result.run("d")


def _redesign_windows(run):
    return [w.window_index for w in run.windows if w.redesigned]


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
        run = _scheduled(tiny_windows, nominal, columnar_adapter, PeriodicPolicy(every=1))
        assert run.redesign_count == len(tiny_windows) - 1
        assert len(run.windows) == len(tiny_windows) - 1
        assert run.deployment_seconds(columnar_adapter) > 0

    def test_fewer_redesigns_cost_less_deployment(
        self, columnar_adapter, tiny_windows
    ):
        nominal = ColumnarNominalDesigner(columnar_adapter)
        monthly = _scheduled(tiny_windows, nominal, columnar_adapter, PeriodicPolicy(every=1))
        rare = _scheduled(tiny_windows, nominal, columnar_adapter, PeriodicPolicy(every=3))
        assert rare.redesign_count < monthly.redesign_count
        assert rare.deployment_seconds(columnar_adapter) < monthly.deployment_seconds(
            columnar_adapter
        )
        # …but the stale designs serve later windows worse (or equal).
        assert rare.mean_average_ms >= monthly.mean_average_ms * 0.95

    def test_before_design_hook(self, columnar_adapter, tiny_trace):
        """``before_transition`` runs on the transitions that re-design,
        and only on those."""
        from repro.workload.windows import split_windows

        windows = split_windows(tiny_trace, 14)
        nominal = ColumnarNominalDesigner(columnar_adapter)
        calls = []
        run = _scheduled(
            windows,
            nominal,
            columnar_adapter,
            PeriodicPolicy(every=2),
            before_transition=lambda i, train, test: calls.append(i),
        )
        assert calls and calls[0] == 0
        assert calls == _redesign_windows(run) == list(range(0, len(windows) - 1, 2))

    def test_kept_design_serves_until_the_policy_fires(self, columnar_adapter, tiny_windows):
        """A window whose design was kept is priced under the previous
        window's design, and no design time is charged to it."""
        nominal = ColumnarNominalDesigner(columnar_adapter)
        first, kept = _scheduled(
            tiny_windows, nominal, columnar_adapter, PeriodicPolicy(every=2)
        ).windows
        assert (first.redesigned, kept.redesigned) == (True, False)
        assert kept.design_price_bytes == first.design_price_bytes
        assert kept.structure_count == first.structure_count
        assert kept.design_seconds == 0.0
        fresh = nominal.design(tiny_windows[1])
        assert kept.design_price_bytes != columnar_adapter.design_price(fresh)


class TestPolicyStateRegression:
    def test_periodic_anchors_on_last_redesign_not_window_zero(self, tiny_windows):
        """Regression: the old ``window_index % every`` rule was anchored at
        window 0, so a first design at a late window (e.g. after empty
        leading windows that a replay skips without consulting the
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
        """Regression: the drift policy once logged every trigger and the
        log grew across replays.  It now keeps nothing: one policy object
        drives identical replays to identical re-design windows."""
        schema, _ = tiny_star
        distance = WorkloadDistance(schema.total_columns)
        drift = distance(tiny_windows[0], tiny_windows[1])
        policy = DriftTriggeredPolicy(distance, threshold=drift * 0.5)
        nominal = ColumnarNominalDesigner(columnar_adapter)
        first = _scheduled(tiny_windows, nominal, columnar_adapter, policy)
        second = _scheduled(tiny_windows, nominal, columnar_adapter, policy)
        # The eager threshold fires after the first design …
        assert _redesign_windows(first) == [0, 1]
        # … identical replays re-design at identical windows …
        assert _redesign_windows(first) == _redesign_windows(second)
        # … and the policy holds nothing between them.
        assert policy.state() == {}


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
        run = _scheduled(tiny_windows, designer, rowstore_adapter, PeriodicPolicy(every=1))
        statistics = rowstore_adapter.cost_model.statistics
        own = [d.deployment_seconds(rowstore_adapter.schema, statistics) for d in designer.designs]
        assert sum(own) > 0
        # Regression: a hard-coded 360 s/GB over-reported this by 20 %.
        assert run.deployment_seconds(rowstore_adapter) == sum(own)

    def test_columnar_outcome_and_event_unchanged(
        self, columnar_adapter, tiny_windows, tmp_path
    ):
        import json

        from repro.obs import trace_to

        designer = _Recording(ColumnarNominalDesigner(columnar_adapter))
        with trace_to(tmp_path / "trace.jsonl"):
            run = _scheduled(
                tiny_windows, designer, columnar_adapter, PeriodicPolicy(every=2)
            )
        own = [d.deployment_seconds(columnar_adapter.schema) for d in designer.designs]
        assert run.deployment_seconds(columnar_adapter) == sum(own)
        events = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        # One ``redesign`` event per design built, none for a kept one; its
        # price is the deployed design's.
        emitted = [
            columnar_adapter.deployment_seconds(e["price_bytes"])
            for e in events
            if e["event"] == "redesign"
        ]
        assert emitted == own
        assert len(own) == run.redesign_count < len(run.windows)
