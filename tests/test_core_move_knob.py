"""Tests for MoveWorkload (Algorithm 3) and the Γ knob helpers."""

import pytest

from repro.core.knob import drift_history, gamma_from_history
from repro.core.move import WorkloadDigest, move_workload
from repro.workload.distance import WorkloadDistance
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload


def q(sql, freq=1.0):
    return WorkloadQuery(sql=sql, frequency=freq)


BASE = Workload([q("SELECT t.a FROM t", 3), q("SELECT t.b FROM t", 1)])
NEIGHBOR = Workload(
    [q("SELECT t.a FROM t", 3), q("SELECT t.b FROM t", 1), q("SELECT t.c FROM t", 4)]
)

COSTS = {
    "SELECT t.a FROM t": 10.0,
    "SELECT t.b FROM t": 100.0,
    "SELECT t.c FROM t": 1000.0,
}


class TestMoveWorkload:
    def test_contains_all_queries(self):
        moved = move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=1.0)
        sqls = {query.sql for query in moved}
        assert sqls == set(COSTS)

    def test_base_weights_preserved_as_anchor(self):
        """Queries absent from all neighbors keep their base weight —
        the paper's 'never completely ignore the original workload'."""
        lonely = Workload([q("SELECT t.a FROM t", 2)])
        neighbor = Workload([q("SELECT t.c FROM t", 1)])
        moved = move_workload(lonely, [neighbor], COSTS.get, alpha=1.0)
        weights = {query.sql: query.frequency for query in moved}
        assert weights["SELECT t.a FROM t"] == pytest.approx(1.0)  # normalized base

    def test_expensive_neighbor_queries_weighted_up(self):
        moved = move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=1.0)
        weights = {query.sql: query.frequency for query in moved}
        # t.c is both popular in the neighbor and expensive → heaviest.
        assert weights["SELECT t.c FROM t"] > weights["SELECT t.a FROM t"]

    def test_alpha_scales_the_tilt(self):
        small = move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=0.1)
        large = move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=10.0)

        def tilt(workload):
            weights = {query.sql: query.frequency for query in workload}
            return weights["SELECT t.c FROM t"] / weights["SELECT t.a FROM t"]

        assert tilt(large) > tilt(small)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_alpha(self, alpha):
        """``nan <= 0`` is false, so a NaN α used to return an empty
        workload; ∞ dropped every W0-only query (``∞·0`` is NaN) and gave
        the neighbors' texts infinite weight."""
        with pytest.raises(ValueError, match="alpha"):
            move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=alpha)

    def test_digests_built_once_move_the_same(self):
        """CliffGuard hands in digests it built once for its neighborhood:
        the moved workload is the one a fresh digest per call gives."""
        digests = {id(w): WorkloadDigest(w) for w in (BASE, NEIGHBOR)}
        for alpha in (0.1, 1.0, 10.0):
            fresh = move_workload(BASE, [NEIGHBOR, BASE], COSTS.get, alpha=alpha)
            kept = move_workload(
                BASE, [NEIGHBOR, BASE], COSTS.get, alpha=alpha,
                digest=lambda w: digests[id(w)],
            )
            assert [(x.sql, x.timestamp, x.frequency) for x in kept] == [
                (x.sql, x.timestamp, x.frequency) for x in fresh
            ]

    def test_neighbor_count_does_not_inflate_tilt(self):
        one = move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=1.0)
        three = move_workload(BASE, [NEIGHBOR] * 3, COSTS.get, alpha=1.0)
        w_one = {x.sql: x.frequency for x in one}
        w_three = {x.sql: x.frequency for x in three}
        assert w_three["SELECT t.c FROM t"] == pytest.approx(
            w_one["SELECT t.c FROM t"]
        )

    def test_moved_workload_is_closer_to_neighbors(self):
        """The output contract of Algorithm 3: the merged workload is
        closer to the worst neighbors than the base is."""
        metric = WorkloadDistance(8)
        moved = move_workload(BASE, [NEIGHBOR], COSTS.get, alpha=1.0)
        assert metric(NEIGHBOR, moved) < metric(NEIGHBOR, BASE)


class TestKnob:
    def test_avg_and_max(self):
        history = [1.0, 2.0, 3.0]
        assert gamma_from_history(history, "avg") == pytest.approx(2.0)
        assert gamma_from_history(history, "max") == pytest.approx(3.0)

    def test_kmax(self):
        assert gamma_from_history([2.0], "kmax", k=1.5) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            gamma_from_history([2.0], "kmax", k=0.5)

    def test_forecast_follows_trend(self):
        rising = gamma_from_history([1.0, 2.0, 3.0, 4.0], "forecast")
        flat = gamma_from_history([2.5, 2.5, 2.5, 2.5], "forecast")
        assert rising > flat

    def test_forecast_never_negative(self):
        assert gamma_from_history([5.0, 3.0, 1.0, 0.1], "forecast") >= 0.0

    def test_empty_history(self):
        assert gamma_from_history([], "avg") == 0.0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            gamma_from_history([1.0], "median")

    def test_drift_history(self, tiny_star, tiny_windows):
        schema, _ = tiny_star
        metric = WorkloadDistance(schema.total_columns)
        history = drift_history(tiny_windows, metric)
        assert len(history) == len(tiny_windows) - 1
        assert all(d >= 0 for d in history)
