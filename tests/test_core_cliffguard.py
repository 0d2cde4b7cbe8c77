"""Tests for the CliffGuard designer (Algorithm 2)."""

import contextlib
import gc
import importlib.util
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.cliffguard import CliffGuard
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.scope import DesignScope
from repro.workload.distance import WorkloadDistance
from repro.workload.sampler import NeighborhoodSampler
from repro.workload.workload import Workload

#: The accepted-move count and design digest of
#: ``test_move_reads_the_incumbent_costs_it_already_holds``.  The move
#: count was recorded while MoveWorkload still read the incumbent's costs
#: back from the service's per-(design, query) cost cache; the digest is
#: re-recorded on the sampler's shared-pool stream (one candidate pool per
#: ``sample()``), with the move and costing code it guards unchanged.
GOLDEN_MOVES = 1
GOLDEN_DIGEST = "b1b7795d7632d174"


@pytest.fixture
def parts(tiny_star, tiny_trace, tiny_windows, columnar_adapter):
    schema, _ = tiny_star
    window = tiny_windows[1]
    distance = WorkloadDistance(schema.total_columns)
    pool = [q for q in tiny_trace if q.timestamp < window.span_days[0]]
    sampler = NeighborhoodSampler(
        distance, schema, pool=pool, seed=3, min_query_set=4, max_query_set=8
    )
    nominal = ColumnarNominalDesigner(columnar_adapter)
    return columnar_adapter, nominal, sampler, window


class TestParameters:
    def test_invalid_parameters_rejected(self, parts):
        adapter, nominal, sampler, _ = parts
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=-1.0)
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=0.1, worst_fraction=0.0)
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=0.1, lambda_success=0.9)
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=0.1, lambda_failure=1.5)
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=0.1, n_samples=0)
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=0.1, min_worst=0)
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=0.1, max_iterations=-1)
        with pytest.raises(ValueError):
            CliffGuard(nominal, adapter, sampler, gamma=0.1, patience=0)

    @pytest.mark.parametrize(
        "argument,value",
        [("gamma", float("nan")), ("gamma", float("inf")), ("gamma", float("-inf")),
         ("lambda_success", float("nan")), ("lambda_success", float("inf"))],
    )
    def test_non_finite_parameter_is_named(self, parts, argument, value):
        """Every guard read ``x < 0`` / ``x <= 0`` / ``x <= 1``, which NaN
        passes; a non-finite Γ then crashed the first design in
        ``rng.uniform`` with an ``OverflowError``."""
        adapter, nominal, sampler, _ = parts
        kwargs = {"gamma": 0.1, argument: value}
        with pytest.raises(ValueError, match=argument):
            CliffGuard(nominal, adapter, sampler, **kwargs)

    def test_worst_neighbors_clamped_to_neighborhood(self, parts):
        """min_worst beyond the sample count selects the whole neighborhood
        (previously an oversized slice silently degraded to the same thing,
        hiding the misconfiguration from any later stricter selection)."""
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=2, min_worst=50
        )
        neighborhood = [window, window, window]
        worst = robust._worst_neighbors(neighborhood, [3.0, 1.0, 2.0])
        assert len(worst) == len(neighborhood)


class TestDegenerateCases:
    def test_gamma_zero_equals_nominal(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(nominal, adapter, sampler, gamma=0.0)
        assert robust.design(window) == nominal.design(window)

    def test_zero_iterations_equals_nominal(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(nominal, adapter, sampler, gamma=0.01, max_iterations=0)
        assert robust.design(window) == nominal.design(window)

    def test_empty_workload(self, parts):
        adapter, nominal, sampler, _ = parts
        robust = CliffGuard(nominal, adapter, sampler, gamma=0.01)
        assert len(robust.design(Workload([]))) == 0


class TestAlgorithm:
    def test_move_reads_the_incumbent_costs_it_already_holds(self, parts, monkeypatch):
        """MoveWorkload's per-query costs come from the incumbent's own
        neighborhood reports, so a design run never asks the service for
        a single query's cost — and lands on the design the service's
        per-(design, query) cost cache used to answer it with."""
        from repro.costing.service import CostEvaluationService
        from repro.serve.handle import design_digest

        calls = []
        real_query_cost = CostEvaluationService.query_cost

        def counted_query_cost(self, *args, **kwargs):
            calls.append(args)
            return real_query_cost(self, *args, **kwargs)

        monkeypatch.setattr(CostEvaluationService, "query_cost", counted_query_cost)
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=4, max_iterations=4
        )
        design = robust.design(window)
        assert calls == []
        report = robust.last_report
        assert (report.iterations, report.accepted_moves) == (4, GOLDEN_MOVES)
        assert design_digest(adapter, design) == GOLDEN_DIGEST

    def test_design_within_budget(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=4, max_iterations=3
        )
        design = robust.design(window)
        assert adapter.design_price(design) <= adapter.budget_bytes
        assert len(design) > 0

    def test_worst_case_history_never_increases(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=4, max_iterations=4
        )
        robust.design(window)
        history = robust.last_report.worst_case_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_designer_calls_counted(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=4, max_iterations=3
        )
        robust.design(window)
        report = robust.last_report
        assert report.designer_calls == 1 + report.iterations

    def test_report_records_cost_calls_and_final_alpha(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=4, max_iterations=3
        )
        robust.design(window)
        report = robust.last_report
        assert report.query_cost_calls > 0
        assert report.raw_cost_model_calls > 0
        assert report.raw_cost_model_calls <= report.query_cost_calls
        # final α is the last alpha_history entry scaled by its outcome.
        assert report.final_alpha > 0
        last = report.alpha_history[-1]
        assert report.final_alpha == pytest.approx(last * 5.0) or (
            report.final_alpha == pytest.approx(last * 0.5)
        )

    def test_neighborhood_evaluation_hits_cache_across_iterations(self, parts):
        """Every iteration prices its candidate over the one neighborhood
        sampled up front, so the neighborhood's compiled arena is reused
        rather than rebuilt per iteration."""
        adapter, nominal, sampler, window = parts
        service = adapter.costing
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=4, max_iterations=3
        )
        before = service.arena_stats.snapshot()
        robust.design(window)
        delta = service.arena_stats.since(before)
        assert robust.last_report.iterations == 3
        assert delta.hits >= robust.last_report.iterations

    def test_alpha_adapts_on_success_and_failure(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal,
            adapter,
            sampler,
            gamma=0.005,
            n_samples=4,
            max_iterations=4,
            lambda_success=5.0,
            lambda_failure=0.5,
        )
        robust.design(window)
        report = robust.last_report
        alphas = report.alpha_history
        # every consecutive pair differs by exactly ×5 or ×0.5
        for a, b in zip(alphas, alphas[1:]):
            assert b == pytest.approx(a * 5.0) or b == pytest.approx(a * 0.5)

    def test_patience_stops_early(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal,
            adapter,
            sampler,
            gamma=1e-9,  # neighborhood ≈ base: no move can improve
            n_samples=2,
            max_iterations=10,
            patience=1,
        )
        robust.design(window)
        assert robust.last_report.iterations <= 3

    def test_robust_design_no_worse_on_sampled_worst_case(self, parts):
        """The defining guarantee: CliffGuard's output is at least as good
        as the nominal design on the sampled worst case."""
        adapter, nominal, sampler, window = parts
        gamma = 0.005
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=gamma, n_samples=4, max_iterations=3
        )
        robust_design = robust.design(window)
        nominal_design = nominal.design(window)
        neighborhood = [window] + sampler.sample(window, gamma, 4)
        worst = lambda design: max(
            adapter.workload_cost(w, design).average_ms for w in neighborhood
        )
        assert worst(robust_design) <= worst(nominal_design) * 1.05


class TestTraceIdentity:
    def test_design_finish_reports_instance_name(self, parts):
        """Regression: ``design_finish`` hard-coded the class attribute
        ``CliffGuard.name``, so a renamed instance (the Γ-sweep benches
        label variants like "CliffGuard(2Γ)") emitted start/iteration
        events under its own name but finished under the generic one."""
        import io
        import json

        from repro.obs import RunTracer, set_tracer

        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=3, max_iterations=1
        )
        robust.name = "CliffGuard[renamed]"
        buffer = io.StringIO()
        previous = set_tracer(RunTracer(buffer, clock=lambda: 0.0))
        try:
            robust.design(window)
        finally:
            set_tracer(previous)
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        finish = [e for e in events if e["event"] == "design_finish"]
        assert len(finish) == 1
        assert finish[0]["designer"] == "CliffGuard[renamed]"
        start = [e for e in events if e["event"] == "design_start"]
        assert start[0]["designer"] == finish[0]["designer"]


# -- the per-design scope ------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def e2e_workloads():
    """``benchmarks/e2e/workloads.py``: the ledger's rounds."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


DESIGN_ROUNDS = ("design-r1-columnar", "design-htap-rowstore")


@lru_cache(maxsize=None)
def moved_workloads(name: str):
    """The nominal designer and every workload it was handed during the
    first design of ``name``'s seed-1 round (W0, then the moved ones)."""
    workloads = e2e_workloads()
    round_ = workloads.WORKLOADS[name]
    stack = round_.setup(1)
    designer = stack["designer"]
    nominal = designer.nominal
    handed = []
    real_design = nominal.design

    def recording_design(workload):
        handed.append(workload)
        return real_design(workload)

    nominal.design = recording_design
    try:
        round_.run(stack, workloads.Budget(0.0, 1))
    finally:
        del nominal.design
    return nominal, handed


class TestDesignScope:
    @pytest.mark.parametrize("name", DESIGN_ROUNDS)
    def test_scoped_candidates_equal_unscoped(self, name):
        """Proposals and structures kept across a design's calls give the
        list a fresh call gives, in its order — also for a moved workload
        whose queries come in another order than the scope first saw."""
        nominal, handed = moved_workloads(name)
        assert len(handed) == 5  # W0, then one moved workload per iteration
        permuted = Workload(handed[-1].queries)
        random.Random(1).shuffle(permuted.queries)
        unscoped = [nominal.generate_candidates(w) for w in [*handed, permuted]]
        scope = DesignScope()
        with nominal.scoped(scope):
            scoped = [nominal.generate_candidates(w) for w in [*handed, permuted]]
        assert nominal.scope is None
        assert scope.proposals and scope.structures
        for expected, actual in zip(unscoped, scoped):
            assert [str(c) for c in actual] == [str(c) for c in expected]
            assert actual == expected

    @pytest.mark.parametrize("name", DESIGN_ROUNDS)
    def test_scoped_design_equals_unscoped(self, name):
        nominal, handed = moved_workloads(name)
        unscoped = [nominal.design(w) for w in handed]
        with nominal.scoped(DesignScope()):
            assert [nominal.design(w) for w in handed] == unscoped

    def test_scope_dies_with_the_design_call(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=3, max_iterations=2
        )
        robust.design(window)
        assert nominal.scope is None
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, DesignScope)]

    @pytest.mark.parametrize("raises", [False, True])
    def test_oracle_wrapper_scopes_its_inner_designer(self, parts, raises):
        """The oracle's ``design`` is its inner designer's, so a scope
        given to the wrapper reaches the inner designer, and the block
        leaves neither holding it — also when the block raises."""
        _, nominal, _, _ = parts
        oracle = FutureKnowingDesigner(nominal)
        scope = DesignScope()
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            with oracle.scoped(scope):
                assert oracle.scope is scope
                assert nominal.scope is scope
                if raises:
                    raise RuntimeError("inside the block")
        assert oracle.scope is None and nominal.scope is None
        assert "scope" not in vars(oracle) and "scope" not in vars(nominal)


#: ``Round.outputs["digest"]`` of the ledger's design rounds, seeds 1–5
#: (every design's quality pair, price, structure count and DDL digest),
#: recorded before the per-design scope existed, and of its replay round,
#: seeds 1–3 (every transition's quality pairs, price, structure count
#: and evaluated-query count), recorded before the per-transition scope
#: and the row-mapped arenas existed.  They must not move.
RECORDED_ROUNDS = {
    "design-r1-columnar": [
        "bb2bd5991db70f16", "32ecb806747af434", "c89ed06ed7090664",
        "96040d3ca4e075d1", "3e968dd894fce394",
    ],
    "design-htap-rowstore": [
        "16f2a943eac7f316", "c05bbceb0b290831", "7d965d31198eec69",
        "5fe274030d91de5f", "27387cb7e4f374c6",
    ],
    "replay-r1-nominal": [
        "36af7fc726d5801a", "59bf99b94045d780", "1047d67165e1c140",
    ],
}


@pytest.mark.parametrize(
    "name,seed,expected",
    [
        (name, seed, digest)
        for name, digests in RECORDED_ROUNDS.items()
        for seed, digest in enumerate(digests, start=1)
    ],
)
def test_design_round_reproduces_recorded_digest(name, seed, expected):
    workloads = e2e_workloads()
    round_ = workloads.WORKLOADS[name]
    result = round_.run(round_.setup(seed), workloads.Budget(0.0, round_.units_per_round))
    assert result.failed == 0
    assert result.outputs["digest"] == expected
