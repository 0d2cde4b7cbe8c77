"""The nominal designers' design memo (``designers.base.remembered_design``).

A nominal designer designs each live workload object once: the replay
oracle's design of ``W_{i+1}`` is ExistingDesigner's at ``i + 1``, and
CliffGuard's initial design in a shared zoo is ExistingDesigner's.  A hit
charges the counters its computing call charged, so every outcome and
report reads as if the design had been computed again, and nothing of
the memo reaches a pickle or a checkpoint.
"""

import copy
import dataclasses
import gc
import pickle

import pytest

from repro.core.cliffguard import CliffGuard
from repro.designers import base
from repro.designers.base import (
    ColumnarAdapter,
    RowstoreAdapter,
    _NominalDesigner,
    default_budget_bytes,
)
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.no_design import NoDesign
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.harness.replay import replay
from repro.rowstore.optimizer import RowstoreCostModel
from repro.serve.sources import TraceSource
from repro.state import RunCheckpointer, designer_state
from repro.workload.distance import WorkloadDistance
from repro.workload.families import htap_profile
from repro.workload.generator import TraceGenerator, r1_profile
from repro.workload.sampler import NeighborhoodSampler
from repro.workload.windows import split_windows
from repro.workload.workload import Workload

_CLASSES = {"columnar": ColumnarNominalDesigner, "rowstore": RowstoreNominalDesigner}


def _stack(engine: str, schema):
    """``(adapter, nominal)`` for one substrate, built fresh."""
    if engine == "columnar":
        adapter = ColumnarAdapter(ColumnarCostModel(schema), default_budget_bytes(schema, 0.5))
        return adapter, ColumnarNominalDesigner(adapter)
    adapter = RowstoreAdapter(RowstoreCostModel(schema), default_budget_bytes(schema, 0.5))
    return adapter, RowstoreNominalDesigner(adapter)


def _zoo(adapter, nominal) -> dict:
    return {
        "NoDesign": NoDesign(adapter),
        "FutureKnowingDesigner": FutureKnowingDesigner(nominal),
        "ExistingDesigner": nominal,
    }


@pytest.fixture
def design_calls(monkeypatch):
    """How many designs each substrate's nominal designer computed (a
    remembered design is not computed)."""
    calls = {engine: 0 for engine in _CLASSES}
    for engine, cls in _CLASSES.items():

        def counting(self, workload, _engine=engine):
            calls[_engine] += 1
            return _NominalDesigner._design(self, workload)

        monkeypatch.setattr(cls, "_design", counting)
    return calls


def _fields(outcome) -> dict:
    values = dataclasses.asdict(outcome)
    del values["design_seconds"]
    return values


def _sampler(schema, trace, window, seed=3):
    pool = [q for q in trace if q.timestamp < window.span_days[0]]
    return NeighborhoodSampler(
        WorkloadDistance(schema.total_columns),
        schema,
        pool=pool,
        seed=seed,
        min_query_set=4,
        max_query_set=8,
    )


def _report_facts(report) -> dict:
    exempt = type(report).RESUME_EXEMPT_FIELDS
    return {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in exempt
    }


@pytest.mark.parametrize(
    "family,engine", [("R1", "columnar"), ("HTAP", "rowstore")]
)
def test_replay_with_the_memo_prices_like_cold_designers(
    tiny_star, design_calls, family, engine
):
    """One replay of {NoDesign, oracle, ExistingDesigner} over every
    transition, one nominal designer behind both of the last two, gives
    the outcomes of a replay that builds a fresh stack for each
    transition — every field but the wall-clock ``design_seconds``, the
    effort counters included — with fewer designs computed."""
    schema, roles = tiny_star
    profile = {"R1": r1_profile, "HTAP": htap_profile}[family](queries_per_day=8)
    trace = TraceGenerator(schema, roles, profile, seed=5).generate(days=84)
    windows = split_windows(trace, 14)
    source = TraceSource.from_windows(windows)

    adapter, nominal = _stack(engine, schema)
    warm = replay(source, _zoo(adapter, nominal), adapter, candidate_source=nominal)
    warm_calls = design_calls[engine]

    cold_counts: list[int] = []
    cold_windows: dict[str, list] = {name: [] for name in warm.runs}
    for i in range(len(windows) - 1):
        adapter, nominal = _stack(engine, schema)
        part = replay(
            source,
            _zoo(adapter, nominal),
            adapter,
            candidate_source=nominal,
            max_transitions=1,
            skip_transitions=i,
        )
        cold_counts += part.evaluated_query_counts
        for name, run in part.runs.items():
            cold_windows[name] += run.windows
    cold_calls = design_calls[engine] - warm_calls

    assert len(warm.evaluated_query_counts) >= 3
    assert warm.evaluated_query_counts == cold_counts
    for name, run in warm.runs.items():
        assert [_fields(w) for w in run.windows] == [_fields(w) for w in cold_windows[name]]
    # ExistingDesigner reuses the oracle's design of its window.
    assert warm_calls < cold_calls


@pytest.mark.parametrize("engine", ["columnar", "rowstore"])
def test_cliffguard_in_a_shared_zoo_designs_like_a_private_one(
    tiny_star, tiny_trace, tiny_windows, design_calls, engine
):
    """CliffGuard built on ExistingDesigner's nominal designer takes its
    initial design from ExistingDesigner's design of the same window,
    and returns the design and report of a CliffGuard with a nominal
    designer of its own (wall-clock and store fields aside)."""
    schema, _ = tiny_star
    adapter, nominal = _stack(engine, schema)
    private_adapter, private_nominal = _stack(engine, schema)
    sampler_window = tiny_windows[1]

    def cliffguard(nominal, adapter):
        return CliffGuard(
            nominal,
            adapter,
            _sampler(schema, tiny_trace, sampler_window),
            gamma=0.005,
            n_samples=3,
            max_iterations=2,
        )

    shared = cliffguard(nominal, adapter)
    private = cliffguard(private_nominal, private_adapter)
    for window in tiny_windows[1:3]:
        nominal.design(window)  # ExistingDesigner's turn
        before = design_calls[engine]
        design = shared.design(window)
        shared_calls = design_calls[engine] - before
        before = design_calls[engine]
        assert design == private.design(window)
        assert shared_calls == design_calls[engine] - before - 1
        assert _report_facts(shared.last_report) == _report_facts(private.last_report)
        assert shared.last_report.designer_calls == private.last_report.designer_calls


def test_an_entry_lives_as_long_as_its_workload(columnar_adapter, tiny_windows):
    nominal = ColumnarNominalDesigner(columnar_adapter)
    workload = Workload(list(tiny_windows[1]))
    design = nominal.design(workload)
    assert nominal.design(workload) is design
    memo = vars(nominal)["_designs"]
    assert len(memo) == 1
    del workload
    gc.collect()
    assert len(memo) == 0


def test_a_hit_charges_what_its_computing_call_charged(columnar_adapter, tiny_windows):
    nominal = ColumnarNominalDesigner(columnar_adapter)
    stats = columnar_adapter.costing.stats
    workload = tiny_windows[1]
    deltas = []
    for _ in range(2):
        before = stats.snapshot()
        nominal.design(workload)
        deltas.append(dataclasses.replace(stats.since(before), eval_seconds=0.0))
    assert deltas[0].raw_model_calls > 0
    assert deltas[0] == deltas[1]


def test_clear_invalidates_the_memo(columnar_adapter, tiny_windows, design_calls):
    """``clear`` is the cost model's "changed under me" signal: a design
    priced before it is computed again."""
    nominal = ColumnarNominalDesigner(columnar_adapter)
    workload = tiny_windows[1]
    first = nominal.design(workload)
    nominal.design(workload)
    assert design_calls["columnar"] == 1
    columnar_adapter.costing.clear()
    assert nominal.design(workload) == first
    assert design_calls["columnar"] == 2


def test_the_memo_is_never_pickled(columnar_adapter, tiny_windows):
    nominal = ColumnarNominalDesigner(columnar_adapter)
    state = dict(vars(nominal))
    nominal.design(tiny_windows[1])
    assert "_designs" in vars(nominal)
    assert nominal.__getstate__() == state
    assert "_designs" not in vars(copy.copy(nominal))
    assert "_designs" not in vars(pickle.loads(pickle.dumps(nominal)))


def test_checkpoint_payloads_carry_nothing_of_the_memo(
    tmp_path, monkeypatch, tiny_star, tiny_trace, tiny_windows
):
    """A replay checkpoint written with the memo serving designs is the
    checkpoint written with every design computed, and
    ``designer_state`` reads the same either way."""
    schema, _ = tiny_star

    def checkpointed(name):
        adapter, nominal = _stack("columnar", schema)
        robust = CliffGuard(
            nominal,
            adapter,
            _sampler(schema, tiny_trace, tiny_windows[1]),
            gamma=0.005,
            n_samples=3,
            max_iterations=1,
        )
        designers = {**_zoo(adapter, nominal), "CliffGuard": robust}
        checkpointer = RunCheckpointer(tmp_path / name)
        replay(
            TraceSource.from_windows(tiny_windows),
            designers,
            adapter,
            candidate_source=nominal,
            checkpointer=checkpointer,
            state_key="memo",
        )
        payload = RunCheckpointer(tmp_path / name, resume=True).load("replay", "memo")
        states = {name: designer_state(d) for name, d in designers.items()}
        return pickle.dumps(payload), pickle.dumps(states)

    remembered = checkpointed("remembered")
    monkeypatch.setattr(
        base, "remembered_design", lambda designer, workload, compute: compute(workload)
    )
    assert checkpointed("computed") == remembered
