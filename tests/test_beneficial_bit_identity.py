"""Old-vs-new oracle for the replay filter (``beneficial_queries``).

The filter used to price each distinct query alone — one
``candidate_costs`` call, one one-query arena, two binds per query — and
now prices the window as one (union-of-candidates × queries) matrix,
crediting each query with its *own* candidate rows only.
:func:`_oracle_beneficial_queries` is the per-query loop of the commit
before that change, verbatim; the kept queries must be the same, in the
same order, on every substrate and workload family.
"""

from __future__ import annotations

import importlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.designers.base import ColumnarAdapter, RowstoreAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.no_design import NoDesign
from repro.designers.scope import DesignScope
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.harness.replay import beneficial_queries, replay
from repro.rowstore.optimizer import RowstoreCostModel
from repro.serve.sources import TraceSource
from repro.workload.query import WorkloadQuery
from repro.workload.windows import split_windows
from repro.workload.workload import Workload
from tests.corpus import small_star, star_pool

SUBSTRATES = {
    "columnar": (ColumnarCostModel, ColumnarAdapter, ColumnarNominalDesigner),
    "rowstore": (RowstoreCostModel, RowstoreAdapter, RowstoreNominalDesigner),
}
#: ``repro.harness.replay`` the attribute is the re-exported function.
replay_module = importlib.import_module("repro.harness.replay")

FAMILIES = ("r1", "htap", "hostile")
FACTORS = (1.01, 3.0, 50.0)

#: Neither parses nor resolves: both are dropped before any pricing.
UNPARSEABLE = ("SELEC nonsense FROM", "SELECT x FROM no_such_table WHERE x = 1")


def _oracle_beneficial_queries(adapter, candidate_source, workload, factor=3.0):
    """``beneficial_queries`` as of the parent commit, verbatim."""
    parseable = []
    for query in workload.collapsed():
        try:
            profile = adapter.profile(query.sql)
        except ValueError:
            continue
        parseable.append((query, profile))
    if not parseable:
        return Workload([])
    (base_report,) = adapter.workload_costs_batch(
        [adapter.empty_design()], [query.sql for query, _ in parseable]
    )
    service = adapter.costing
    kernel = getattr(service, "kernel", None)
    kept = []
    for (query, profile), base in zip(parseable, base_report.per_query_ms):
        candidates = candidate_source.generate_candidates(Workload([query]))
        if kernel is not None and candidates:
            _, matrix = service.candidate_costs([profile], candidates)
            best = min(base, float(matrix[:, 0].min()))
        else:
            best = base
            for candidate in candidates:
                single = adapter.make_design([candidate])
                cost = adapter.query_cost(profile, single)
                if cost < best:
                    best = cost
        if best > 0 and base / best >= factor:
            kept.append(query)
    return Workload(kept)


class _Muted:
    """A candidate source that generates nothing for the muted SQL texts
    (the "query with no candidates" of the hostile family) and defers to
    the nominal designer for everything else."""

    def __init__(self, nominal, muted=()):
        self.nominal = nominal
        self.muted = frozenset(muted)

    def generate_candidates(self, workload):
        if any(query.sql in self.muted for query in workload):
            return []
        return self.nominal.generate_candidates(workload)

    def own_candidates(self, queries):
        own = self.nominal.own_candidates(queries)
        return [[] if q.sql in self.muted else c for q, c in zip(queries, own)]


@lru_cache(maxsize=None)
def _pool(family: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """``(sqls, muted)``: 40-odd distinct statements of one family.

    Eight statements every substrate's designer proposes candidates
    for go first, so every substrate's draw has own-candidate rows to
    tell apart.
    """
    schema, distinct = star_pool("htap" if family == "htap" else "r1", queries_per_day=8)
    designers = [
        designer_cls(adapter_cls(model_cls(schema)))
        for model_cls, adapter_cls, designer_cls in SUBSTRATES.values()
    ]
    served = [
        sql
        for sql in distinct
        if all(d.generate_candidates(Workload.from_sql([sql])) for d in designers)
    ][:8]
    assert served
    sqls = list(dict.fromkeys(served + distinct[:32]))
    muted: frozenset[str] = frozenset()
    if family == "htap":
        kinds = {sql.split()[0] for sql in sqls}
        assert {"SELECT", "INSERT", "UPDATE", "DELETE"} <= kinds
    if family == "hostile":
        # Unparseable text in the middle, and two queries — one every
        # substrate has candidates for — that get none of their own.
        sqls[5:5] = UNPARSEABLE
        muted = frozenset({served[0], distinct[0]})
    return tuple(sqls), muted


def _stack(substrate: str, muted=()):
    model_cls, adapter_cls, designer_cls = SUBSTRATES[substrate]
    schema, _ = small_star()
    adapter = adapter_cls(model_cls(schema))
    return adapter, _Muted(designer_cls(adapter), muted)


def _window(sqls, picks) -> Workload:
    """The picked statements with uneven frequencies; every third one
    appears twice, so ``collapsed()`` has work to do."""
    queries = [
        WorkloadQuery(sql=sqls[i], timestamp=float(n), frequency=1.0 + n % 3)
        for n, i in enumerate(picks)
    ]
    return Workload(queries + queries[::3])


def _texts(workload) -> list[tuple[str, float]]:
    return [(q.sql, q.frequency) for q in workload]


@given(
    substrate=st.sampled_from(sorted(SUBSTRATES)),
    family=st.sampled_from(FAMILIES),
    factor=st.sampled_from(FACTORS),
    data=st.data(),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_kept_queries_match_per_query_oracle(substrate, family, factor, data):
    sqls, muted = _pool(family)
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(sqls) - 1),
            min_size=1,
            max_size=len(sqls),
            unique=True,
        )
    )
    window = _window(sqls, picks)
    # Separate stacks: neither run may lean on what the other cached.
    adapter, source = _stack(substrate, muted)
    oracle_adapter, oracle_source = _stack(substrate, muted)
    kept = beneficial_queries(adapter, source, window, factor)
    expected = _oracle_beneficial_queries(oracle_adapter, oracle_source, window, factor)
    assert _texts(kept) == _texts(expected)


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@pytest.mark.parametrize("family", FAMILIES)
def test_full_pool_matches_oracle_and_filter_bites(substrate, family):
    """The whole pool in one window, at every factor — and at some
    factor the filter both keeps and drops something, so the equality
    is not the equality of two empty (or two complete) lists."""
    sqls, muted = _pool(family)
    window = _window(sqls, range(len(sqls)))
    adapter, source = _stack(substrate, muted)
    oracle_adapter, oracle_source = _stack(substrate, muted)
    # The scalar reference path (a model without a kernel) keeps the
    # same queries as the matrix path.
    scalar_adapter, scalar_source = _stack(substrate, muted)
    scalar_adapter.costing.kernel = None
    sizes = []
    for factor in FACTORS:
        kept = beneficial_queries(adapter, source, window, factor)
        expected = _oracle_beneficial_queries(
            oracle_adapter, oracle_source, window, factor
        )
        assert _texts(kept) == _texts(expected)
        scalar = beneficial_queries(scalar_adapter, scalar_source, window, factor)
        assert _texts(scalar) == _texts(expected)
        assert not any(q.sql in UNPARSEABLE or q.sql in muted for q in kept)
        sizes.append(len(kept))
    assert sizes == sorted(sizes, reverse=True)
    assert any(0 < size < len(sqls) - len(UNPARSEABLE) - len(muted) for size in sizes)


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scoped", [False, True])
def test_own_candidates_are_each_query_alone(substrate, family, scoped):
    """The filter's one proposal pass per window: ``own_candidates``
    lists, per query, what ``generate_candidates`` gives that query
    alone, in or out of a scope."""
    sqls, _ = _pool(family)
    queries = list(_window(sqls, range(len(sqls))).collapsed())
    nominal = _stack(substrate)[1].nominal
    expected = [nominal.generate_candidates(Workload([query])) for query in queries]
    if scoped:
        with nominal.scoped(DesignScope()):
            own = nominal.own_candidates(queries)
    else:
        own = nominal.own_candidates(queries)
    assert own == expected
    assert any(own)


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_a_query_is_not_credited_with_another_querys_candidate(substrate):
    """Own-row masking: a muted query has no candidates of its own, so
    it is dropped however well its neighbours' structures serve it.  The
    union matrix *does* hold a row that beats the threshold for it — an
    implementation that took the column minimum would keep it."""
    sqls, muted = _pool("hostile")
    window = _window(sqls, range(len(sqls)))
    adapter, source = _stack(substrate, muted)
    kept = {q.sql for q in beneficial_queries(adapter, source, window)}
    assert kept and not kept & muted

    parseable = []
    for query in window.collapsed():
        try:
            parseable.append((query.sql, adapter.profile(query.sql)))
        except ValueError:
            continue
    union = list(
        dict.fromkeys(
            candidate
            for sql, _ in parseable
            for candidate in source.generate_candidates(Workload.from_sql([sql]))
        )
    )
    base, matrix = adapter.costing.candidate_costs(
        [profile for _, profile in parseable], union
    )
    unmasked = np.minimum(base, matrix.min(axis=0))
    credited = {
        sql
        for (sql, _), b, best in zip(parseable, base.tolist(), unmasked.tolist())
        if best > 0 and b / best >= 3.0
    }
    assert credited & muted


class TestReplayThroughOracle:
    """One tiny replay with the ledger's three designers: evaluation
    sets and every latency equal a run with the oracle patched in."""

    @staticmethod
    def _run(tiny_star, tiny_trace):
        schema, _ = tiny_star
        adapter = ColumnarAdapter(ColumnarCostModel(schema))
        nominal = ColumnarNominalDesigner(adapter)
        designers = {
            "NoDesign": NoDesign(adapter),
            "FutureKnowingDesigner": FutureKnowingDesigner(nominal),
            "ExistingDesigner": nominal,
        }
        return replay(
            TraceSource.from_windows(split_windows(tiny_trace, 14)),
            designers,
            adapter,
            candidate_source=nominal,
            workload_name="tiny",
        )

    def test_replay_outcomes_equal(self, tiny_star, tiny_trace, monkeypatch):
        new = self._run(tiny_star, tiny_trace)
        monkeypatch.setattr(
            replay_module, "beneficial_queries", _oracle_beneficial_queries
        )
        old = self._run(tiny_star, tiny_trace)
        assert new.evaluated_query_counts == old.evaluated_query_counts
        assert len(new.evaluated_query_counts) >= 3
        for name, run in new.runs.items():
            other = old.run(name)
            assert [w.average_ms for w in run.windows] == [
                w.average_ms for w in other.windows
            ]
            assert [w.max_ms for w in run.windows] == [w.max_ms for w in other.windows]
            assert [w.design_price_bytes for w in run.windows] == [
                w.design_price_bytes for w in other.windows
            ]


# -- shape guard ------------------------------------------------------------------


def test_one_candidate_costs_call_per_window():
    """A window well above the kernel threshold is priced by exactly one
    ``candidate_costs`` call and at most two arena builds (the base
    sweep's and the matrix's — one arena when they coincide)."""
    sqls, _ = _pool("r1")
    assert len(sqls) >= 24
    adapter, source = _stack("columnar")
    service = adapter.costing
    calls = []
    inner = service.candidate_costs

    def counted(profiles, candidates):
        calls.append((len(profiles), len(candidates)))
        return inner(profiles, candidates)

    service.candidate_costs = counted
    builds = []
    compile_queries = service.kernel.compile_queries

    def counted_compile(profiles):
        builds.append(len(profiles))
        return compile_queries(profiles)

    service.kernel.compile_queries = counted_compile
    kept = beneficial_queries(adapter, source, _window(sqls, range(len(sqls))))
    assert kept
    assert len(calls) == 1
    assert calls[0][0] == len(sqls)
    assert 1 <= len(builds) <= 2
    assert service.arena_stats.builds == len(builds)
