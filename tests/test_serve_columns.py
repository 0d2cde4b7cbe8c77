"""The serve daemon's per-query state is columns, not objects.

* The column codecs round-trip exactly: a query list through
  :func:`repro.state.capture.query_columns` and the priced-query
  :class:`~repro.serve.daemon.Ledger` through its columns, pickled the
  way a snapshot pickles them — ``None`` costs, ``-0.0``, subnormals and
  non-finite values included, compared bit for bit.
* A session without re-designs keeps flat state: the profiler's memo does
  not grow with ingest, and a snapshot without its ledger is no larger
  after sixteen windows than after four.  A drift-policy daemon's policy
  state does not grow with its triggers either.
* ``record_queries`` is part of the serve run key: a snapshot written
  without a ledger cannot be resumed by a daemon that keeps one.
"""

from __future__ import annotations

import math
import pickle
import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.daemon as daemon_module
from repro import RobustDesignSession, RunConfig, ServeConfig, TraceSource
from repro.serve.daemon import Ledger, PricedQuery
from repro.state import CheckpointMismatchError, RunCheckpointer, SimulatedCrash
from repro.state.capture import columns_queries, query_columns
from repro.workload.query import WorkloadQuery


def bits(value: float | None):
    return None if value is None else struct.pack("<d", value)


def snapshot(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# -- codecs ----------------------------------------------------------------------------

special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, math.inf, 1.5])
any_float = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))
weight = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072e-308, 1.0, math.inf]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
)
queries = st.lists(
    st.builds(WorkloadQuery, st.text(max_size=12), any_float, weight), max_size=30
)


@settings(max_examples=150, deadline=None)
@given(queries=queries)
def test_query_columns_round_trip_exactly(queries):
    decoded = columns_queries(snapshot(query_columns(queries)))
    assert all(type(query) is WorkloadQuery for query in decoded)
    assert [(q.sql, bits(q.timestamp), bits(q.frequency)) for q in decoded] == [
        (q.sql, bits(q.timestamp), bits(q.frequency)) for q in queries
    ]


def test_empty_query_list_round_trips():
    assert columns_queries(snapshot(query_columns([]))) == []


def test_query_columns_refuse_a_subclass():
    @dataclass(frozen=True)
    class Tagged(WorkloadQuery):
        tag: str = ""

    with pytest.raises(TypeError):
        query_columns([WorkloadQuery("SELECT 1"), Tagged("SELECT 2", tag="x")])


entries = st.lists(
    st.tuples(any_float, st.integers(0, 2**40), st.one_of(st.none(), any_float)),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(entries=entries)
def test_ledger_round_trips_exactly(entries):
    """Timestamps in any order (a late query keeps its own), ``None``
    next to real costs of every kind — NaN is a cost here, not the
    rejection marker."""
    ledger = Ledger()
    for timestamp, epoch, cost in entries:
        ledger.append(timestamp, epoch, cost)
    assert len(ledger) == len(entries)
    expected = [
        (position, bits(timestamp), epoch, bits(cost))
        for position, (timestamp, epoch, cost) in enumerate(entries)
    ]
    for restored in (ledger, Ledger(*snapshot(ledger.columns()))):
        records = restored.records()
        assert all(type(record) is PricedQuery for record in records)
        assert [
            (r.position, bits(r.timestamp), r.epoch, bits(r.cost_ms)) for r in records
        ] == expected


# -- flat state ------------------------------------------------------------------------

#: Queries per trace day, and four query texts cycled in order: every
#: window boundary sees the same texts in the same order, so a snapshot's
#: size can only move with state that grows.
PER_DAY = 100
CYCLE = 4


def cycled_session(**serve):
    run = RunConfig(
        workload="R1", days=28, window_days=1, queries_per_day=4, n_samples=2,
        iterations=1, legacy_tables=2, backend="serial",
    )
    session = RobustDesignSession(run)
    texts = [query.sql for query in session.context.trace("R1")[:CYCLE]]
    trace = [
        WorkloadQuery(texts[i % CYCLE], timestamp=i / PER_DAY) for i in range(17 * PER_DAY)
    ]
    config = ServeConfig(
        source=TraceSource(trace, window_days=1.0),
        window_days=1.0,
        swap_mode="boundary",
        # Never enough queries for a re-design: nothing but ingest runs.
        min_window_queries=10**9,
        **serve,
    )
    return session, session.daemon(config)


def test_ingest_leaves_the_profiler_memo_alone(tmp_path):
    session, daemon = cycled_session()
    memo = session.adapter.cost_model.profiler._profiles
    before = len(memo)
    outcome = daemon.run()
    assert outcome.position == 17 * PER_DAY and outcome.redesigns_launched == 0
    assert all(record.cost_ms is not None for record in outcome.priced)
    assert len(memo) == before


def test_snapshot_without_its_ledger_does_not_grow(tmp_path, monkeypatch):
    monkeypatch.setattr(daemon_module, "HISTORY_LIMIT", 40)
    sizes = []

    class Measuring(RunCheckpointer):
        def save(self, kind, key, payload):
            rest = {name: value for name, value in payload.items() if name != "priced"}
            sizes.append(len(pickle.dumps(rest, protocol=pickle.HIGHEST_PROTOCOL)))
            super().save(kind, key, payload)

    _session, daemon = cycled_session()
    daemon.checkpointer = Measuring(tmp_path / "serve.ckpt")
    daemon.run()
    assert len(sizes) >= 16
    # By the fourth save the 40-query history has long been full.
    assert sizes[15] <= sizes[3], sizes


def test_drift_policy_state_does_not_grow_with_triggers(tmp_path):
    """A drift-policy daemon's ``policy`` state is as large after many
    triggers as after the first: the policy keeps no trigger log."""
    run = RunConfig(
        workload="R1", days=10, window_days=1, queries_per_day=6, n_samples=2,
        iterations=1, legacy_tables=2, backend="serial",
    )
    session = RobustDesignSession(run)
    saved = []

    class Recording(RunCheckpointer):
        def save(self, kind, key, payload):
            policy = pickle.dumps(payload["policy"], protocol=pickle.HIGHEST_PROTOCOL)
            saved.append((payload["triggers"], len(policy)))
            super().save(kind, key, payload)

    config = ServeConfig(
        policy="drift", threshold=0.0, window_days=1.0, swap_mode="boundary",
        min_window_queries=1,
    )
    daemon = session.daemon(config)
    daemon.checkpointer = Recording(tmp_path / "serve.ckpt")
    daemon.run()
    sizes = {triggers: size for triggers, size in saved}
    assert min(sizes) <= 1 and max(sizes) >= 4, sizes
    assert sizes[max(sizes)] == sizes[1], sizes


# -- run key ---------------------------------------------------------------------------


def test_record_queries_is_part_of_the_run_key(tmp_path):
    """A daemon resumed with ``record_queries=True`` from a snapshot
    written without a ledger would start its ledger at the resume
    position and report that many phantom drops: refused instead."""
    path = tmp_path / "serve.ckpt"
    _session, crashed = cycled_session(record_queries=False)
    crashed.checkpointer = RunCheckpointer(path, crash_after=2)
    with pytest.raises(SimulatedCrash):
        crashed.run()
    _session, resumed = cycled_session(record_queries=True)
    resumed.checkpointer = RunCheckpointer(path, resume=True)
    with pytest.raises(CheckpointMismatchError):
        resumed.run()
    _session, same = cycled_session(record_queries=False)
    same.checkpointer = RunCheckpointer(path, resume=True)
    outcome = same.run()
    assert outcome.resumed and outcome.priced is None and outcome.dropped == 0
