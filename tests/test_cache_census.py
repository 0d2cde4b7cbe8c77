"""Cache census: a memo that takes traffic must, at some point, hit.

Every bounded cache in ``src/`` is a
:class:`~repro.costing.memo.BoundedMemo`, so wrapping its constructor
and its three read methods *from here* — no hook and no hit counter in
the class — sees every lookup in the process, labelled by the line that
created the memo.  The census leaves out the state kept per live
``Workload`` object — the distance metrics' ``_self_terms`` and
``_cost_cache`` and the nominal designers' design memo
(``designers.base.remembered_design``): each is a
``weakref.WeakKeyDictionary`` whose entries die with their workload, so
a key that never recurs is gone with the object that minted it.

The test drives the four kinds of traffic the end-to-end ledger drives
(a CliffGuard design stream on each engine, a nominal replay transition,
a serve session) at micro scale and fails, printing the table, if any
creation site answered :data:`LOOKUP_FLOOR` lookups without a single
hit: the signature of a cache keyed on something that never recurs (an
object identity minted per call, a text the stream never repeats).
"""

from __future__ import annotations

import linecache
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from repro.api import RobustDesignSession, RunConfig
from repro.costing import memo as memo_module
from repro.costing.memo import BoundedMemo
from repro.designers import registry
from repro.harness.replay import replay
from repro.serve import ServeConfig

#: Below this many lookups a site has not seen enough traffic to judge.
LOOKUP_FLOOR = 200

_MISS = object()


class Census:
    """Lookups and hits per ``BoundedMemo`` creation site."""

    def __init__(self) -> None:
        self.site_of: dict[int, str] = {}
        #: Keeps every memo alive so an ``id`` is never reused mid-census.
        self.memos: list[BoundedMemo] = []
        self.lookups: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)

    def created(self, memo: BoundedMemo) -> None:
        # The first frame outside memo.py that is not a one-line factory
        # (``return BoundedMemo(...)``) names the attribute being built.
        frame = sys._getframe(2)
        while True:
            filename = frame.f_code.co_filename
            line = linecache.getline(filename, frame.f_lineno).strip()
            if filename != memo_module.__file__ and not line.startswith("return "):
                break
            frame = frame.f_back
        target = line.split("=")[0].split(":")[0].strip()
        self.site_of[id(memo)] = f"{Path(filename).name}:{frame.f_lineno} {target}"
        self.memos.append(memo)

    def looked_up(self, memo: BoundedMemo, hit: bool) -> None:
        site = self.site_of.get(id(memo), "(created before the census)")
        self.lookups[site] += 1
        self.hits[site] += hit

    def table(self) -> str:
        width = max(map(len, self.lookups), default=4)
        rows = [f"{'site':<{width}}  lookups     hits"]
        for site in sorted(self.lookups):
            rows.append(f"{site:<{width}} {self.lookups[site]:8d} {self.hits[site]:8d}")
        return "\n".join(rows)

    def never_hit(self) -> list[str]:
        return [
            site
            for site, lookups in self.lookups.items()
            if lookups >= LOOKUP_FLOOR and not self.hits[site]
        ]


@pytest.fixture
def census(monkeypatch) -> Census:
    census = Census()
    init, contains = BoundedMemo.__init__, BoundedMemo.__contains__
    get, peek = BoundedMemo.get, BoundedMemo.peek

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        census.created(self)

    def counted_contains(self, key):
        hit = contains(self, key)
        census.looked_up(self, hit)
        return hit

    def counted_get(self, key, default=None):
        value = get(self, key, _MISS)
        census.looked_up(self, value is not _MISS)
        return default if value is _MISS else value

    def counted_peek(self, key):
        # No memo stores None, so peek's None is a miss.
        value = peek(self, key)
        census.looked_up(self, value is not None)
        return value

    monkeypatch.setattr(BoundedMemo, "__init__", counted_init)
    monkeypatch.setattr(BoundedMemo, "__contains__", counted_contains)
    monkeypatch.setattr(BoundedMemo, "get", counted_get)
    monkeypatch.setattr(BoundedMemo, "peek", counted_peek)
    return census


def _session(family: str, engine: str, **scale) -> RobustDesignSession:
    config = dict(
        workload=family, engine=engine, window_days=28, queries_per_day=4,
        n_samples=2, iterations=1, legacy_tables=2, seed=1, backend="serial",
    )
    return RobustDesignSession(RunConfig(**{**config, **scale}))


def _design_stream(family: str, engine: str) -> None:
    """CliffGuard over two successive windows of one warm stack."""
    session = _session(family, engine, days=28 * 6)
    trace = session.context.trace(family)
    windows = session.context.trace_windows(family)
    designer, sampler = session.designer("CliffGuard")
    for window in windows[3:5]:
        start, _ = window.span_days
        sampler.set_pool([q for q in trace if q.timestamp < start])
        designer.design(window)


def _replay_transition() -> None:
    session = _session("R1", "columnar", days=28 * 5)
    designers, _ = registry.build_all(
        session.adapter, session.nominal, 0.0,
        which=["NoDesign", "FutureKnowingDesigner", "ExistingDesigner"],
    )
    replay(
        session.context.window_source("R1"), designers, session.adapter,
        candidate_source=session.nominal, workload_name="R1",
        max_transitions=1, skip_transitions=3,
    )


def _serve_session() -> None:
    """336 ECOMMERCE queries through the daemon, a re-design every other
    boundary."""
    session = _session(
        "ECOMMERCE", "columnar", days=28, queries_per_day=12, gamma=0.003
    )
    outcome = session.serve(
        ServeConfig(
            window_days=7.0, policy="periodic", every=2, threshold=0.003,
            swap_mode="boundary",
        )
    )
    assert outcome.dropped == 0 and outcome.position >= 300


def test_no_memo_takes_traffic_without_ever_hitting(census):
    _design_stream("R1", "columnar")
    _design_stream("HTAP", "rowstore")
    _replay_transition()
    _serve_session()
    assert max(census.lookups.values()) >= LOOKUP_FLOOR, census.table()
    assert not census.never_hit(), (
        f"memos with >= {LOOKUP_FLOOR} lookups and no hit: {census.never_hit()}\n"
        + census.table()
    )
