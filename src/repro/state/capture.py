"""State capture/restore helpers for resume-equivalent snapshots.

Bit-identical resume needs more than the partial results: every source
of downstream nondeterminism must be snapshotted too.  Concretely that
is the :class:`~repro.workload.sampler.NeighborhoodSampler`'s numpy
``Generator`` (its bit-generator state decides every future
perturbation draw) and the
:class:`~repro.costing.service.CostEvaluationService`'s counters (every
report surfaces counter deltas, so a resumed run must continue from
exactly the counts the uninterrupted run had).  The service memoizes no
cost, so the counters are all of its run state.  These helpers keep the
knowledge of *where* that state lives in one place; the checkpoint call
sites stay one-liners.

The opposite direction lives here too: :class:`PickleFieldsOnly` keeps
values a design caches about itself out of every snapshot, and
:func:`query_columns` / :func:`columns_queries` carry a query list as
three columns rather than one object per query.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import fields

from repro.workload.query import WorkloadQuery

#: A query list as columns: ``(sqls, timestamps, frequencies)``.
QueryColumns = tuple[list[str], array, array]


class PickleFieldsOnly:
    """Mixin for frozen dataclasses that cache derived values in their
    ``__dict__`` (``functools.cached_property``).

    A pickle carries the dataclass fields only, in declaration order: the
    bytes an object dumps to after it was priced are the bytes it dumped
    to before, and no cached frozenset — whose pickle follows hash order —
    reaches a checkpoint.  Unpickling restores the fields; the derived
    values come back on first use.
    """

    __slots__ = ()

    def __getstate__(self) -> dict:
        state = self.__dict__
        return {field.name: state[field.name] for field in fields(self)}


def query_columns(queries: Iterable[WorkloadQuery]) -> QueryColumns:
    """``queries`` as ``(sqls, timestamps, frequencies)``: a list of
    texts and two ``array('d')`` columns, in order.

    A snapshot of a window then pickles three objects instead of one
    per query (texts shared with another list in the same pickle are
    written once either way), and :func:`columns_queries` rebuilds
    equal queries bit for bit (a timestamp or frequency given as an
    ``int`` comes back as the equal ``float``).  Only exact
    :class:`WorkloadQuery` instances are encoded: a subclass would come
    back as its base.
    """
    sqls: list[str] = []
    timestamps = array("d")
    frequencies = array("d")
    for query in queries:
        if type(query) is not WorkloadQuery:
            raise TypeError(f"cannot encode {type(query).__name__} as a WorkloadQuery")
        sqls.append(query.sql)
        timestamps.append(query.timestamp)
        frequencies.append(query.frequency)
    return sqls, timestamps, frequencies


def columns_queries(columns: QueryColumns) -> list[WorkloadQuery]:
    """The queries :func:`query_columns` encoded, in order."""
    sqls, timestamps, frequencies = columns
    return list(map(WorkloadQuery, sqls, timestamps, frequencies))


def sampler_state(sampler) -> dict:
    """Snapshot a :class:`NeighborhoodSampler`'s random stream.

    The perturbation pool is *not* captured: every harness rebuilds the
    pool deterministically from the trace and the window index before
    sampling (see ``_past_pool_hook``), so only the generator position
    is genuine run state.
    """
    return {"bit_generator": sampler.rng.bit_generator.state}


def restore_sampler(sampler, state: dict) -> None:
    """Restore a sampler's random stream from :func:`sampler_state`."""
    sampler.rng.bit_generator.state = state["bit_generator"]


def designer_state(designer) -> dict | None:
    """Snapshot the resumable state a designer carries, if any.

    Designers are black boxes to the harness, so the capture is
    duck-typed: a ``sampler`` with an ``rng`` (CliffGuard and friends —
    the generator position decides every future perturbation draw) is
    snapshotted as before, and a designer exposing
    ``export_state``/``import_state`` (the online learners — the bandit's
    V/b matrices, RNG stream, incumbent, and arm log) ships its own
    state dict alongside.  Stateless designers return ``None``.
    """
    state: dict = {}
    sampler = getattr(designer, "sampler", None)
    if sampler is not None and hasattr(sampler, "rng"):
        state["sampler"] = sampler_state(sampler)
    export = getattr(designer, "export_state", None)
    if callable(export):
        state["model"] = export()
    return state or None


def restore_designer(designer, state: dict | None) -> None:
    """Restore what :func:`designer_state` captured (``None`` = no-op)."""
    if state is None:
        return
    sampler = getattr(designer, "sampler", None)
    if sampler is not None and "sampler" in state:
        restore_sampler(sampler, state["sampler"])
    restore = getattr(designer, "import_state", None)
    if callable(restore) and "model" in state:
        restore(state["model"])


def costing_state(adapter_or_service) -> dict | None:
    """Export the cost-evaluation counters behind an adapter (or service).

    Accepts either a :class:`DesignAdapter` (the common case — its
    ``costing`` attribute is the service) or a service itself; returns
    ``None`` for stub adapters without one, so call sites never branch.

    Compiled workload arenas are *derived* state: they bake only the
    workload text and the model's statistics, both of which survive a
    restart, so snapshots exclude them (``export_state`` ships the
    counters only) and a resumed run rebuilds arenas on first use.  The
    arena/matrix counters (``ArenaStats``) are likewise excluded so a
    kill-resume run's counter deltas stay byte-identical to an
    uninterrupted run's.
    """
    service = getattr(adapter_or_service, "costing", adapter_or_service)
    export = getattr(service, "export_state", None)
    if export is None:
        return None
    return export()


def restore_costing(adapter_or_service, state: dict | None) -> None:
    """Import a counter export from :func:`costing_state` (``None`` = no-op)."""
    if state is None:
        return
    service = getattr(adapter_or_service, "costing", adapter_or_service)
    restore = getattr(service, "import_state", None)
    if restore is not None:
        restore(state)
