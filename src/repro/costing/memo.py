"""The one bounded LRU every content-keyed cache in the repo is built on.

The costing service memoizes compiled arenas (never a cost), the query
profiler memoizes profiles by SQL text, the distance metrics memoize
template encodings, and the bandit designer keeps its arm log.  All of
them need the same thing — a mapping that forgets its
least-recently-used entry once it is full — so a months-long
replay, monitor or serve run cannot grow them (and the
objects they reference) without bound.  :class:`BoundedMemo` is that
mapping.  State kept per live :class:`~repro.workload.workload.Workload`
(the distance metrics' self terms and baseline costs, the nominal
designers' designs) lives in a ``weakref.WeakKeyDictionary`` instead:
an entry dies with its workload, so it needs no bound.

Membership — not :meth:`BoundedMemo.get` — is the read idiom wherever
``None`` is a legal cached value.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable

from repro.obs import get_metrics

#: Default bound on one memo (the query profiler's per-text profiles,
#: the distance metric's per-template encodings): large enough that a
#: bench-scale run never evicts, small enough to cap an endless stream.
DEFAULT_MEMO_ENTRIES = 262_144

_MISSING = object()


class BoundedMemo:
    """LRU-bounded mapping with counted evictions.

    Reads come in two strengths: ``memo[key]`` and :meth:`get` refresh
    the entry's recency, ``key in memo`` and :meth:`peek` do not.
    ``memo[key] = value`` inserts at the most-recent end and evicts from
    the other one.

    Every eviction bumps :attr:`evictions`, increments ``counter_name``
    in the process-wide metrics registry (when given) and calls
    ``on_evict(key, value)`` (when given).  :meth:`items` lists entries
    oldest-first and :meth:`replace` loads such a list back, so an
    exported cache round-trips with its exact LRU order.  Instances
    without an ``on_evict`` hook are picklable, so cost models carrying
    one (through their profiler) can still ship to process-backend
    workers.
    """

    def __init__(
        self,
        counter_name: str | None = None,
        max_entries: int = DEFAULT_MEMO_ENTRIES,
        *,
        on_evict: Callable[[object, object], None] | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.counter_name = counter_name
        self.max_entries = max_entries
        self.on_evict = on_evict
        self.evictions = 0
        #: Least recently used first.
        self._entries: OrderedDict = OrderedDict()

    # These are the profiler's and the service's per-lookup hot path:
    # straight dict operations, no helper call in between.

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __getitem__(self, key):
        value = self._entries[key]
        self._entries.move_to_end(key)
        return value

    def get(self, key, default=None):
        """The cached value (refreshing its recency), else ``default``."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._entries.move_to_end(key)
        return value

    def peek(self, key):
        """The cached value (``None`` if absent) *without* touching the
        LRU order."""
        return self._entries.get(key)

    def __setitem__(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._evict_oldest()

    def _evict_oldest(self) -> None:
        key, value = self._entries.popitem(last=False)
        self.evictions += 1
        if self.counter_name is not None:
            get_metrics().counter(self.counter_name).inc()
        if self.on_evict is not None:
            self.on_evict(key, value)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> list[tuple[object, object]]:
        """``(key, value)`` pairs, least recently used first."""
        return list(self._entries.items())

    def replace(self, items: Iterable[tuple[object, object]]) -> None:
        """Drop everything and load ``items`` (oldest first) verbatim —
        the inverse of :meth:`items`; no eviction is counted."""
        self._entries = OrderedDict(items)

    def clear(self) -> None:
        self._entries.clear()
