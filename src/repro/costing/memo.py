"""The one bounded LRU every cache in the repo is built on.

The costing service memoizes design fingerprints and compiled arenas
(never a cost), the query profiler memoizes profiles by SQL text, the
distance metrics memoize template encodings and per-workload terms, and
the bandit designer keeps its arm log.  All of them need the same thing — a mapping that
forgets its least-recently-used entry once it is full — so a months-long
``scheduled_replay``, monitor or serve run cannot grow them (and the
objects they reference) without bound.  :class:`BoundedMemo` is that
mapping.

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

    ``by_identity=True`` keys entries by ``id(key)`` instead of by
    ``hash``/``==`` — for key objects that are expensive (or unable) to
    hash but never mutate, such as a ``Workload``.  Each entry keeps the
    key object itself alongside the value, so an ``id`` recycled by a
    new object after garbage collection can never alias a stale entry.

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
        by_identity: bool = False,
        on_evict: Callable[[object, object], None] | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.counter_name = counter_name
        self.max_entries = max_entries
        self.by_identity = by_identity
        self.on_evict = on_evict
        self.evictions = 0
        #: Least recently used first.  Content-keyed: key -> value.
        #: Identity-keyed: ``id(key)`` -> (key, value).
        self._entries: OrderedDict = OrderedDict()

    def _identity_entry(self, key):
        """The resident ``(key, value)`` entry for *this* object, or
        ``None`` (also when its ``id`` slot holds another object's)."""
        entry = self._entries.get(id(key))
        return entry if entry is not None and entry[0] is key else None

    # The content-keyed branches below are the profiler's and the
    # service's per-lookup hot path: straight dict operations, no helper
    # call in between.

    def __contains__(self, key) -> bool:
        if self.by_identity:
            return self._identity_entry(key) is not None
        return key in self._entries

    def __getitem__(self, key):
        if not self.by_identity:
            value = self._entries[key]
            self._entries.move_to_end(key)
            return value
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def get(self, key, default=None):
        """The cached value (refreshing its recency), else ``default``."""
        if self.by_identity:
            entry = self._identity_entry(key)
            if entry is None:
                return default
            self._entries.move_to_end(id(key))
            return entry[1]
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._entries.move_to_end(key)
        return value

    def peek(self, key, default=None):
        """The cached value *without* touching the LRU order."""
        if self.by_identity:
            entry = self._identity_entry(key)
            return default if entry is None else entry[1]
        return self._entries.get(key, default)

    def __setitem__(self, key, value) -> None:
        if self.by_identity:
            slot = id(key)
            self._entries[slot] = (key, value)
        else:
            slot = key
            self._entries[key] = value
        self._entries.move_to_end(slot)
        while len(self._entries) > self.max_entries:
            self._evict_oldest()

    def _evict_oldest(self) -> None:
        slot, stored = self._entries.popitem(last=False)
        key, value = stored if self.by_identity else (slot, stored)
        self.evictions += 1
        if self.counter_name is not None:
            get_metrics().counter(self.counter_name).inc()
        if self.on_evict is not None:
            self.on_evict(key, value)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> list[tuple[object, object]]:
        """``(key, value)`` pairs, least recently used first."""
        if self.by_identity:
            return list(self._entries.values())
        return list(self._entries.items())

    def replace(self, items: Iterable[tuple[object, object]]) -> None:
        """Drop everything and load ``items`` (oldest first) verbatim —
        the inverse of :meth:`items`; no eviction is counted."""
        if self.by_identity:
            items = ((id(key), (key, value)) for key, value in items)
        self._entries = OrderedDict(items)

    def clear(self) -> None:
        self._entries.clear()
