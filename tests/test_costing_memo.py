"""Unit tests for :class:`repro.costing.memo.BoundedMemo`, the one LRU
class behind every bounded cache in the repo (the profiler's profiles,
the service's arenas, the distance metrics' template encodings, the
bandit's arm log)."""

from __future__ import annotations

import pytest

from repro.costing.memo import BoundedMemo
from repro.obs import get_metrics

COUNTER = "costing.memo_evictions.test_unit"


class _Key:
    """Hashable by content, distinct by identity."""

    def __init__(self, name: str):
        self.name = name

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Key) and other.name == self.name


def test_bound_recency_and_eviction_accounting():
    evicted: list[tuple[object, object]] = []
    counter = get_metrics().counter(COUNTER)
    before = counter.value
    memo = BoundedMemo(
        COUNTER,
        max_entries=2,
        on_evict=lambda key, value: evicted.append((key, value)),
    )
    a, b, c, d = (_Key(name) for name in "abcd")
    memo[a] = 1.0
    memo[b] = 2.0
    assert len(memo) == 2 and not evicted

    # ``get`` refreshes recency: "b" becomes the eviction victim.
    assert memo.get(a) == 1.0
    memo[c] = 3.0
    assert len(memo) == 2  # the bound is honoured
    assert evicted == [(b, 2.0)]  # hook fired once, with the LRU entry
    assert a in memo and c in memo and b not in memo

    # ``in`` and ``peek`` do *not* refresh: "a" is still the oldest.
    assert a in memo and memo.peek(a) == 1.0
    memo[d] = 4.0
    assert evicted == [(b, 2.0), (a, 1.0)]
    assert memo.get(a) is None and memo.peek(a) is None

    # ``[key]`` refreshes like ``get``; a miss raises.
    assert memo[c] == 3.0
    with pytest.raises(KeyError):
        memo[a]
    assert [key for key, _ in memo.items()] == [d, c]

    # Exactly one count per eviction, on the instance and in the registry.
    assert memo.evictions == 2
    assert counter.value == before + 2

    # Overwriting a resident key is not an eviction, and refreshes it.
    memo[d] = 40.0
    assert memo.evictions == 2 and memo.items() == [(c, 3.0), (d, 40.0)]


def test_items_round_trip_lru_order():
    keys = [_Key(name) for name in "abcde"]
    memo = BoundedMemo(max_entries=8)
    for i, key in enumerate(keys):
        memo[key] = i
    memo.get(keys[1])  # order is now a c d e b
    exported = memo.items()
    assert [key.name for key, _ in exported] == list("acdeb")

    restored = BoundedMemo(max_entries=5)
    restored[_Key("stale")] = -1
    restored.replace(exported)
    assert restored.items() == exported
    assert restored.evictions == 0  # a load is not an eviction
    # The restored memo evicts in the exported order.
    restored[_Key("f")] = 5
    assert keys[0] not in restored and keys[2] in restored

    memo.clear()
    assert len(memo) == 0 and memo.items() == []


def test_none_is_a_first_class_value():
    """``None`` (= "this structure cannot serve this query") is cached
    like any value; membership, not ``get``, is the read idiom."""
    memo = BoundedMemo(COUNTER, max_entries=4)
    memo["x"] = None
    assert "x" in memo
    assert memo["x"] is None
    assert "y" not in memo


def test_content_mode_shares_entries_between_equal_keys():
    memo = BoundedMemo(max_entries=4)
    memo[_Key("a")] = 1.0
    assert memo.get(_Key("a")) == 1.0


def test_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        BoundedMemo(COUNTER, max_entries=0)
    with pytest.raises(ValueError):
        BoundedMemo(max_entries=-1)
