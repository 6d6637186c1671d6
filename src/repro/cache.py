"""The one bounded cache: recency order, cost budget, pins, eviction.

Every cache in the repo — compiled plans, query results, predictions,
matrix blocks, materialized intermediates — needs the same algorithm: keep
entries in least-recently-used order, charge each a cost against a
budget (bytes, or 1 per entry), and make room by evicting the oldest
entry that is not pinned. :class:`BoundedCache` is that algorithm and
nothing else. It does not decide what a hit is: the caller owns the
key, the freshness rule (a version in the key), any lock, and the hit/miss
counts. The only event the cache itself can see is an eviction, which
it counts on the caller's ledger.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from .errors import ReproError


class BoundedCache:
    """Cost-budgeted LRU map with pinning.

    Args:
        budget: total cost the resident entries may sum to.
        stats: the owner's :class:`~repro.obs.Ledger`; must have an
            ``evictions`` field.
    """

    def __init__(self, budget: int, stats):
        self.budget = budget
        self.used = 0
        self.stats = stats
        # key -> (value, cost), least recently used first
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._pinned: set[Hashable] = set()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list:
        """Resident keys, least recently used first."""
        return list(self._entries)

    def pinned(self) -> set:
        return set(self._pinned)

    def get(self, key: Hashable):
        """The resident value (now most recent), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def get_many(self, keys) -> list:
        """:meth:`get` of each key in order, in one loop."""
        lookup, touch = self._entries.get, self._entries.move_to_end
        values = []
        for key in keys:
            entry = lookup(key)
            if entry is not None:
                touch(key)
                entry = entry[0]
            values.append(entry)
        return values

    def put_many(self, keys, values) -> None:
        """:meth:`put` of each pair in order, in one loop (all cost 1)."""
        entries = self._entries
        for key, value in zip(keys, values):
            if key in entries:
                self.remove(key)
            if self.used < self.budget or self._evict_one():
                entries[key] = (value, 1)
                self.used += 1

    def put(self, key: Hashable, value, cost: int = 1, pin: bool = False) -> bool:
        """Replace ``key``'s entry; returns whether it is resident after.

        Admission evicts unpinned entries oldest-first. A value costing
        more than the whole budget, or more than what the pinned set
        leaves free, passes through uncached.
        """
        if cost < 0:
            raise ReproError(f"entry cost must be >= 0, got {cost}")
        self.remove(key)
        if cost > self.budget:
            return False
        while self.used + cost > self.budget:
            if not self._evict_one():
                return False
        self._entries[key] = (value, cost)
        self.used += cost
        if pin:
            self._pinned.add(key)
        return True

    def _evict_one(self) -> bool:
        for victim in self._entries:
            if victim not in self._pinned:
                self.used -= self._entries.pop(victim)[1]
                self.stats.inc("evictions")
                return True
        return False

    def pin(self, key: Hashable) -> bool:
        """Shield a resident entry from eviction; False if not resident."""
        if key not in self._entries:
            return False
        self._pinned.add(key)
        return True

    def remove(self, key: Hashable) -> bool:
        """Drop one entry (not an eviction); returns whether it existed."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.used -= entry[1]
        self._pinned.discard(key)
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._pinned.clear()
        self.used = 0
