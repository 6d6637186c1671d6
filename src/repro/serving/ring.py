"""The placement hash and its two users: the consistent-hash ring for
shard placement and routing, and the canary traffic split.

The fabric partitions endpoints and their prediction caches across
shards, so the placement function has to satisfy three properties
:class:`CanaryRouter` already set the precedent for:

* **bit-reproducible** — placement hashes with CRC32 over explicit
  strings, never builtin ``hash`` (salted per interpreter), so the same
  ring built in any process, under any ``PYTHONHASHSEED``, routes every
  key identically — and a numpy scalar key routes as the Python value
  it holds (:func:`key_token`);
* **minimally disruptive** — each node projects ``vnodes`` virtual
  points onto the ring, so adding or removing one of N nodes remaps
  only ~1/N of the key space (property-tested in
  ``tests/test_sharding.py``) while everything else keeps its owner —
  which is what keeps a resize from invalidating every shard's cache;
* **replica-ordered** — :meth:`successors` walks clockwise from a key's
  point and returns the first R *distinct* nodes, giving every key a
  stable failover preference list: when its owner dies, the next live
  successor takes over deterministically.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import ServingError

#: canary bucket resolution: keys map to [0, 1) in steps of 1/2^32.
_BUCKETS = float(2**32)


def placement_hash(seed: int, token: str) -> int:
    """The one placement hash: CRC32 of ``"<seed>|<token>"``.

    Ring points, replica rotation and canary buckets all draw from this
    rule, so the same strings place the same way in every process,
    under any ``PYTHONHASHSEED``.
    """
    return zlib.crc32(f"{seed}|{token}".encode("utf-8"))


def key_token(key: object) -> str:
    """The string a request key places by: ``repr`` of the Python value,
    so ``np.int64(5)`` and ``5`` (``np.str_("a")`` and ``"a"``) route
    alike — numpy 2 spells ``repr(np.int64(5))`` ``'np.int64(5)'``."""
    return repr(key.item() if isinstance(key, np.generic) else key)


@dataclass(frozen=True)
class CanaryRouter:
    """Routes a fixed fraction of request keys to a candidate version.

    A rollout is only auditable if the split is reproducible: a key's
    bucket derives from ``(seed, key)`` alone — no per-request
    randomness, no mutable state — so it lands on the same side in every
    process, forever. Moving the fraction is *monotone*: raising it only
    adds keys to the canary set, so a gradual 1% -> 5% -> 25% rollout
    keeps early canary users on the candidate instead of reshuffling
    them.

    Args:
        fraction: share of the key space routed to the canary, in [0, 1].
        seed: salt for the key hash; two routers with different seeds
            draw independent splits over the same keys.
    """

    fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ServingError(
                f"canary fraction must be in [0, 1], got {self.fraction}"
            )

    def bucket(self, key: object) -> float:
        """The key's fixed position in [0, 1) — independent of fraction."""
        return placement_hash(self.seed, key_token(key)) / _BUCKETS

    def routes_to_canary(self, key: object) -> bool:
        """True when this key belongs to the canary slice."""
        return self.fraction > 0.0 and self.bucket(key) < self.fraction

    def split(self, keys) -> tuple[list, list]:
        """Partition ``keys`` into (stable, canary) lists, order kept."""
        stable: list = []
        canary: list = []
        for key in keys:
            (canary if self.routes_to_canary(key) else stable).append(key)
        return stable, canary


class HashRing:
    """CRC32 consistent-hash ring with virtual nodes.

    Args:
        nodes: initial node identifiers (order-independent: placement
            depends only on the node *names*, not insertion order).
        vnodes: virtual points per node; more vnodes smooth the key
            distribution at the cost of a larger sorted point table.
        seed: salt folded into every hash, so two rings with different
            seeds draw independent placements over the same nodes.
    """

    def __init__(self, nodes=(), vnodes: int = 64, seed: int = 0):
        if vnodes < 1:
            raise ServingError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        self._nodes: set[str] = set()
        self._points: list[int] = []  # sorted hash positions
        self._owners: list[str] = []  # owner of each position
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ServingError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for v in range(self.vnodes):
            point = placement_hash(self.seed, f"{node}#{v}")
            idx = bisect.bisect_left(self._points, point)
            # CRC collisions between distinct tokens are possible in a
            # 32-bit space; break ties by node name so insertion order
            # still cannot change the ring.
            while (
                idx < len(self._points)
                and self._points[idx] == point
                and self._owners[idx] < node
            ):
                idx += 1
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    def successors(self, key: object, count: int = 1) -> list[str]:
        """The first ``count`` distinct nodes clockwise from ``key``.

        This is a key's replica preference list: index 0 is its owner,
        the rest are its failover order. ``count`` is clamped to the
        ring size.
        """
        if not self._nodes:
            raise ServingError("ring has no nodes")
        count = min(count, len(self._nodes))
        point = placement_hash(self.seed, f"key|{key_token(key)}")
        start = bisect.bisect_right(self._points, point) % len(self._points)
        found: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                found.append(owner)
                if len(found) == count:
                    break
        return found

    def owner(self, key: object) -> str:
        """The single node owning ``key``."""
        return self.successors(key, 1)[0]
