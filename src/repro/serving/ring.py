"""The placement hash and its users: the consistent-hash ring for
shard placement, the replica rotation and the canary traffic split.

The fabric partitions endpoints and their prediction caches across
shards, so placement must be:

* **bit-reproducible** — CRC32 over explicit strings, never builtin
  ``hash`` (salted per interpreter), so every process routes every key
  alike, and a numpy scalar key as the Python value it holds
  (:func:`key_token`; a call's keys hash in C-level passes);
* **minimally disruptive** — each node projects ``vnodes`` virtual
  points onto the ring, so adding or removing one of N nodes remaps
  only ~1/N of the key space (property-tested in
  ``tests/test_sharding.py``) and a resize keeps most shards' caches;
* **replica-ordered** — :meth:`successors` walks clockwise from a key's
  point to the first R *distinct* nodes: a stable failover preference
  list, so a dead owner's next live successor takes over.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

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


def rotation(seed: int, name: str, key: object, count: int) -> int:
    """Where a request's walk over endpoint ``name``'s ``count``
    replicas starts: ``None`` keys and one replica stay home (0)."""
    if key is None or count == 1:
        return 0
    return placement_hash(seed, f"{name}|{key_token(key)}") % count


def rotations(seed: int, name: str, keys: list, count: int) -> np.ndarray:
    """:func:`rotation` of each of a call's keys, bit for bit: the
    ``"<seed>|<name>|"`` prefix is hashed once, then continued per key
    in C-level ``map`` chains (a token is the key's ``repr`` unless the
    call holds a numpy scalar)."""
    starts = np.zeros(len(keys), np.intp)
    if count == 1 or not keys:
        return starts
    prefix = zlib.crc32(f"{seed}|{name}|".encode("utf-8"))
    numpy = any(issubclass(t, np.generic) for t in set(map(type, keys)))
    tokens = map(key_token if numpy else repr, keys)
    hashes = map(zlib.crc32, map(str.encode, tokens), repeat(prefix))
    np.remainder(np.fromiter(hashes, np.int64, len(keys)), count, out=starts)
    if None in keys:
        starts[[key is None for key in keys]] = 0
    return starts


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
        self._points: list[tuple[int, str]] = []  # sorted (hash, owner)
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ServingError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for v in range(self.vnodes):
            # CRC collisions between distinct tokens are possible in a
            # 32-bit space; ties sort by node name, so insertion order
            # still cannot change the ring.
            point = placement_hash(self.seed, f"{node}#{v}")
            bisect.insort(self._points, (point, node))

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
        point = placement_hash(self.seed, f"key|{key_token(key)}")
        start = bisect.bisect_right(self._points, point, key=itemgetter(0))
        clockwise = self._points[start:] + self._points[:start]
        return list(dict.fromkeys(owner for _, owner in clockwise))[:count]

    def owner(self, key: object) -> str:
        """The single node owning ``key``."""
        return self.successors(key, 1)[0]
