"""Deterministic hash-based canary routing.

A rollout is only auditable if the traffic split is reproducible: given
the same seed and fraction, a request key must land on the same side of
the split in every process, on every machine, forever. The router
therefore hashes with CRC32 (process-independent, unlike builtin
``hash``) and derives each key's bucket from ``(seed, key)`` alone — no
per-request randomness, no mutable state. Moving the fraction is
*monotone*: raising it only adds keys to the canary set (a key's bucket
never changes), so a gradual 1% -> 5% -> 25% rollout keeps early canary
users on the candidate instead of reshuffling them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ServingError
from .ring import placement_hash

#: bucket resolution: keys map to [0, 1) in steps of 1/2^32.
_BUCKETS = float(2**32)


@dataclass(frozen=True)
class CanaryRouter:
    """Routes a fraction of request keys to a candidate version.

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
        return placement_hash(self.seed, repr(key)) / _BUCKETS

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
