"""Lineage-aware materialization with cross-workload reuse.

Model selection re-derives the same intermediates run after run: every
grid point recomputes the gram matrix, every CV repeat recomputes fold
statistics, every feature-subset exploration shares most of its
statistics with the last one. This package makes those intermediates a
managed resource:

* :mod:`~repro.materialize.fingerprint` — content-hashed identities
  (structure x operand bytes x flags), so matching is by *what is
  computed*, never by variable name, and a hit is bit-identical to a
  cold computation by construction.
* :mod:`~repro.materialize.store` — the two-tier
  :class:`MaterializationStore` (bufferpool-charged memory + atomic
  CRC-checked disk files) with cost-based admission, pinning, and a
  corruption path that degrades to lineage recompute.
* :mod:`~repro.materialize.lineage` — provenance records linking each
  entry to the materialized intermediates it was derived from.

A store is passed to the code that uses it
(``selection.ridge_feature_grid(store=)``, ``features.FeatureStore``);
the executor never consults one.
"""

from .fingerprint import Fingerprint, canonical_plan, content_hash
from .lineage import LineageGraph, LineageRecord
from .store import MaterializationStore

__all__ = [
    "Fingerprint",
    "canonical_plan",
    "content_hash",
    "LineageGraph",
    "LineageRecord",
    "MaterializationStore",
]
