"""Lineage-aware materialization with cross-workload sub-plan reuse.

Model selection re-derives the same intermediates run after run: every
grid point recomputes the gram matrix, every CV repeat recomputes fold
statistics, every feature-subset exploration shares most of its
sub-expressions with the last one. This package makes those
intermediates a managed resource:

* :mod:`~repro.materialize.fingerprint` — content-hashed identities for
  executed sub-plans (structure x operand bytes x optimizer flags), so
  matching is by *what is computed*, never by variable name, and a hit
  is bit-identical to cold execution by construction.
* :mod:`~repro.materialize.store` — the two-tier
  :class:`MaterializationStore` (bufferpool-charged memory + atomic
  CRC-checked disk files) with cost-based admission, pinning, and a
  corruption path that degrades to lineage recompute.
* :mod:`~repro.materialize.lineage` — provenance records linking each
  entry to the materialized sub-plans it was derived from.
* :mod:`~repro.materialize.reuse` — the per-execution
  :class:`ReuseContext` the executor consults.

Activation is ``with materialization_scope(store)`` and nothing else;
outside a scope the executor's behavior and plans are byte-identical to
a build without this package.
"""

from .fingerprint import (
    Fingerprint,
    canonical_plan,
    content_hash,
    fingerprint_node,
)
from .lineage import LineageGraph, LineageRecord
from .reuse import ReuseContext
from .store import (
    MaterializationStore,
    active_store,
    materialization_scope,
)

__all__ = [
    "Fingerprint",
    "canonical_plan",
    "content_hash",
    "fingerprint_node",
    "LineageGraph",
    "LineageRecord",
    "ReuseContext",
    "MaterializationStore",
    "active_store",
    "materialization_scope",
]
