"""Incremental ML over dynamic relational data (F-IVM-style).

The repo's first streaming workload: base tables accept typed
insert/delete/update deltas, the gram/cofactor aggregates the
factorized layer computes are maintained in O(|delta| * d^2), and a
continuous trainer hot-swaps refreshed models into the online server —
with bit-parity against full recomputation asserted at every
checkpoint, and lineage recompute (never silent staleness) when chaos
corrupts or drops a delta. See DESIGN.md, "Incremental maintenance";
gated by E25 (``benchmarks/bench_incremental.py``).
"""

from .aggregates import (
    GRID_BOUND,
    GRID_QUANTUM,
    GramCofactorState,
    snap_to_grid,
)
from .maintainer import DeltaConsumer, IncrementalMaintainer
from .stream import ChangeStream, Delta, DynamicTable
from .trainer import ContinuousTrainer

__all__ = [
    "GRID_BOUND",
    "GRID_QUANTUM",
    "ChangeStream",
    "ContinuousTrainer",
    "Delta",
    "DeltaConsumer",
    "DynamicTable",
    "GramCofactorState",
    "IncrementalMaintainer",
    "snap_to_grid",
]
