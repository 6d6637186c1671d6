"""Runtime: plan interpreter, fused kernels, blocked matrices, buffer
pool, and the shared cost-aware parallel execution engine."""

from .blocks import BlockedMatrix
from .bufferpool import BlockStore, BufferPool
from .executor import ExecutionStats, execute
from .outofcore import OutOfCoreLinearRegression, OutOfCoreResult
from .ops import (
    FUSED_KERNELS,
    apply_aggregate,
    apply_binary,
    apply_fused,
    apply_unary,
)
from .parallel import (
    ParallelContext,
    ParallelStats,
    dispatch,
    merge_tree,
    resolve_context,
)

__all__ = [
    "FUSED_KERNELS",
    "BlockStore",
    "BlockedMatrix",
    "BufferPool",
    "ExecutionStats",
    "OutOfCoreLinearRegression",
    "OutOfCoreResult",
    "ParallelContext",
    "ParallelStats",
    "apply_aggregate",
    "apply_binary",
    "apply_fused",
    "apply_unary",
    "dispatch",
    "execute",
    "merge_tree",
    "resolve_context",
]
