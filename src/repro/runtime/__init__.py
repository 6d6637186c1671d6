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
    CallRecord,
    ParallelContext,
    ParallelStats,
    get_default_context,
    merge_tree,
    parallel_stats,
    pmap,
    reset_parallel_stats,
    resolve_context,
    set_default_context,
)

__all__ = [
    "FUSED_KERNELS",
    "BlockStore",
    "BlockedMatrix",
    "BufferPool",
    "CallRecord",
    "ExecutionStats",
    "OutOfCoreLinearRegression",
    "OutOfCoreResult",
    "ParallelContext",
    "ParallelStats",
    "apply_aggregate",
    "apply_binary",
    "apply_fused",
    "apply_unary",
    "execute",
    "get_default_context",
    "merge_tree",
    "parallel_stats",
    "pmap",
    "reset_parallel_stats",
    "resolve_context",
    "set_default_context",
]
