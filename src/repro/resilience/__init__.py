"""Fault-tolerant execution: chaos, retry, and checkpoint/restore.

The resilience layer reproduces how the surveyed systems survive
failure rather than crash:

* :mod:`repro.resilience.faults` — deterministic fault injection. A
  seeded :class:`FaultPlan` installed through a :class:`ChaosContext`
  makes registered sites (pmap tasks, cluster worker RPCs,
  parameter-server pushes, blockstore reads, algorithm iterations)
  raise :class:`~repro.errors.InjectedFault`, sleep (straggler), or
  corrupt bytes — reproducibly, so chaos tests are assertable.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (bounded
  attempts, exponential backoff with deterministic jitter, retryable
  filter) and the :func:`resilient_call` hook iterative drivers wrap
  their steps in. Task re-execution mirrors MapReduce/Spark.
* :mod:`repro.resilience.checkpoint` — :class:`IterativeCheckpointer`:
  atomic (write-temp-then-rename), schema-versioned, CRC32-checksummed
  snapshots so any iterative job killed at step k resumes to the
  bit-identical final model.

Recovery events all flow into the :mod:`repro.obs` registry
(``resilience.*`` / ``checkpoint.*`` counters); experiment E21 measures
completion rate and overhead under injected fault rates.
"""

from ..errors import (
    CheckpointError,
    CorruptedBlockError,
    InjectedFault,
    ParallelTaskError,
    ResilienceError,
    RetryExhaustedError,
    WorkerFailure,
)
from .checkpoint import SCHEMA as CHECKPOINT_SCHEMA
from .checkpoint import IterativeCheckpointer
from .faults import (
    CHAOS_SEED_ENV,
    SITES,
    ChaosContext,
    FaultPlan,
    FaultSpec,
    active_chaos,
    chaos_seed_from_env,
    fault_point,
    install_chaos,
    no_chaos,
    uninstall_chaos,
)
from .retry import (
    AGGRESSIVE_RETRYABLE,
    DEFAULT_RETRYABLE,
    RetryPolicy,
    call_with_retry,
    resilient_call,
)

__all__ = [
    "AGGRESSIVE_RETRYABLE",
    "CHAOS_SEED_ENV",
    "CHECKPOINT_SCHEMA",
    "DEFAULT_RETRYABLE",
    "ChaosContext",
    "CheckpointError",
    "CorruptedBlockError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "IterativeCheckpointer",
    "ParallelTaskError",
    "ResilienceError",
    "RetryExhaustedError",
    "RetryPolicy",
    "SITES",
    "WorkerFailure",
    "active_chaos",
    "call_with_retry",
    "chaos_seed_from_env",
    "fault_point",
    "install_chaos",
    "no_chaos",
    "resilient_call",
    "uninstall_chaos",
]
