"""Online model serving: one server, whatever the topology.

:class:`ShardedServer` turns a :class:`~repro.lifecycle.ModelRegistry`
into a live inference surface (a single node is ``ShardedServer(
registry, num_shards=1, replication=1)``). Its modules, each of which
documents its own contract:

* :mod:`~repro.serving.fabric` — shards on a consistent-hash
  :class:`HashRing`, R-way replication, deterministic failover, epoch
  rejoin, tenant quotas (:class:`AdmissionQuotas` / :class:`TokenBucket`)
  and the fleet's rollout decisions;
* :mod:`~repro.serving.server` — each shard's executor: alias-resolved
  endpoints, :class:`CanaryRouter` splits, compiled scorers
  bit-identical to single-row and SQL scoring, deadlines and the
  ``serving.admission`` / ``serving.score`` fault sites;
* :mod:`~repro.serving.cache` — the per-endpoint
  :class:`PredictionCache` on ``(model_version, row bytes)``;
* :mod:`~repro.serving.batcher` — the bounded :class:`MicroBatcher`
  that takes a call's misses as one block per model version and
  scores them in vectorized, row-exact batches.

E22 (``benchmarks/bench_serving.py``) and E26
(``benchmarks/bench_sharding.py``) measure and gate this package.
"""

from .batcher import MicroBatcher, PendingRequest
from .cache import PredictionCache, feature_hash
from .fabric import ShardedServer
from .quota import AdmissionQuotas, TokenBucket
from .ring import CanaryRouter, HashRing
from .server import Endpoint, compile_linear_scorer

__all__ = [
    "AdmissionQuotas",
    "CanaryRouter",
    "Endpoint",
    "HashRing",
    "MicroBatcher",
    "PendingRequest",
    "PredictionCache",
    "ShardedServer",
    "TokenBucket",
    "compile_linear_scorer",
    "feature_hash",
]
