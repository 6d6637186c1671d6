"""Sharded, replicated serving fabric with deterministic failover.

:class:`ShardedServer` is the one public server: it partitions
endpoints *and* the prediction cache across N shards, each served by a
private :class:`~repro.serving.server.ModelServer` executor, and owns
every rollout decision. A single-node deployment is
``ShardedServer(registry, num_shards=1, replication=1)``.

* **Placement** — endpoints land on their next R distinct successors
  on a CRC32 consistent-hash :class:`~repro.serving.ring.HashRing`
  (bit-reproducible; resizing the fleet remaps ~1/N of the key space).
* **Routing** — a request key picks one of the endpoint's R replicas
  (a CRC32 rotation of the replica list), so each replica serves, and
  caches, a stable slice of the key space. A call is placed at once, a
  single request by :meth:`ShardedServer.route`; only under a chaos
  plan is each row placed with fault crossings.
* **Failover** — shards are health-tracked (`kill_shard` /
  `revive_shard`). A request whose replica is dead walks its preference
  list to the next live one; every replica scores through the same
  compiled scorer, so a failover never changes an answer. The fleet
  keeps an exact ``failovers`` / ``rerouted`` / ``replica_hits`` ledger.
* **Epoch rejoin** — a revived shard re-enters at a bumped epoch with
  its caches invalidated (it may have missed promotes).
* **Tenant isolation** — per-tenant token-bucket quotas
  (:class:`~repro.serving.quota.AdmissionQuotas`) meter admission
  *before* any shard queue: a hot tenant sheds its own overflow
  (``LoadShedError`` with ``reason="quota"`` and the tenant).
* **Fleet rollout** — a promote deploys once to the shared registry
  and invalidates every hosting replica's cache; a canary writes its
  alias once and hands every replica the same seeded router, so its
  hash split is exact across the fleet.
* **Chaos** — ``fabric.route`` guards routing and ``fabric.score`` the
  dispatch to a shard (a fault there fails over to the next replica);
  both compose with :class:`~repro.resilience.RetryPolicy`, whose budget
  is capped by the request's deadline.

E26 (``benchmarks/bench_sharding.py``) is the closed-loop gate: >= 1M
skewed multi-tenant requests, bit-identical to a one-shard oracle,
with a mid-stream kill recovered exactly.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import (
    DeadlineExceededError,
    InjectedFault,
    LoadShedError,
    NoLiveReplicaError,
    RetryExhaustedError,
    ServingError,
    WorkerFailure,
)
from ..lifecycle.registry import ModelRegistry, ModelVersion
from ..obs import Counted, Ledger, get_registry
from ..resilience import RetryPolicy, active_chaos, resilient_call
from .quota import AdmissionQuotas
from .ring import CanaryRouter, HashRing, rotation, rotations
from .server import ModelServer

#: a shard dispatch failing with one of these fails over to the next
#: live replica instead of failing the request.
_FAILOVER_ERRORS = (InjectedFault, RetryExhaustedError, WorkerFailure)


def _nothing() -> None:
    """The work the routing and dispatch sites guard: the fault
    crossing itself is the step."""


def _check_tenants(door: str, tenants: Iterable[object]) -> None:
    """Refuse an unhashable tenant at the door, before anything counts."""
    try:
        set(tenants)
    except TypeError as exc:
        raise ServingError(
            f"ShardedServer.{door}: a tenant must be hashable ({exc})"
        ) from exc


@dataclass
class _Shard(Counted):
    """One shard's executor plus its health state; ``served`` reads the
    requests it answered off its private ledger."""

    shard_id: str
    server: ModelServer
    live: bool = True
    epoch: int = 0
    counts: Ledger = field(
        default_factory=lambda: Ledger(None, ("served",)),
        repr=False, compare=False,
    )


@dataclass(frozen=True)
class _FabricEndpoint:
    """Fleet-level endpoint record: its placement."""

    name: str
    model_name: str
    replicas: tuple[str, ...]  # rank 0 is the home shard


class ShardedServer:
    """The model server: N consistent-hash shards, each one
    :class:`ModelServer` executor.

    Typical session::

        server = ShardedServer(registry, num_shards=1, replication=1)
        server.create_endpoint("churn-score", "churn", output="proba")
        server.promote("churn-score")            # latest -> "prod" alias
        p = server.predict("churn-score", x, key="user-42")
        server.set_canary("churn-score", version=2, fraction=0.1)

    Args:
        registry: shared model registry all shards resolve through.
        num_shards: fleet size (shard ids ``shard-0 .. shard-N-1``).
        replication: replica count per endpoint (clamped to the fleet
            size).
        seed: placement/routing salt (ring points and key spreading).
        retry: policy for the ``fabric.route`` / ``fabric.score`` sites
            and each shard's ``serving.score`` site.
        clock: injectable monotonic clock shared by shards and quotas.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        num_shards: int = 2,
        replication: int = 2,
        *,
        seed: int = 0,
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if num_shards < 1:
            raise ServingError(f"num_shards must be >= 1, got {num_shards}")
        if replication < 1:
            raise ServingError(
                f"replication must be >= 1, got {replication}"
            )
        self.registry = registry
        self.replication = min(replication, num_shards)
        self.seed = seed
        self.retry = retry
        self._clock = clock
        shard_ids = [f"shard-{i}" for i in range(num_shards)]
        self.ring = HashRing(shard_ids, seed=seed)
        self._shards: dict[str, _Shard] = {
            sid: _Shard(sid, ModelServer(registry, retry=retry, clock=clock))
            for sid in shard_ids
        }
        self._endpoints: dict[str, _FabricEndpoint] = {}
        #: endpoint -> its one shard, for endpoints placed on one replica
        #: (the fast path's whole placement; replicas never move)
        self._single: dict[str, _Shard] = {}
        self.quotas = AdmissionQuotas(clock=clock)
        #: exact fleet-wide routing/admission ledger (E26 gates on it):
        #: ``failovers`` = requests that skipped >= 1 dead/failed
        #: replica, ``rerouted`` = those skips summed, ``replica_hits`` =
        #: requests served off their home replica,
        #: ``epoch_invalidations`` = cache entries dropped on revive
        self.ledger = Ledger("fabric", (
            "requests", "quota_shed", "failovers", "rerouted",
            "replica_hits", "epoch_invalidations",
        ))
        self._gates: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Fleet topology
    # ------------------------------------------------------------------
    def shard_ids(self) -> list[str]:
        return sorted(self._shards)

    def shard(self, shard_id: str) -> _Shard:
        shard = self._shards.get(shard_id)
        if shard is None:
            raise ServingError(f"no shard named {shard_id!r}")
        return shard

    def kill_shard(self, shard_id: str) -> None:
        """Mark a shard dead; its traffic fails over deterministically."""
        shard = self.shard(shard_id)
        if not shard.live:
            raise ServingError(f"shard {shard_id!r} is already dead")
        shard.live = False
        get_registry().inc("fabric.shard_kills")

    def revive_shard(self, shard_id: str) -> int:
        """Rejoin a dead shard at a new epoch.

        Its prediction caches are invalidated (it may have missed
        promotes while dead), so a revived shard can never serve an
        answer cached before it died. Returns the entries dropped.
        """
        shard = self.shard(shard_id)
        if shard.live:
            raise ServingError(f"shard {shard_id!r} is already live")
        shard.live = True
        shard.epoch += 1
        dropped = 0
        for endpoint in self._endpoints.values():
            if shard_id in endpoint.replicas:
                dropped += shard.server.invalidate(endpoint.name)
        self.ledger.inc("epoch_invalidations", dropped)
        get_registry().inc("fabric.shard_revives")
        return dropped

    # ------------------------------------------------------------------
    # Endpoint management and fleet-wide rollout
    # ------------------------------------------------------------------
    def create_endpoint(
        self, name: str, model_name: str, **config
    ) -> _FabricEndpoint:
        """Place an endpoint on its ring successors and create it on
        each hosting shard (identical config, so routing and canary
        splits agree on every replica)."""
        if name in self._endpoints:
            raise ServingError(f"endpoint {name!r} already exists")
        replicas = tuple(self.ring.successors(name, self.replication))
        endpoint = _FabricEndpoint(name, model_name, replicas)
        for sid in replicas:
            self._shards[sid].server.create_endpoint(
                name, model_name, **config
            )
        self._endpoints[name] = endpoint
        if len(replicas) == 1:
            self._single[name] = self._shards[replicas[0]]
        return endpoint

    def replicas_of(self, name: str) -> tuple[str, ...]:
        return self._endpoint(name).replicas

    def _endpoint(self, name: str) -> _FabricEndpoint:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise ServingError(f"no endpoint named {name!r}")
        return endpoint

    def _hosting(self, name: str):
        for sid in self._endpoint(name).replicas:
            yield self._shards[sid]

    def set_promotion_gate(self, name: str, gate) -> None:
        """Install a fleet-level promotion gate; a hold fires before any
        shard has deployed, so a refused promotion leaves the whole
        fleet on the old version (no torn rollout)."""
        self._endpoint(name)  # validates the endpoint exists
        self._gates[name] = gate

    def promote(self, name: str, version: int | None = None) -> ModelVersion:
        """Fleet-wide promote: an installed gate authorizes first, then
        one deploy to the shared registry and every hosting replica's
        cache invalidated."""
        endpoint = self._endpoint(name)
        entry = self.registry.get(endpoint.model_name, version)
        gate = self._gates.get(name)
        if gate is not None:
            gate.authorize(self, name, entry)
        self.registry.deploy(endpoint.model_name, entry.version)
        for shard in self._hosting(name):
            shard.server.invalidate(name)
        return entry

    def set_canary(
        self, name: str, version: int, fraction: float
    ) -> ModelVersion:
        """Route ``fraction`` of keyed traffic to ``version``, one
        decision: build the router (it validates the fraction), write
        the canary alias once (it validates the version), then hand that
        one seeded router to every hosting replica, so the hash split is
        exact across the fleet. A refused call changes nothing."""
        endpoints = self._replica_endpoints(name)
        router = CanaryRouter(fraction, endpoints[0].router.seed)
        model = self._endpoint(name).model_name
        self.registry.set_alias(model, "canary", version)
        for endpoint in endpoints:
            endpoint.canary, endpoint.router = "canary", router
        return self.registry.get(model, version)

    def clear_canary(self, name: str) -> bool:
        """Route all traffic to the stable alias again: drop the canary
        alias once, hand every hosting replica one fraction-0 router.
        Returns whether a canary was staged; a drift hold rolls a canary
        back through this door (``DriftGate.authorize``)."""
        endpoints = self._replica_endpoints(name)
        router = CanaryRouter(0.0, endpoints[0].router.seed)
        model = self._endpoint(name).model_name
        if "canary" in self.registry.aliases(model):
            self.registry.drop_alias(model, "canary")
        staged = any(endpoint.canary is not None for endpoint in endpoints)
        for endpoint in endpoints:
            endpoint.canary, endpoint.router = None, router
        return staged

    def _replica_endpoints(self, name: str) -> list:
        """The endpoint's record on every hosting replica."""
        return [shard.server.endpoint(name) for shard in self._hosting(name)]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def preference(self, name: str, key: object | None) -> list[str]:
        """The request's replica preference order: the replicas rotated
        by the key's :func:`~repro.serving.ring.rotation`, so the key
        space, and so the prediction cache, splits evenly across them
        and each key owns a stable failover order."""
        replicas = self._endpoint(name).replicas
        start = rotation(self.seed, name, key, len(replicas))
        return list(replicas[start:] + replicas[:start])

    def route(self, name: str, key: object | None) -> tuple[str, int]:
        """(live serving shard, dead replicas skipped) for one request.

        Pure given the current liveness map: how ``predict`` places a
        request when no chaos plan is installed, and the failover replay
        the sharding tests hold :meth:`_place` and :meth:`_place_call` to.
        """
        preference = self.preference(name, key)
        skips = 0
        for sid in preference:
            if self._shards[sid].live:
                return sid, skips
            skips += 1
        raise NoLiveReplicaError(name, tuple(preference))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def set_quota(
        self, tenant: object, capacity: float, refill_per_s: float
    ) -> None:
        """Give one tenant a token-bucket admission quota."""
        self.quotas.set_quota(tenant, capacity, refill_per_s)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _admit(
        self, name: str, tenants: Sequence[object], on_shed: str
    ) -> list[int]:
        """Token-bucket admission for one call, ahead of every shard
        queue: one decision per tenant per call, which admits that
        tenant's first rows up to its whole tokens (``None`` rows are
        unmetered). Returns the refused rows, in order, for
        ``on_shed="null"`` to leave NaN.

        A call that raises on a shed charges nothing: its rows are
        admitted all or none (:meth:`AdmissionQuotas.admit_all`), and the
        first row that would be refused is the call's one shed."""
        quotas = self.quotas
        if on_shed == "raise":
            refused = quotas.admit_all(tenants)
            if refused is None:
                return []
            self.ledger.inc("quota_shed")
            tenant = tenants[refused]
            raise LoadShedError(
                name,
                0,
                int(quotas.bucket(tenant).capacity),  # refused: it exists
                tenant=tenant,
                reason="quota",
            )
        wanted = Counter(tenants)
        wanted.pop(None, None)
        shed: list[int] = []
        for tenant, count in wanted.items():
            admitted = quotas.admit(tenant, count)
            if admitted < count:
                shed += [i for i, t in enumerate(tenants) if t == tenant][
                    admitted:
                ]
        shed.sort()
        if shed:
            self.ledger.inc("quota_shed", len(shed))
        return shed

    def _place(
        self, name: str, key: object, deadline_at: float | None
    ) -> tuple[str, int]:
        """Place one admitted request under a chaos plan, for either
        door: the ``fabric.route`` site (routing faults are
        transient and recovered under the retry policy), then the
        preference walk, skipping dead shards and firing
        ``fabric.score`` per attempted shard (an injected fault there is
        a failed dispatch — retried under the policy, then failed over
        to the next live replica). Returns ``(serving shard, replicas
        skipped)``."""
        resilient_call(
            _nothing,
            site="fabric.route",
            key=name,
            retry=self.retry,
            deadline_at=deadline_at,
        )
        preference = self.preference(name, key)
        skips = 0
        last: BaseException | None = None
        for sid in preference:
            if not self._shards[sid].live:
                skips += 1
                continue
            try:
                resilient_call(
                    _nothing,
                    site="fabric.score",
                    key=(name, sid),
                    retry=self.retry,
                    deadline_at=deadline_at,
                )
            except _FAILOVER_ERRORS as exc:
                last = exc
                skips += 1
                continue
            return sid, skips
        raise NoLiveReplicaError(name, tuple(preference)) from last

    def _place_call(self, name: str, keys: list, deadline_at) -> tuple:
        """Place a call's admitted rows, one key each: ``(sorted
        replicas, each row's index into them, each row's skips)``. Under
        a chaos plan each row is :meth:`_place`d; with none, the call's
        :func:`~repro.serving.ring.rotations` (the placement prefix
        hashed once) and one table (rotation start -> first live
        replica, skips) place all rows."""
        replicas = self._endpoints[name].replicas
        hosts = sorted(replicas)
        if active_chaos() is not None:
            placed = [self._place(name, key, deadline_at) for key in keys]
            pairs = [(hosts.index(sid), skips) for sid, skips in placed]
            return hosts, *np.array(pairs, np.intp).reshape(-1, 2).T
        count = len(replicas)
        starts = rotations(self.seed, name, keys, count)
        live = [self._shards[sid].live for sid in replicas]
        if len(starts) and not any(live):  # the first row raises, unserved
            first = starts[0]
            raise NoLiveReplicaError(name, replicas[first:] + replicas[:first])
        table = np.zeros((2, count), np.intp)
        for start in range(count) if any(live) else ():
            skips = (live[start:] + live[:start]).index(True)
            serving = replicas[(start + skips) % count]
            table[:, start] = hosts.index(serving), skips
        return hosts, *table[:, starts]

    @staticmethod
    def _attributed(
        exc: LoadShedError | DeadlineExceededError,
        sid: str,
        tenants: Iterable[object],
        deadline_ms: float | None,
    ) -> LoadShedError | DeadlineExceededError:
        """A shard's shed or deadline error as the fleet raises it: it
        always names the shard, and the tenant when the dispatched rows
        share one; a deadline miss carries the client's ``deadline_ms``,
        not the remainder the shard was handed."""
        shared = set(tenants)
        tenant = shared.pop() if len(shared) == 1 else None
        if isinstance(exc, DeadlineExceededError):
            return DeadlineExceededError(
                exc.endpoint, deadline_ms, tenant=tenant, shard=sid
            )
        return LoadShedError(
            exc.endpoint,
            exc.queue_depth,
            exc.capacity,
            tenant=tenant,
            shard=sid,
            reason=exc.reason,
        )

    def _serve_on(
        self,
        sid: str,
        door: str,
        failovers: int,
        rerouted: int,
        tenants: Iterable[object],
        name: str,
        rows: np.ndarray,
        keys: object,
        deadline_ms: float | None,
        deadline_at: float | None,
    ):
        """Dispatch placed requests to their shard, the tail both doors
        share: call the shard server's ``door`` under the budget
        placement drew on (``deadline_at``), re-raise its shed or
        deadline error attributed (:meth:`_attributed`), then account
        what was served: ``failovers`` of the dispatched requests
        skipped ``rerouted`` replicas between them."""
        shard = self._shards[sid]
        try:
            out = getattr(shard.server, door)(name, rows, keys, deadline_at)
        except (LoadShedError, DeadlineExceededError) as exc:
            raise self._attributed(exc, sid, tenants, deadline_ms) from exc
        served = 1 if door == "predict" else len(out)
        shard.counts.inc("served", served)
        if rerouted:
            self.ledger.inc("failovers", failovers)
            self.ledger.inc("rerouted", rerouted)
        if sid != self._endpoints[name].replicas[0]:
            self.ledger.inc("replica_hits", served)
        return out

    def predict(
        self,
        name: str,
        row: np.ndarray,
        key: object | None = None,
        tenant: object = None,
        deadline_ms: float | None = None,
    ) -> float:
        """Serve one prediction through the fleet: quota admission, then
        placement by :meth:`route` (by :meth:`_place` under a chaos
        plan), then the owning shard's single-row path."""
        if tenant is not None:
            _check_tenants("predict", (tenant,))
        self.ledger.inc("requests")
        deadline_at = (
            self._clock() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        if tenant is not None:
            self._admit(name, (tenant,), "raise")
        if active_chaos() is None:
            sid, skips = self.route(name, key)
        else:
            sid, skips = self._place(name, key, deadline_at)
        return self._serve_on(
            sid, "predict", int(skips > 0), skips, (tenant,), name, row, key,
            deadline_ms, deadline_at,
        )

    def predict_many(
        self,
        name: str,
        rows: np.ndarray,
        keys: Sequence[object] | None = None,
        tenants: Sequence[object] | None = None,
        deadline_ms: float | None = None,
        on_shed: str = "raise",
    ) -> np.ndarray | tuple[np.ndarray, list[int]]:
        """Serve a stream: admit the call once per tenant, place the
        admitted rows at once (:meth:`_place_call`), then hand each
        shard its slice in one call.

        ``on_shed="raise"`` raises for the first row the quotas refuse,
        before any bucket is charged; ``on_shed="null"`` records shed
        rows as NaN and returns ``(values, shed_indices)`` — what a
        closed-loop load generator wants, because one hot tenant's
        sheds must not abort the stream.
        """
        if on_shed not in ("raise", "null"):
            raise ServingError(
                f"on_shed must be 'raise' or 'null', got {on_shed!r}"
            )
        deadline_at = (
            self._clock() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        # Fast path: a single-replica fleet with no quotas and no chaos
        # hands its one shard the whole call (its door validates it), its
        # error attributed and the call counted served. Nothing fails
        # over, so the rest of `_serve_on` is zero here; going through it
        # costs E26's 3 % bound on a 64-row call (EXPERIMENTS.md, E26).
        shard = self._single.get(name)
        if (
            shard is not None
            and tenants is None
            and not self.quotas.configured
            and active_chaos() is None
            and getattr(rows, "ndim", 0) == 2
            and (keys is None or len(keys) == len(rows))
        ):
            if not shard.live:
                raise NoLiveReplicaError(name, (shard.shard_id,))
            self.ledger.inc("requests", len(rows))
            try:
                out = shard.server.predict_many(name, rows, keys, deadline_at)
            except (LoadShedError, DeadlineExceededError) as exc:
                raise self._attributed(
                    exc, shard.shard_id, (), deadline_ms
                ) from exc
            shard.counts.inc("served", len(out))
            return (out, []) if on_shed == "null" else out

        self._endpoint(name)  # an unknown endpoint raises before admission
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ServingError(
                f"predict_many expects a 2-D batch, got shape {rows.shape}"
            )
        n = rows.shape[0]
        if keys is not None and len(keys) != n:
            raise ServingError("one key per row required")
        if tenants is not None:
            if len(tenants) != n:
                raise ServingError("one tenant per row required")
            _check_tenants("predict_many", tenants)

        self.ledger.inc("requests", n)
        shed = [] if tenants is None else self._admit(name, tenants, on_shed)
        admitted = np.delete(np.arange(n), shed) if shed else None
        if keys is None:
            asked = [None] * (n - len(shed))
        else:
            asked = [keys[i] for i in admitted] if shed else list(keys)
        hosts, shard, skips = self._place_call(name, asked, deadline_at)
        out = np.full(n, np.nan)  # a shed row stays NaN
        # one mask per host picks its rows, in row order, hosts in order
        for host, sid in enumerate(hosts):
            mask = shard == host
            group = np.flatnonzero(mask)
            if not len(group):
                continue
            skipped = skips[group]
            if shed:  # `shard` runs over the admitted rows: widen it
                group = admitted[group]
                mask = np.bincount(group, minlength=n) > 0
            picked = mask.tolist()
            out[group] = self._serve_on(
                sid,
                "predict_many",
                int(np.count_nonzero(skipped)),
                int(skipped.sum()),
                compress(tenants, picked) if tenants is not None else (),
                name,
                rows[group],
                list(compress(keys, picked)) if keys is not None else None,
                deadline_ms,
                deadline_at,
            )
        return (out, shed) if on_shed == "null" else out

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Fleet ledger: routing/admission counters, per-shard health
        and load, per-tenant quota ledger, per-endpoint placement."""
        return {
            "ledger": self.ledger.as_dict(),
            "shards": {
                sid: {
                    "live": shard.live,
                    "epoch": shard.epoch,
                    "served": shard.served,
                    "endpoints": shard.server.stats(),
                }
                for sid, shard in sorted(self._shards.items())
            },
            "tenants": self.quotas.stats(),
            "endpoints": {
                name: {
                    "model": e.model_name,
                    "replicas": list(e.replicas),
                    "home": e.replicas[0],
                }
                for name, e in sorted(self._endpoints.items())
            },
        }

    def close(self) -> None:
        for shard in self._shards.values():
            shard.server.close()
