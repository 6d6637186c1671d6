"""The four workloads of the whole-loop benchmark.

Each workload builds every input from the seed, drives the public API
of ``repro`` from outside (no ``src/`` file is touched), and checks its
outputs against an oracle that shares no code path with the timed one.
A workload is a sequence of *units* — one client call, one churn round,
one training session — so the harness can run a warm-up slice, an
untraced reference slice and the timed region over one instance.

Sizes are fixed counts: data-structure sizes are the constants below,
and the number of units is ``UNITS_PER_SECOND * --seconds``, so two runs
with the same arguments do exactly the same operations and every count
repeats. The rates were chosen on the 2-CPU reference box so that the
timed region lasts about ``--seconds`` seconds there.

Why these four (the one-line reasons are in ``BENCHMARK.json``):

``serve_hot``
    Calls of 64 through a 4-shard x 2-replica fleet, 8 tenants with
    generous token buckets, entities drawn squared-uniform from 7 680 so
    each replica's 4 096-entry cache holds its slice. Cache hits, quota,
    fabric routing/grouping and online feature reads do the work;
    batcher and scorer almost none.
``serve_cold``
    Single-row calls, entities uniform over 262 144, no tenant. The
    same cache used the other way (hash, miss, put, evict: pure waste),
    batch-1 batcher + scorer and per-request server glue dominate. A
    cache or quota optimisation must predict no change here.
``loop_churn``
    Writes beside reads: each round mutates a grid-valued DynamicTable,
    drains both maintainers, retrains, passes the drift gate, promotes
    across the fleet (cold caches) and serves a burst whose rows feed
    the gate. Stream, maintainers, gate and registry do the work.
``train_mixed``
    One model-building session over every training provider (dense,
    CLA, CSR, normalized, in-DB UDA, factorized, out-of-core). The only
    workload where compiler, runtime, compression, factorized, indb and
    ml run at all; serving changes must not move it.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.algorithms import kmeans_dsl, logreg_gd
from repro.compiler import (
    compile_expr_cached,
    default_plan_cache,
    plan_representations,
)
from repro.compression import CompressedMatrix
from repro.data import (
    make_low_cardinality_matrix,
    make_sparse_matrix,
    make_star_schema,
)
from repro.errors import ReproError
from repro.factorized import (
    FactorizedLogisticRegression,
    NormalizedMatrix,
    factorized_kmeans,
)
from repro.features import (
    DriftGate,
    FeatureStore,
    FeatureView,
    FeatureViewMaintainer,
    OnlineFeatureServer,
)
from repro.incremental import (
    ContinuousTrainer,
    DynamicTable,
    IncrementalMaintainer,
    snap_to_grid,
)
from repro.indb import InDBLogisticRegression, train_kmeans_indb
from repro.lang import matrix, rowsums, sigmoid
from repro.lifecycle import ModelRegistry
from repro.ml import KMeans, LinearRegression, LogisticRegression
from repro.runtime import OutOfCoreLinearRegression, execute
from repro.runtime.repops import densify
from repro.serving import ShardedServer
from repro.serving.cache import feature_hash
from repro.serving.server import compile_linear_scorer
from repro.sparse import CSRMatrix
from repro.storage import Table

_clock = time.perf_counter

ENDPOINT = "score"
MODEL = "ridge"
SHARDS, REPLICAS = 4, 2
TENANTS = np.array([f"tenant-{i}" for i in range(8)], dtype=object)
#: token buckets no closed-loop client can drain: quota work, no sheds.
QUOTA_BURST = QUOTA_REFILL_PER_S = 1e9
CALL = 64  # rows per batched client call

PARITY_TOL = 1e-9


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per purpose, all derived from --seed."""
    return np.random.default_rng([seed, stream])


def _fleet(registry: ModelRegistry, seed: int, tenants=()) -> ShardedServer:
    fabric = ShardedServer(
        registry, num_shards=SHARDS, replication=REPLICAS, seed=seed
    )
    fabric.create_endpoint(ENDPOINT, MODEL)
    fabric.promote(ENDPOINT)
    for tenant in tenants:
        fabric.set_quota(tenant, QUOTA_BURST, QUOTA_REFILL_PER_S)
    return fabric


def _unique_hash_rows(rows: np.ndarray) -> np.ndarray:
    """Positions of ``rows`` keeping one row per ``feature_hash``."""
    hashes = np.fromiter(
        (feature_hash(row) for row in rows), dtype=np.int64, count=len(rows)
    )
    return np.sort(np.unique(hashes, return_index=True)[1])


def _endpoints(fabric: ShardedServer):
    for sid in fabric.replicas_of(ENDPOINT):
        yield fabric.shard(sid).server.endpoint(ENDPOINT)


def _serving_counts(fabric: ShardedServer, online: OnlineFeatureServer) -> dict:
    """Additive counters of the serving layers, read from their ledgers."""
    endpoints = list(_endpoints(fabric))
    caches = [e.cache.stats for e in endpoints]
    quota = list(fabric.quotas.ledger.values())
    registry = obs.get_registry()
    return {
        "features.online.serves": online.serves,
        "features.online.fallbacks": online.fallbacks,
        "serving.fabric.requests": fabric.ledger.requests,
        "serving.fabric.replica_hits": fabric.ledger.replica_hits,
        "serving.fabric.failovers": fabric.ledger.failovers,
        "serving.quota.admits": sum(c[0] for c in quota),
        "serving.quota.shed": sum(c[1] for c in quota),
        "serving.server.requests": sum(e.requests for e in endpoints),
        "serving.cache.hits": sum(c.hits for c in caches),
        "serving.cache.misses": sum(c.misses for c in caches),
        "serving.cache.evictions": sum(c.evictions for c in caches),
        "serving.cache.invalidated": sum(c.invalidations for c in caches),
        "serving.batcher.batches": sum(e.batcher.batches for e in endpoints),
        "serving.batcher.rows": sum(
            e.batcher.batched_requests for e in endpoints
        ),
        # the same requests as the obs registry saw them: the ledgers
        # are dual-written, and check() holds the two to each other.
        "obs.serving.requests": registry.value("serving.requests"),
        "obs.fabric.requests": registry.value("fabric.requests"),
    }


def _trace_serving(tracer, fabric, online, batched: bool) -> None:
    """Wrap the serving layers' boundaries on the live instances.

    Only the promote is a coarse span: a client call's two halves are
    already in its unit record, with their start and end.
    """
    tracer.wrap(online, "serve_many", "features.online.self_ms")
    tracer.wrap(
        fabric, "predict_many" if batched else "predict",
        "serving.fabric.self_ms",
    )
    tracer.wrap(fabric.quotas, "admit", "serving.quota.self_ms")
    tracer.wrap(fabric, "preference", "serving.ring.self_ms")
    tracer.wrap(fabric, "promote", "serving.fabric.promote_ms", True)
    for sid in fabric.replicas_of(ENDPOINT):
        server = fabric.shard(sid).server
        tracer.wrap(
            server, "predict_many" if batched else "predict",
            "serving.server.self_ms",
        )
        endpoint = server.endpoint(ENDPOINT)
        tracer.wrap(endpoint.cache, "get", "serving.cache.self_ms#get")
        tracer.wrap(endpoint.cache, "put", "serving.cache.self_ms#put")
        tracer.wrap(
            endpoint.cache, "invalidate", "serving.cache.self_ms#invalidate"
        )
        tracer.wrap(endpoint.batcher, "submit", "serving.batcher.self_ms")
        tracer.wrap(endpoint.batcher, "flush", "serving.batcher.self_ms")


class Verdict:
    """An oracle's findings: operations attempted, failed, and why."""

    def __init__(self, attempted: int = 0):
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        """A broken identity counts as one failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def mismatches(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} {what}")

    def ledgers_agree(self, ledger: dict, sent: int) -> None:
        """No shed, no failover, and the system's own request counts —
        local ledgers and the obs registry — equal the harness's. One
        latency sample per client call means something only then."""
        for key in ("serving.quota.shed", "serving.fabric.failovers"):
            self.require(not ledger[key], f"{key} = {ledger[key]}, expected 0")
        for key in (
            "serving.fabric.requests", "serving.server.requests",
            "obs.serving.requests", "obs.fabric.requests",
        ):
            self.require(
                ledger[key] == sent,
                f"{key} = {ledger[key]}, harness sent {sent}",
            )


class Workload:
    """What the harness needs from a workload.

    ``latencies`` holds the end-to-end latency samples (one per client
    operation, seconds); ``call_latencies`` the client-call samples of
    the serving path (the same list where the two coincide).
    """

    name: str
    units_per_second: float
    #: units run (and discarded) before anything is timed
    warm_units: int
    #: what one latency sample / one unit of throughput is, for reports
    latency_of: str
    throughput_of: str
    #: units one record of the traced run covers
    units_per_record = 1
    #: wall of the first, cold unit where a workload has one to report
    first_pass_s = 0.0

    def __init__(self, seed: int, units: int, out_dir: Path):
        self.seed = seed
        self.units = units
        self.out_dir = out_dir
        self.latencies: list[float] = []
        self.call_latencies = self.latencies
        self.sent = 0  # requests handed to the fleet
        self.raised: list[str] = []  # errors the units swallowed
        self.materialize_ms = 0.0

    def unit(self, i: int) -> None:
        raise NotImplementedError

    def counts(self) -> dict:
        """Additive counters; the harness reports their movement over
        the timed region."""
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        raise NotImplementedError

    def check(self, first: int, last: int) -> Verdict:
        """Oracle over units ``[first, last)`` plus whole-run ledger
        identities. Runs after every unit has run, outside the timed
        region."""
        raise NotImplementedError

    def work(self, first: int, last: int) -> float:
        """Throughput numerator over units ``[first, last)``, were every
        operation to pass the oracle."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve_hot / serve_cold
# ----------------------------------------------------------------------
class _Serve(Workload):
    """Feature fetch + fleet prediction for a stream of entity ids."""

    entities: int
    call_size: int
    features = 16
    latency_of = "one client call (entity ids in, predictions out)"
    throughput_of = "requests answered correctly"

    def __init__(self, seed, units, out_dir):
        super().__init__(seed, units, out_dir)
        rng = _rng(seed, 1)
        n, f = self.entities, self.features
        raw = rng.normal(size=(n, f))
        table = Table.from_columns(
            {"entity": np.arange(n)} | {f"x{j}": raw[:, j] for j in range(f)}
        )
        # Every fourth feature is derived, so the view is not a no-op.
        builders = {}
        for j in range(f):
            if j % 4 == 3:
                builders[f"f{j}"] = lambda c, j=j: c[f"x{j}"] * c[f"x{j - 1}"]
            else:
                builders[f"f{j}"] = lambda c, j=j: c[f"x{j}"]
        view = FeatureView("entities", "entity", builders)
        start = _clock()
        self.offline = FeatureStore().materialize(view, table)
        self.materialize_ms = (_clock() - start) * 1e3
        self.online = OnlineFeatureServer(view, self.offline, table)
        X = self.offline.matrix()
        target = X @ rng.normal(size=f) + 1.0 + 0.1 * rng.normal(size=n)
        self.model = LinearRegression(solver="normal").fit(X, target)
        self.registry = ModelRegistry()
        self.registry.register(
            MODEL, self.model, feature_fingerprint=view.version
        )
        self.fabric = _fleet(
            self.registry, seed, TENANTS if self.call_size > 1 else ()
        )
        # The prediction cache keys a row by the CRC32 of its bytes, so
        # two entities whose rows collide would be served each other's
        # answer. Requests draw from a pool with one entity per hash
        # (see README.md, "What the first capture shows").
        self.pool = _unique_hash_rows(X)
        self.ids = self.pool[self._draw(_rng(seed, 2), units, len(self.pool))]
        self.out = np.full(units * self.call_size, np.nan)

    def _draw(self, rng, units: int, pool: int) -> np.ndarray:
        """(units, call_size) positions in the entity pool."""
        raise NotImplementedError

    def counts(self):
        return _serving_counts(self.fabric, self.online)

    def instrument(self, tracer):
        _trace_serving(tracer, self.fabric, self.online, self.call_size > 1)

    def check(self, first, last):
        lo, hi = first * self.call_size, last * self.call_size
        verdict = Verdict(attempted=hi - lo)
        # one vectorised scoring pass over every entity's offline row
        expected = compile_linear_scorer(self.model)(self.offline.matrix())
        wanted = expected[self.ids[first:last].ravel()]
        # NaN (a call that raised) never equals its expected value.
        verdict.mismatches(
            int(np.count_nonzero(self.out[lo:hi] != wanted)),
            "answers differ from the oracle",
        )
        verdict.ledgers_agree(self.counts(), self.sent)
        return verdict

    def work(self, first, last):
        return (last - first) * self.call_size

    def close(self):
        self.fabric.close()


class ServeHot(_Serve):
    name = "serve_hot"
    #: 2 x 3840 on average: the CRC32 split of keys over the two
    #: replicas is binomial (sd 44), and a replica pushed past its 4096
    #: entries would evict, and miss, for as long as the run lasts
    entities = 7680
    call_size = CALL
    units_per_second = 1200.0
    warm_units = 400

    def _draw(self, rng, units, pool):
        # squared-uniform: a hot head and a long tail
        return (rng.random((units, CALL)) ** 2 * pool).astype(np.int64)

    def unit(self, i):
        ids = self.ids[i]
        keys = ids.tolist()
        tenants = TENANTS[ids & 7].tolist()
        self.sent += CALL
        start = _clock()
        try:
            rows = self.online.serve_many(keys)
            answers = self.fabric.predict_many(
                ENDPOINT, rows, keys=keys, tenants=tenants
            )
        except ReproError as exc:
            self.raised.append(repr(exc))
            answers = np.nan
        self.latencies.append(_clock() - start)
        self.out[i * CALL:(i + 1) * CALL] = answers


class ServeCold(_Serve):
    name = "serve_cold"
    entities = 262_144
    call_size = 1
    units_per_record = CALL  # a record covers 64 requests, as elsewhere
    units_per_second = 13_000.0
    warm_units = 2000

    def _draw(self, rng, units, pool):
        return rng.integers(0, pool, size=(units, 1))

    def unit(self, i):
        key = int(self.ids[i, 0])
        self.sent += 1
        start = _clock()
        try:
            row = self.online.serve_many([key])[0]
            answer = self.fabric.predict(ENDPOINT, row, key=key)
        except ReproError as exc:
            self.raised.append(repr(exc))
            answer = np.nan
        self.latencies.append(_clock() - start)
        self.out[i] = answer


# ----------------------------------------------------------------------
# loop_churn
# ----------------------------------------------------------------------
class LoopChurn(Workload):
    """Mutate -> drain -> retrain -> gate -> promote -> serve, per round."""

    name = "loop_churn"
    units_per_second = 11.0
    warm_units = 4
    latency_of = (
        "freshness: last mutation returned -> first call answered by the "
        "newly promoted model over refreshed features"
    )
    throughput_of = "delta rows committed and reflected in the served model"

    rows = 65_536
    d = 8
    inserts = deletes = rows // 100
    updates = rows // 200
    burst_calls = 4
    requests_per_unit = burst_calls * CALL
    l2 = 1.0
    save_every = 25
    #: the gate may not judge drift on less than this many served rows;
    #: the warm-up rounds supply them.
    gate_min_observations = warm_units * burst_calls * CALL

    def __init__(self, seed, units, out_dir):
        super().__init__(seed, units, out_dir)
        self.call_latencies = []
        rng = _rng(seed, 1)
        d = self.d
        self.columns = [f"x{j}" for j in range(d)]
        w_true = rng.normal(size=d)

        def draw(count):
            X = snap_to_grid(rng.normal(size=(count, d)))
            y = snap_to_grid(X @ w_true + 0.5 * rng.normal(size=count))
            return X, y

        def table_of(entities, X, y):
            return Table.from_columns(
                {"entity": entities}
                | {c: X[:, j] for j, c in enumerate(self.columns)}
                | {"y": y}
            )

        # The generator keeps its own picture of the data: what every
        # entity's feature row is, and which entities are alive.
        capacity = self.rows + units * self.inserts
        truth = np.zeros((capacity, d + 2))
        alive = np.zeros(capacity, dtype=bool)

        def remember(entities, X):
            truth[entities, :d] = X
            truth[entities, d] = X[:, 0] * X[:, 1]
            truth[entities, d + 1] = X[:, 2] + X[:, 3]

        X0, y0 = draw(self.rows)
        first = np.arange(self.rows)
        remember(first, X0)
        alive[first] = True
        base = table_of(first, X0, y0)

        self.rounds = []
        next_entity = self.rows
        burst = self.burst_calls * CALL
        self.expected_rows = np.empty((units, burst, d + 2))
        self.burst_ids = np.empty((units, burst), dtype=np.int64)
        for r in range(units):
            new = np.arange(next_entity, next_entity + self.inserts)
            next_entity += self.inserts
            X, y = draw(self.inserts)
            remember(new, X)
            alive[new] = True
            inserted = table_of(new, X, y)
            doomed = rng.choice(
                np.flatnonzero(alive), size=self.deletes, replace=False
            )
            alive[doomed] = False
            victims = rng.choice(
                np.flatnonzero(alive), size=self.updates, replace=False
            )
            X, y = draw(self.updates)
            remember(victims, X)
            self.rounds.append(
                (inserted, doomed.tolist(), victims.tolist(),
                 table_of(victims, X, y))
            )
            # a burst's rows share the just-invalidated caches: keep
            # one entity per row hash among the candidates (see _Serve)
            living = np.flatnonzero(alive)
            candidates = living[rng.choice(len(living), size=2 * burst)]
            distinct = candidates[_unique_hash_rows(truth[candidates])]
            self.burst_ids[r] = distinct[:burst]
            self.expected_rows[r] = truth[self.burst_ids[r]]

        # Row ids are handed out in insertion order, so they coincide
        # with the entity ids drawn above.
        self.dyn = DynamicTable.from_table(base, "events")
        self.model_stream = self.dyn.subscribe()
        self.view_stream = self.dyn.subscribe()
        features = {c: (lambda cols, c=c: cols[c]) for c in self.columns}
        features["m0"] = lambda cols: cols.x0 * cols.x1
        features["m1"] = lambda cols: cols.x2 + cols.x3
        self.view = FeatureView("events", "entity", features)
        self.maintainer = IncrementalMaintainer(
            self.dyn, self.model_stream, self.columns, "y"
        )
        self.view_maintainer = FeatureViewMaintainer(
            self.view, self.dyn, self.view_stream
        )
        # Train-time materialization, then the gate re-reads the same
        # bytes as its reference: one store miss, one store hit.
        self.feature_store = FeatureStore()
        start = _clock()
        self.feature_store.materialize(self.view, base)
        self.materialize_ms = (_clock() - start) * 1e3
        reference = self.feature_store.materialize(self.view, base)
        self.gate = DriftGate(
            self.view, reference,
            min_observations=self.gate_min_observations,
        )
        self.online = OnlineFeatureServer(self.view, self.view_maintainer)

        self.registry = ModelRegistry()
        initial = LinearRegression(
            solver="normal", l2=self.l2, fit_intercept=False
        )
        initial.coef_ = self.maintainer.gram_state.solve_ridge(self.l2)
        initial.intercept_ = 0.0
        self.registry.register(MODEL, initial)
        self.fabric = _fleet(self.registry, seed, TENANTS)
        self.fabric.set_promotion_gate(ENDPOINT, self.gate)
        self.trainer = ContinuousTrainer(
            self.maintainer, self.registry, MODEL, l2=self.l2,
            server=self.fabric, endpoint=ENDPOINT,
        )
        self.registry_path = out_dir / f"registry-{seed}.json"
        self.registry_path.unlink(missing_ok=True)  # a killed run's
        self.out = np.full((units, burst), np.nan)
        self.served_rows = np.full((units, burst, d + 2), np.nan)
        self.versions = np.zeros(units, dtype=np.int64)
        self.mutated_rows = 0
        self.saves = 0

    def unit(self, r):
        inserted, doomed, victims, updated = self.rounds[r]
        try:
            self.dyn.insert(inserted)
            self.dyn.delete(doomed)
            self.dyn.update(victims, updated)
            committed = _clock()
            self.mutated_rows += self.inserts + self.deletes + self.updates
            self.view_maintainer.drain()
            self.versions[r] = self.trainer.step().version
            for c in range(self.burst_calls):
                span = slice(c * CALL, (c + 1) * CALL)
                ids = self.burst_ids[r, span]
                keys = ids.tolist()
                tenants = TENANTS[ids & 7].tolist()
                self.sent += CALL
                start = _clock()
                rows = self.online.serve_many(keys)
                answers = self.fabric.predict_many(
                    ENDPOINT, rows, keys=keys, tenants=tenants
                )
                end = _clock()
                if c == 0:
                    self.latencies.append(end - committed)
                self.call_latencies.append(end - start)
                self.out[r, span] = answers
                self.served_rows[r, span] = rows
                # after the clock: monitoring is not on the reply path
                self.gate.observe_many(rows)
            if (r + 1) % self.save_every == 0:
                self.registry.save(self.registry_path)
                self.saves += 1
        except ReproError as exc:
            self.raised.append(repr(exc))

    def counts(self):
        view, model = self.view_maintainer.stats, self.maintainer.stats
        gate = self.gate.ledger()
        store = self.feature_store.store
        return _serving_counts(self.fabric, self.online) | {
            "incremental.stream.mutations": self.dyn.version,
            "incremental.stream.rows": self.mutated_rows,
            "features.store.deltas": view.deltas_applied,
            "features.store.rows_folded": view.rows_folded,
            "features.store.recomputes": view.recomputes,
            "incremental.maintainer.deltas": model.deltas_applied,
            "incremental.maintainer.rows_folded": model.rows_folded,
            "incremental.maintainer.recomputes": model.recomputes,
            "incremental.trainer.refreshes": self.trainer.refreshes,
            "lifecycle.registry.registers": len(self.registry.versions(MODEL)),
            "lifecycle.registry.saves": self.saves,
            "lifecycle.registry.saved_bytes": (
                self.registry_path.stat().st_size
                if self.registry_path.exists() else 0
            ),
            "features.gate.observations": gate["observations"],
            "features.gate.holds": gate["holds"],
            "features.gate.promotes": gate["promotes"],
            "materialize.store.hits": store.hits,
            "materialize.store.misses": store.misses,
        }

    def instrument(self, tracer):
        _trace_serving(tracer, self.fabric, self.online, True)
        for attr in ("insert", "delete", "update"):
            tracer.wrap(self.dyn, attr, "incremental.stream.mutate_ms", True)
        for obj, attr, key in (
            (self.view_maintainer, "drain", "features.store.drain_ms"),
            (self.maintainer, "drain", "incremental.maintainer.drain_ms"),
            (self.trainer, "refresh", "incremental.trainer.refresh_ms"),
            (self.registry, "register", "lifecycle.registry.register_ms"),
            (self.registry, "save", "lifecycle.registry.save_ms"),
            (self.gate, "observe_many", "features.gate.observe_ms"),
            (self.gate, "authorize", "features.gate.authorize_ms"),
        ):
            tracer.wrap(obj, attr, key, True)
        tracer.wrap(self.view, "compute_columns", "features.view.compute_ms")

    def check(self, first, last):
        rounds = last - first
        # per round: its requests, three mutations and one promotion
        verdict = Verdict(attempted=rounds * (self.requests_per_unit + 4))
        for message in self.raised:
            verdict.require(False, f"raised: {message}")
        done = int(np.count_nonzero(self.versions))
        # every answer: the round's registered model over the rows the
        # generator says those entities had at that moment
        wrong = 0
        for r in range(first, last):
            if not self.versions[r]:
                wrong += self.requests_per_unit
                continue
            model = self.registry.get(MODEL, int(self.versions[r])).model
            wanted = compile_linear_scorer(model)(self.expected_rows[r])
            stale = (self.served_rows[r] != self.expected_rows[r]).any(axis=1)
            wrong += int(np.count_nonzero((self.out[r] != wanted) | stale))
        verdict.mismatches(wrong, "served rows or answers differ")
        # every round promoted a fresh version, in order, with no hold
        verdict.require(
            np.array_equal(self.versions[:done], np.arange(done) + 2),
            "promoted versions are not 2, 3, 4, ...",
        )
        gate = self.gate.ledger()
        verdict.require(gate["promotes"] == done, "gate.promotes != rounds")
        verdict.require(gate["holds"] == 0, f"gate held {gate['holds']}")
        deployed = self.registry.deployed(MODEL)
        verdict.require(
            deployed.version == done + 1,
            "the deployed version is not the last one trained",
        )
        # the maintained model is bitwise the dumb snapshot refit
        snapshot = self.dyn.snapshot()
        refit = LinearRegression(
            solver="normal", l2=self.l2, fit_intercept=False
        ).fit(
            snapshot.to_matrix(self.columns),
            snapshot.column("y").astype(np.float64),
        )
        verdict.require(
            np.array_equal(refit.coef_, deployed.model.coef_),
            "final weights differ from the snapshot refit",
        )
        for consumer, stream, label in (
            (self.view_maintainer, self.view_stream, "features.store"),
            (self.maintainer, self.model_stream, "incremental.maintainer"),
        ):
            verdict.require(
                consumer.stats.deltas_applied == stream.published,
                f"{label}: deltas_applied != published",
            )
            verdict.require(
                consumer.stats.recomputes == 0, f"{label}: recomputed"
            )
        try:
            self.view_maintainer.parity_check()
            self.maintainer.checkpoint_parity()
        except ReproError as exc:
            verdict.require(False, f"parity: {exc}")
        verdict.ledgers_agree(self.counts(), self.sent)
        return verdict

    def work(self, first, last):
        # a delta row counts once the served model reflects it
        reflected = int(np.count_nonzero(self.versions[first:last]))
        return reflected * (self.inserts + self.deletes + self.updates)

    def close(self):
        self.fabric.close()
        self.registry_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# train_mixed
# ----------------------------------------------------------------------
#: obs span name prefix -> the per-layer metric its time belongs to
_OBS_LAYERS = {
    "executor": "runtime.executor.execute_ms",
    "compression": "compression.compress_ms",
    "indb": "indb.uda_ms",
}


def _absorb_obs_spans(tracer) -> None:
    """Move the ``repro.obs`` root spans finished since the last call
    into the tracer, under the open harness span. Roots only: a root's
    children (``executor.op`` under ``executor.execute``) belong to the
    same layer."""
    for root in obs.span_roots():
        layer = _OBS_LAYERS.get(root.name.split(".")[0])
        if layer is not None:
            tracer.absorb(layer, 1, int(root.duration * 1e9))
    obs.reset_trace()


class TrainMixed(Workload):
    """One model-building session: every provider fits once."""

    name = "train_mixed"
    units_per_second = 2.2
    warm_units = 1  # the cold pass: empty plan cache, first compiles
    latency_of = "one model-building session (every provider fits once)"
    throughput_of = "model fits completed and in parity"

    gd_iters = 10
    km_iters = 8
    clusters = 4
    #: fits whose compact operand has a dense twin: (fit, twin)
    parity_pairs = (
        ("algorithms.logreg_cla_ms", "algorithms.logreg_dense_ms"),
        ("algorithms.logreg_csr_ms", "check.logreg_csr_dense"),
        ("algorithms.logreg_factorized_ms", "check.logreg_joined"),
        ("algorithms.kmeans_cla_ms", "check.kmeans_dense"),
        ("algorithms.kmeans_factorized_ms", "check.kmeans_joined"),
        ("factorized.kmeans_ms", "check.kmeans_joined"),
    )

    def __init__(self, seed, units, out_dir):
        super().__init__(seed, units, out_dir)
        rng = _rng(seed, 1)
        # E19's quick shapes: one operand per compact representation.
        self.low = make_low_cardinality_matrix(
            12_000, 12, cardinality=8, seed=seed + 1
        )
        margin = self.low @ rng.normal(size=12)
        self.low_y = (
            margin + rng.normal(size=len(margin)) > np.median(margin)
        ).astype(np.float64)
        self.low_target = margin + 0.1 * rng.normal(size=len(margin))
        self.sparse = make_sparse_matrix(
            20_000, 40, density=0.01, seed=seed + 2
        )
        self.sparse_y = rng.integers(0, 2, size=20_000).astype(np.float64)
        self.star = make_star_schema(
            n_s=20_000, n_r=800, d_s=4, d_r=100,
            task="classification", seed=seed + 3,
        )
        self.star_y = np.asarray(self.star.y, dtype=np.float64)
        self.km = make_low_cardinality_matrix(
            6_000, 10, cardinality=6, seed=seed + 4
        )
        # The in-DB providers fold one row per Python call; a quarter of
        # the rows keeps them from being two thirds of every session.
        self.low_columns = [f"x{j}" for j in range(12)]
        self.low_table = Table.from_columns(
            {c: self.low[:3000, j] for j, c in enumerate(self.low_columns)}
            | {"y": self.low_y[:3000]}
        )
        self.km_columns = [f"x{j}" for j in range(10)]
        self.km_table = Table.from_columns(
            {c: self.km[:1500, j] for j, c in enumerate(self.km_columns)}
        )
        default_plan_cache.clear()
        self.tracer = None
        self.results: list[dict] = []  # per pass: step key -> fitted output
        self.fits_per_unit = 0

    def _session(self):
        """The session's steps in order: (metric key, is a fit, thunk).

        A thunk's return value is what parity compares; conversions
        (compression, CSR) happen inside the pass, as their own steps.
        """
        gd, km, k = self.gd_iters, self.km_iters, self.clusters
        made = {}
        nm = NormalizedMatrix(self.star.S, [self.star.fk], [self.star.R])

        def keep(name, value):
            made[name] = value
            return None

        def gd_weights(X, y):
            return logreg_gd(X, y, max_iter=gd, tol=0.0).weights

        def dsl_inertia(X):
            return kmeans_dsl(X, k, max_iter=km, tol=0.0, seed=5).inertia

        return made, (
            ("ml.logreg_ms", True, lambda: LogisticRegression(
                max_iter=gd, tol=0.0).fit(self.low, self.low_y).coef_),
            ("algorithms.logreg_dense_ms", True,
             lambda: gd_weights(self.low, self.low_y)),
            ("compression.compress_ms", False, lambda: keep(
                "cla", CompressedMatrix.compress(self.low))),
            ("algorithms.logreg_cla_ms", True,
             lambda: gd_weights(made["cla"], self.low_y)),
            ("sparse.convert_ms", False, lambda: keep(
                "csr", CSRMatrix.from_dense(self.sparse))),
            ("algorithms.logreg_csr_ms", True,
             lambda: gd_weights(made["csr"], self.sparse_y)),
            ("algorithms.logreg_factorized_ms", True,
             lambda: gd_weights(nm, self.star_y)),
            ("indb.logreg_ms", True, lambda: InDBLogisticRegression(
                epochs=2).fit(self.low_table, self.low_columns, "y").coef_),
            ("factorized.logreg_ms", True,
             lambda: FactorizedLogisticRegression(
                 max_iter=gd, tol=0.0).fit(nm, self.star_y).coef_),
            ("ml.kmeans_ms", True, lambda: KMeans(
                n_clusters=k, n_init=1, max_iter=km, seed=5
            ).fit(self.km).inertia_),
            ("compression.compress_ms", False, lambda: keep(
                "km_cla", CompressedMatrix.compress(self.km))),
            ("algorithms.kmeans_cla_ms", True,
             lambda: dsl_inertia(made["km_cla"])),
            ("algorithms.kmeans_factorized_ms", True,
             lambda: dsl_inertia(nm)),
            ("factorized.kmeans_ms", True, lambda: factorized_kmeans(
                nm, k, max_iter=km, tol=0.0, seed=5).inertia),
            ("indb.kmeans_ms", True, lambda: train_kmeans_indb(
                self.km_table, self.km_columns, k,
                max_iter=km, tol=0.0, seed=5).inertia),
            # the pool holds the whole operand: after the first scan
            # every block read is a hit, which a pool change would move
            ("runtime.outofcore.fit_ms", True,
             lambda: OutOfCoreLinearRegression(
                 epochs=gd, tol=0.0, block_rows=1024,
                 memory_budget_bytes=self.low.nbytes,
             ).fit(self.low, self.low_target).coef_),
        )

    def _step(self, key, fn):
        tracer = self.tracer
        if tracer is None:
            return fn()
        with tracer.span(key):
            out = fn()
            _absorb_obs_spans(tracer)
        return out

    def unit(self, i):
        out = {}
        start = _clock()
        try:
            made, steps = self._session()
            for key, fit, fn in steps:
                value = self._step(key, fn)
                if fit:
                    out[key] = value
            out["densified"] = self._plan_probe(made["cla"], made["km_cla"])
        except ReproError as exc:
            self.raised.append(repr(exc))
        self.latencies.append(_clock() - start)
        if i == 0:
            self.first_pass_s = self.latencies[0]
            self.fits_per_unit = len(out) - 1  # all but the probe's count
        self.results.append(out)

    def _plan_probe(self, cla, km_cla):
        """Compile E19's two loop plans through the plan cache, plan
        their representations, and execute each once with its ledger on
        — the compiler-side work a session does around its fits.
        Returns how many operators densified a compact operand."""
        n, d = cla.shape
        Xm, wm, ym = matrix("X", (n, d)), matrix("w", (d, 1)), matrix("y", (n, 1))
        kn, kd = km_cla.shape
        Km, Cm = matrix("X", (kn, kd)), matrix("C", (self.clusters, kd))
        exprs = (
            Xm.T @ (sigmoid(Xm @ wm) - ym) / n,
            rowsums(Km**2) - 2.0 * (Km @ Cm.T) + rowsums(Cm**2).T,
        )
        compact = (
            {"X": cla, "w": np.zeros((d, 1)), "y": self.low_y.reshape(-1, 1)},
            {"X": km_cla, "C": self.km[:self.clusters]},
        )
        dense = (compact[0] | {"X": self.low}, compact[1] | {"X": self.km})
        plans = self._step(
            "compiler.compile_ms",
            lambda: [compile_expr_cached(e) for e in exprs],
        )
        self._step(
            "compiler.reprplan_ms",
            lambda: [plan_representations(p, b) for p, b in zip(plans, dense)],
        )
        stats = self._step(
            "runtime.executor.execute_ms",
            lambda: [
                execute(p, b, collect_stats=True)[1]
                for p, b in zip(plans, compact)
            ],
        )
        return sum(s.fallback_count for s in stats)

    def counts(self):
        value = obs.get_registry().value
        return {
            "compiler.plancache.hits": value("plancache.hits"),
            "compiler.plancache.misses": value("plancache.misses"),
            "runtime.executor.ops": value("executor.ops"),
            "runtime.executor.densify_fallbacks": value(
                "executor.densify_fallbacks"
            ),
            "runtime.executor.intermediate_bytes": value(
                "executor.intermediate_bytes"
            ),
            "runtime.bufferpool.hits": value("bufferpool.hits"),
            "runtime.bufferpool.misses": value("bufferpool.misses"),
            "compression.dense_bytes": value("compression.dense_bytes"),
            "compression.compressed_bytes": value(
                "compression.compressed_bytes"
            ),
        }

    def instrument(self, tracer):
        self.tracer = tracer
        obs.reset_trace()
        obs.set_tracing(True)

    def check(self, first, last):
        gd, km, k = self.gd_iters, self.km_iters, self.clusters
        verdict = Verdict(attempted=(last - first) * self.fits_per_unit)
        for message in self.raised:
            verdict.require(False, f"raised: {message}")
        joined = densify(
            NormalizedMatrix(self.star.S, [self.star.fk], [self.star.R])
        )
        # E19's parity: a loop over a compact operand ends where the
        # same loop over its densified twin ends.
        twins = {
            "check.logreg_csr_dense": logreg_gd(
                self.sparse, self.sparse_y, max_iter=gd, tol=0.0).weights,
            "check.logreg_joined": logreg_gd(
                joined, self.star_y, max_iter=gd, tol=0.0).weights,
            "check.kmeans_dense": kmeans_dsl(
                self.km, k, max_iter=km, tol=0.0, seed=5).inertia,
            "check.kmeans_joined": kmeans_dsl(
                joined, k, max_iter=km, tol=0.0, seed=5).inertia,
        }
        cold = self.results[0]
        for out in self.results[first:last]:
            for fit, twin in self.parity_pairs:
                expected = twins.get(twin, out.get(twin))
                got = out.get(fit)
                scale = max(1.0, float(np.max(np.abs(expected))))
                verdict.require(
                    got is not None
                    and np.max(np.abs(got - expected)) / scale <= PARITY_TOL,
                    f"{fit}: off its dense twin by more than {PARITY_TOL}",
                )
            # every fit is deterministic: a pass must repeat the cold one
            for fit, value in cold.items():
                verdict.require(
                    np.array_equal(out.get(fit), value),
                    f"{fit}: differs between passes",
                )
            verdict.require(
                out.get("densified") == 0, "the plan probe densified"
            )
        fallbacks = self.counts()["runtime.executor.densify_fallbacks"]
        verdict.require(
            not fallbacks, f"executor densified {fallbacks} operands"
        )
        verdict.problems = sorted(set(verdict.problems))
        return verdict

    def work(self, first, last):
        return (last - first) * self.fits_per_unit

    def close(self):
        obs.set_tracing(None)
        obs.reset_trace()


WORKLOADS = {
    w.name: w for w in (ServeHot, ServeCold, LoopChurn, TrainMixed)
}
