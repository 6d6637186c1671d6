"""Unit tests for repro.resilience and its wiring through the runtime.

The CI chaos leg runs this file with ``REPRO_CHAOS_SEED=7``; tests that
install chaos read the seed through
:func:`repro.resilience.chaos_seed_from_env` so one knob reseeds the
whole suite without changing its assertions (every property asserted
here holds for any seed).
"""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.algorithms import kmeans_dsl, logreg_gd
from repro.distributed import SimulatedCluster, train_parameter_server
from repro.errors import (
    CheckpointError,
    CorruptedBlockError,
    DeadlineExceededError,
    InjectedFault,
    ParallelTaskError,
    ReproError,
    ResilienceError,
    RetryExhaustedError,
    WorkerFailure,
)
from repro.ml.losses import LogisticLoss, SquaredLoss
from repro.ml.optim import iterate
from repro.obs import get_registry
from repro.resilience import (
    ChaosContext,
    FaultPlan,
    FaultSpec,
    IterativeCheckpointer,
    RetryPolicy,
    active_chaos,
    call_with_retry,
    chaos_seed_from_env,
    fault_point,
    no_chaos,
    resilient_call,
)
from repro.runtime.blocks import BlockedMatrix
from repro.runtime.bufferpool import BlockStore, BufferPool
from repro.runtime.outofcore import OutOfCoreLinearRegression
from repro.runtime.parallel import ParallelContext

SEED = chaos_seed_from_env()


def _synthetic(seed: int, site: str, **rule) -> FaultPlan:
    """A plan over a site only this file's own ``fault_point`` calls
    cross: built from the spec, since ``inject`` takes registered sites."""
    return FaultPlan(seed=seed, specs=[FaultSpec(site=site, **rule)])


def _no_sleep_policy(**kwargs) -> RetryPolicy:
    kwargs.setdefault("max_attempts", 8)
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("seed", SEED)
    return RetryPolicy(**kwargs)


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    w_true = rng.normal(size=6)
    y = (X @ w_true > 0).astype(np.float64)
    return X, y


# ----------------------------------------------------------------------
# Fault plans and chaos contexts
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ResilienceError):
            FaultSpec(site="s", rate=1.5)
        with pytest.raises(ResilienceError):
            FaultSpec(site="s", rate=0.5, mode="explode")
        with pytest.raises(ResilienceError):
            FaultSpec(site="s", rate=0.5, sleep_seconds=-1)
        with pytest.raises(ResilienceError):
            FaultSpec(site="s", rate=0.5, after=-1)

    def test_prefix_matching(self):
        spec = FaultSpec(site="cluster.*", rate=1.0)
        assert spec.matches("cluster.worker")
        assert spec.matches("cluster.gradient")
        assert not spec.matches("paramserver.push")
        exact = FaultSpec(site="cluster.worker", rate=1.0)
        assert exact.matches("cluster.worker")
        assert not exact.matches("cluster.worker.extra")

    def test_inject_is_chainable(self):
        plan = FaultPlan(seed=1).inject("cluster.worker", 0.1).inject(
            "parallel.task.*", 0.2
        )
        assert [s.site for s in plan.specs] == [
            "cluster.worker", "parallel.task.*",
        ]
        assert plan.specs_for("cluster.worker")[0].rate == 0.1

    @pytest.mark.parametrize(
        "typo", ["cluster.wroker", "serving.scores", "parallel.tas", "csr.*x", "s"]
    )
    def test_inject_refuses_a_site_no_row_matches(self, typo):
        with pytest.raises(ResilienceError, match="no registered fault site"):
            FaultPlan().inject(typo, 1.0)

    @pytest.mark.parametrize(
        "pattern", ["*", "cluster.*", "parallel.task.ovr", "parallel.*", "cla.matvec"]
    )
    def test_inject_accepts_names_prefixes_and_task_sites(self, pattern):
        assert FaultPlan().inject(pattern, 0.5).specs[0].site == pattern


class TestChaosContext:
    def test_same_seed_same_decisions(self):
        def decisions(seed):
            plan = _synthetic(seed, "site", rate=0.5)
            chaos = ChaosContext(plan)
            return [
                chaos.decide("site", key=k) is not None
                for k in range(20)
                for _ in range(3)
            ]

        assert decisions(SEED) == decisions(SEED)

    def test_different_seeds_differ(self):
        def decisions(seed):
            chaos = ChaosContext(_synthetic(seed, "s", rate=0.5))
            return [chaos.decide("s", key=k) is not None for k in range(64)]

        assert decisions(1) != decisions(2)

    def test_decisions_are_scheduling_independent(self):
        """Interleaving keys in any order yields the same per-key stream."""
        plan = _synthetic(SEED, "s", rate=0.5)
        forward = ChaosContext(plan)
        backward = ChaosContext(_synthetic(SEED, "s", rate=0.5))
        a = {k: [forward.decide("s", k) is not None for _ in range(4)]
             for k in range(10)}
        b = {k: [backward.decide("s", k) is not None for _ in range(4)]
             for k in reversed(range(10))}
        assert a == b

    def test_rate_zero_and_one(self):
        chaos = ChaosContext(_synthetic(0, "s", rate=0.0))
        assert all(chaos.decide("s", k) is None for k in range(50))
        chaos = ChaosContext(_synthetic(0, "s", rate=1.0))
        assert all(chaos.decide("s", k) is not None for k in range(50))

    def test_max_faults_cap(self):
        chaos = ChaosContext(
            _synthetic(0, "s", rate=1.0, max_faults=3)
        )
        fired = sum(chaos.decide("s", k) is not None for k in range(10))
        assert fired == 3
        assert chaos.total_injected == 3

    def test_after_skips_clean_prefix(self):
        chaos = ChaosContext(_synthetic(0, "s", rate=1.0, after=2))
        outcomes = [chaos.decide("s", key=0) is not None for _ in range(5)]
        assert outcomes == [False, False, True, True, True]

    def test_install_is_exclusive(self):
        plan = _synthetic(0, "s", rate=1.0)
        with ChaosContext(plan) as first:
            assert active_chaos() is first
            with pytest.raises(ResilienceError):
                ChaosContext(plan).__enter__()
        assert active_chaos() is None

    def test_fault_point_counts_in_registry(self):
        plan = _synthetic(0, "s", rate=1.0)
        with ChaosContext(plan):
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("s", key=9)
        assert excinfo.value.site == "s"
        assert excinfo.value.key == 9
        assert get_registry().value("resilience.faults_injected") == 1

    def test_no_chaos_masks_and_restores(self):
        plan = _synthetic(0, "s", rate=1.0)
        with ChaosContext(plan) as chaos:
            with no_chaos():
                assert active_chaos() is None
                assert fault_point("s") is None  # masked: clean path
            assert active_chaos() is chaos
            with pytest.raises(InjectedFault):
                fault_point("s")

    def test_sleep_mode_returns_marker(self):
        plan = _synthetic(0, "s", rate=1.0, mode="sleep", sleep_seconds=0.0
        )
        with ChaosContext(plan):
            assert fault_point("s") == "sleep"

    def test_corrupt_mode_returned_to_caller(self):
        plan = _synthetic(0, "s", rate=1.0, mode="corrupt")
        with ChaosContext(plan):
            assert fault_point("s") == "corrupt"

    def test_seed_from_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_SEED", "123")
        assert chaos_seed_from_env() == 123
        monkeypatch.setenv("REPRO_CHAOS_SEED", "")
        assert chaos_seed_from_env(default=9) == 9
        monkeypatch.setenv("REPRO_CHAOS_SEED", "nope")
        with pytest.raises(ResilienceError):
            chaos_seed_from_env()


# ----------------------------------------------------------------------
# Retry policies
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=2.0)

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base=0.01, backoff_multiplier=2.0, max_backoff=0.04,
            jitter=0.1, seed=SEED,
        )
        delays = [policy.delay(a, "site", key=3) for a in range(1, 6)]
        again = [policy.delay(a, "site", key=3) for a in range(1, 6)]
        assert delays == again
        for attempt, delay in enumerate(delays, start=1):
            base = min(0.01 * 2 ** (attempt - 1), 0.04)
            assert base * 0.9 <= delay <= base * 1.1
        # different keys jitter differently
        assert policy.delay(1, "site", key=3) != policy.delay(1, "site", key=4)

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise InjectedFault("s")
            return "done"

        policy = _no_sleep_policy(max_attempts=5)
        assert call_with_retry(flaky, policy, site="s") == "done"
        assert calls["n"] == 3
        assert get_registry().value("resilience.retries") == 2
        assert get_registry().value("resilience.recoveries") == 1

    def test_exhaustion_chains_last_cause(self):
        def always():
            raise InjectedFault("s", key=1)

        policy = _no_sleep_policy(max_attempts=3)
        with pytest.raises(RetryExhaustedError) as excinfo:
            call_with_retry(always, policy, site="s", key=1)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_non_retryable_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError):
            call_with_retry(broken, _no_sleep_policy(), site="s")
        assert calls["n"] == 1

    def test_resilient_call_without_policy_propagates(self):
        plan = _synthetic(0, "s", rate=1.0)
        with ChaosContext(plan):
            with pytest.raises(InjectedFault):
                resilient_call(lambda: 1, site="s")

    def test_resilient_call_with_policy_recovers(self):
        plan = _synthetic(SEED, "s", rate=0.5, max_faults=4)
        with ChaosContext(plan) as chaos:
            results = [
                resilient_call(
                    lambda: "ok", site="s", key=k, retry=_no_sleep_policy()
                )
                for k in range(10)
            ]
        assert results == ["ok"] * 10
        assert chaos.total_injected == 4

    def test_retries_stop_at_admission_deadline(self):
        """Backoff must never sleep past the request's absolute
        deadline: the caller sees DeadlineExceededError (chained to the
        transient fault), not a late RetryExhaustedError."""
        clock = {"now": 100.0}
        slept: list[float] = []

        def fake_sleep(seconds):
            slept.append(seconds)
            clock["now"] += seconds

        policy = RetryPolicy(
            max_attempts=10,
            backoff_base=0.4,
            backoff_multiplier=2.0,
            max_backoff=10.0,
            jitter=0.0,
            sleep=fake_sleep,
            clock=lambda: clock["now"],
        )

        def always():
            raise InjectedFault("s")

        with pytest.raises(DeadlineExceededError) as excinfo:
            call_with_retry(
                always, policy, site="s", deadline_at=clock["now"] + 1.0
            )
        # slept 0.4, then 0.8 would land at t=101.2 > deadline: abort
        # before sleeping, with ~0.6s of budget intentionally unused.
        assert slept == [0.4]
        assert clock["now"] < 101.0
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert (
            get_registry().value("resilience.retry_deadline_capped") == 1
        )

    def test_generous_deadline_still_recovers(self):
        clock = {"now": 0.0}
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                raise InjectedFault("s")
            return "done"

        policy = RetryPolicy(
            max_attempts=8,
            backoff_base=0.1,
            jitter=0.0,
            sleep=lambda s: clock.__setitem__("now", clock["now"] + s),
            clock=lambda: clock["now"],
        )
        result = call_with_retry(
            flaky, policy, site="s", deadline_at=clock["now"] + 60.0
        )
        assert result == "done"
        assert calls["n"] == 4

    def test_deadline_already_past_fails_on_first_fault(self):
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise InjectedFault("s")

        policy = _no_sleep_policy(clock=lambda: 50.0)
        with pytest.raises(DeadlineExceededError):
            call_with_retry(always, policy, site="s", deadline_at=10.0)
        assert calls["n"] == 1  # the first attempt always runs

    def test_no_deadline_keeps_legacy_exhaustion(self):
        def always():
            raise InjectedFault("s")

        with pytest.raises(RetryExhaustedError):
            call_with_retry(always, _no_sleep_policy(max_attempts=3), site="s")


# ----------------------------------------------------------------------
# Checkpointer
# ----------------------------------------------------------------------
class TestCheckpointer:
    def test_roundtrip_and_latest(self, tmp_path):
        ck = IterativeCheckpointer(tmp_path, name="job", keep=None)
        for step in (1, 2, 3):
            ck.save(step, {"w": np.arange(step), "step": step})
        assert ck.steps() == [1, 2, 3]
        step, state = ck.load_latest()
        assert step == 3 and state["step"] == 3
        assert np.array_equal(ck.load(2)["w"], np.arange(2))

    def test_pruning_keeps_newest(self, tmp_path):
        ck = IterativeCheckpointer(tmp_path, name="job", keep=2)
        for step in range(1, 6):
            ck.save(step, {"step": step})
        assert ck.steps() == [4, 5]

    def test_interval_policy(self, tmp_path):
        ck = IterativeCheckpointer(tmp_path, name="job", interval=3)
        assert [s for s in range(1, 10) if ck.should_checkpoint(s)] == [3, 6, 9]

    def test_corrupt_checkpoint_skipped(self, tmp_path):
        ck = IterativeCheckpointer(tmp_path, name="job", keep=None)
        ck.save(1, {"v": "good"})
        path = ck.save(2, {"v": "bad"})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte: checksum now fails
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            ck.load(2)
        step, state = ck.load_latest()
        assert (step, state["v"]) == (1, "good")
        assert get_registry().value("checkpoint.corrupt_skipped") == 1

    def test_truncated_checkpoint_detected(self, tmp_path):
        ck = IterativeCheckpointer(tmp_path, name="job")
        path = ck.save(1, {"v": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 4])
        with pytest.raises(CheckpointError, match="truncated"):
            ck.load(1)

    def test_schema_mismatch_rejected(self, tmp_path):
        ck = IterativeCheckpointer(tmp_path, name="job")
        path = ck.save(1, {"v": 1})
        payload = pickle.dumps({"v": 1})
        path.write_bytes(b'{"schema": "other/v9"}\n' + payload)
        with pytest.raises(CheckpointError, match="schema"):
            ck.load(1)

    def test_no_temp_files_left_behind(self, tmp_path):
        ck = IterativeCheckpointer(tmp_path, name="job")
        ck.save(1, {"v": np.zeros(100)})
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_validation(self, tmp_path):
        with pytest.raises(CheckpointError):
            IterativeCheckpointer(tmp_path, keep=0)
        with pytest.raises(CheckpointError):
            IterativeCheckpointer(tmp_path, interval=0)
        with pytest.raises(CheckpointError):
            IterativeCheckpointer(tmp_path, name="a/b")
        ck = IterativeCheckpointer(tmp_path)
        with pytest.raises(CheckpointError):
            ck.save(-1, {})
        with pytest.raises(CheckpointError):
            ck.save(1, "not a dict")
        with pytest.raises(CheckpointError):
            ck.load(42)

    def test_jobs_are_namespaced(self, tmp_path):
        a = IterativeCheckpointer(tmp_path, name="a")
        b = IterativeCheckpointer(tmp_path, name="b")
        a.save(1, {"who": "a"})
        b.save(5, {"who": "b"})
        assert a.load_latest()[1]["who"] == "a"
        assert b.load_latest()[1]["who"] == "b"
        assert a.steps() == [1] and b.steps() == [5]


# ----------------------------------------------------------------------
# pmap: retry, stragglers, fault injection
# ----------------------------------------------------------------------
class TestParallelResilience:
    def test_chaos_recovery_parallel_matches_serial(self):
        plan_seed = SEED
        results = {}
        for workers in (1, 4):
            get_registry().reset()
            plan = FaultPlan(seed=plan_seed).inject(
                "parallel.task.chaos", rate=0.3
            )
            ctx = ParallelContext(
                max_workers=workers,
                cost_threshold=0.0,
                retry_policy=_no_sleep_policy(),
            )
            try:
                with ChaosContext(plan) as chaos:
                    out = ctx.pmap(
                        lambda x: x * x, range(40), site="chaos"
                    )
                ledger = (
                    ctx.stats.task_failures,
                    ctx.stats.retries,
                    ctx.stats.recovered_tasks,
                )
                results[workers] = (out, chaos.total_injected, ledger)
                assert ctx.stats.task_failures > 0
                assert ctx.stats.recovered_tasks > 0
                # one ledger: the instance and the registry agree, and
                # the site's entry carries the same recovery counts
                assert ledger == tuple(
                    get_registry().value(f"parallel.{field}")
                    for field in ("task_failures", "retries", "recovered_tasks")
                )
                site = ctx.stats.by_site["chaos"]
                assert ledger == (
                    site.task_failures, site.retries, site.recovered_tasks
                )
            finally:
                ctx.shutdown()
        # same outputs, the same deterministic fault schedule and the
        # same recovery ledger whether the map ran serially or fanned
        # out over 4 workers
        assert results[1] == results[4]
        out, injected, (failures, retries, _) = results[4]
        assert out == [x * x for x in range(40)]
        assert injected > 0
        # every injected fault is one failed execution, each retried
        assert failures == retries == injected

    def test_non_retryable_failure_reports_one_attempt_on_both_paths(self):
        def boom(x):
            raise ValueError("deterministic")

        for workers in (1, 4):
            ctx = ParallelContext(
                max_workers=workers,
                cost_threshold=0.0,
                retry_policy=_no_sleep_policy(max_attempts=12),
            )
            try:
                with pytest.raises(ParallelTaskError) as excinfo:
                    ctx.pmap(boom, range(3), site="nonretry")
            finally:
                ctx.shutdown()
            # attempts == executions actually made, not the budget
            assert excinfo.value.attempts == 1
            assert isinstance(excinfo.value.__cause__, ValueError)
            assert ctx.stats.task_failures == 1
            assert ctx.stats.retries == 0

    def test_pool_lost_recovery_reaches_the_registry(self):
        ctx = ParallelContext(max_workers=4, cost_threshold=0.0)
        # shut the executor down while it is still attached: the window
        # between _pool() and submit that a concurrent shutdown can hit
        ctx._pool().shutdown(wait=True)
        try:
            out = ctx.pmap(lambda x: x + 1, range(5), site="lost")
        finally:
            ctx.shutdown()
        assert out == [x + 1 for x in range(5)]
        assert ctx.stats.recovered_tasks == 5
        assert get_registry().value("parallel.recovered_tasks") == 5
        assert get_registry().value("parallel.pool_lost_recoveries") == 1
        assert ctx.stats.serial_fallbacks == 1 and ctx.stats.parallel_calls == 0

    def test_retry_exhaustion_wraps_with_context(self):
        plan = FaultPlan(seed=0).inject("parallel.task.doomed", rate=1.0)
        ctx = ParallelContext(
            max_workers=2,
            cost_threshold=0.0,
            retry_policy=_no_sleep_policy(max_attempts=2),
        )
        try:
            with ChaosContext(plan):
                with pytest.raises(ParallelTaskError) as excinfo:
                    ctx.pmap(lambda x: x, [1, 2, 3], site="doomed")
        finally:
            ctx.shutdown()
        err = excinfo.value
        assert err.site == "doomed"
        assert err.attempts == 2
        assert isinstance(err.__cause__, InjectedFault)

    def test_straggler_timeout_recovers_deterministically(self):
        plan = FaultPlan(seed=0).inject(
            "parallel.task.slow", rate=1.0, mode="sleep",
            sleep_seconds=0.4, max_faults=2,
        )
        ctx = ParallelContext(
            max_workers=2, cost_threshold=0.0, task_timeout=0.1
        )
        try:
            with ChaosContext(plan):
                out = ctx.pmap(lambda x: x + 1, range(6), site="slow")
        finally:
            ctx.shutdown()
        assert out == [x + 1 for x in range(6)]
        # two tasks slept past the timeout; tasks queued behind a
        # sleeping worker may also be abandoned, so >= not ==
        assert ctx.stats.stragglers >= 2
        assert ctx.stats.recovered_tasks == ctx.stats.stragglers

    def test_per_call_retry_overrides_context(self):
        """Named for the per-call ``retry=`` it passed before the
        constructor's policy became the one place a retry is set; the
        behaviour checked is the same: one injected fault on a
        single-item (serial-path) call is retried away."""
        plan = FaultPlan(seed=0).inject("parallel.task.ovr", rate=1.0,
                                        max_faults=1)
        ctx = ParallelContext(
            max_workers=2, cost_threshold=0.0, retry_policy=_no_sleep_policy()
        )
        try:
            with ChaosContext(plan):
                out = ctx.pmap(lambda x: x, [7], site="ovr")
        finally:
            ctx.shutdown()
        assert out == [7]
        assert ctx.stats.recovered_tasks == 1


# ----------------------------------------------------------------------
# Cluster worker failure and lineage recovery
# ----------------------------------------------------------------------
class TestClusterResilience:
    @pytest.fixture
    def cluster_problem(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(240, 5))
        y = rng.normal(size=240)
        return X, y

    def test_killed_worker_recovers_bit_identical(self, cluster_problem):
        X, y = cluster_problem
        loss = SquaredLoss()
        w = np.zeros(X.shape[1])
        healthy = SimulatedCluster(X, y, num_workers=4)
        expected = healthy.global_gradient(loss, w)

        cluster = SimulatedCluster(X, y, num_workers=4)
        cluster.kill_worker(2)
        recovered = cluster.global_gradient(loss, w)
        assert np.array_equal(expected, recovered)
        assert cluster.comm.worker_failures == 1
        assert cluster.comm.lineage_recoveries == 1
        # recovery traffic is accounted on top of the healthy round
        assert cluster.comm.messages == healthy.comm.messages + 2
        assert cluster.comm.bytes_recovered == X.shape[1] * 8

    def test_injected_rpc_faults_recover_bit_identical(self, cluster_problem):
        X, y = cluster_problem
        loss = SquaredLoss()
        w = np.zeros(X.shape[1])
        expected = SimulatedCluster(X, y, num_workers=4).global_gradient(
            loss, w
        )
        plan = FaultPlan(seed=SEED).inject("cluster.worker", rate=0.6)
        cluster = SimulatedCluster(X, y, num_workers=4)
        with ChaosContext(plan) as chaos:
            got = cluster.global_gradient(loss, w)
        assert np.array_equal(expected, got)
        assert cluster.comm.worker_failures == chaos.injected_at(
            "cluster.worker"
        )

    def test_all_workers_dead_raises(self, cluster_problem):
        X, y = cluster_problem
        cluster = SimulatedCluster(X, y, num_workers=2)
        cluster.kill_worker(0)
        cluster.kill_worker(1)
        with pytest.raises(WorkerFailure):
            cluster.global_gradient(SquaredLoss(), np.zeros(X.shape[1]))

    def test_kill_unknown_worker_rejected(self, cluster_problem):
        X, y = cluster_problem
        cluster = SimulatedCluster(X, y, num_workers=2)
        with pytest.raises(ReproError):
            cluster.kill_worker(99)

    def test_ledger_deterministic_under_chaos(self, cluster_problem):
        X, y = cluster_problem
        loss = SquaredLoss()

        def run():
            plan = FaultPlan(seed=SEED).inject("cluster.worker", rate=0.5)
            cluster = SimulatedCluster(X, y, num_workers=4)
            with ChaosContext(plan):
                for _ in range(5):
                    cluster.global_gradient(loss, np.zeros(X.shape[1]))
            c = cluster.comm
            return (c.messages, c.worker_failures, c.lineage_recoveries,
                    c.bytes_recovered)

        assert run() == run()


# ----------------------------------------------------------------------
# Parameter server: stale reads, dropped pushes, dead workers
# ----------------------------------------------------------------------
class TestParameterServerResilience:
    @pytest.fixture
    def ps_problem(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 4))
        w_true = rng.normal(size=4)
        y = (X @ w_true > 0).astype(np.float64)
        return X, y

    def test_no_bound_applies_everything(self, ps_problem):
        X, y = ps_problem
        cluster = SimulatedCluster(X, y, num_workers=4)
        result = train_parameter_server(
            cluster, LogisticLoss(), total_updates=150, max_staleness=6,
            loss_every=75,
        )
        assert result.updates_applied == 150

    def test_dropped_pushes_tolerated(self, ps_problem):
        X, y = ps_problem
        plan = FaultPlan(seed=SEED).inject(
            "paramserver.push", rate=0.2
        ).inject("paramserver.pull", rate=0.1)
        cluster = SimulatedCluster(X, y, num_workers=4)
        with ChaosContext(plan):
            result = train_parameter_server(
                cluster, LogisticLoss(), total_updates=150, loss_every=75
            )
        assert result.dropped_pushes > 0
        assert result.failed_pulls > 0
        total = (
            result.updates_applied
            + result.dropped_pushes
            + result.failed_pulls
        )
        assert total == 150
        assert np.isfinite(result.final_loss)
        # loss still improved despite lost updates
        assert result.final_loss < result.loss_history[0]

    def test_dead_worker_rerouted_deterministically(self, ps_problem):
        X, y = ps_problem
        cluster = SimulatedCluster(X, y, num_workers=4)
        cluster.kill_worker(1)
        result = train_parameter_server(
            cluster, LogisticLoss(), total_updates=120, loss_every=60
        )
        assert result.worker_reassignments > 0
        assert result.updates_applied == 120
        dead = cluster.workers[1]
        assert dead.gradient_evaluations == 0

    def test_all_dead_raises(self, ps_problem):
        X, y = ps_problem
        cluster = SimulatedCluster(X, y, num_workers=2)
        cluster.kill_worker(0)
        cluster.kill_worker(1)
        with pytest.raises(WorkerFailure):
            train_parameter_server(
                cluster, LogisticLoss(), total_updates=10, loss_every=5
            )


# ----------------------------------------------------------------------
# Blockstore checksums and lineage repair
# ----------------------------------------------------------------------
class TestBlockstoreResilience:
    def test_corruption_detected_and_repaired_from_lineage(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(96, 4))
        store = BlockStore()
        blocked = BlockedMatrix.from_array(A, store, "A", block_rows=32)
        store.corrupt(blocked.block_id(0))
        out = blocked.to_array(BufferPool(store, A.nbytes * 2 + 1))
        assert np.array_equal(out, A)
        assert store.corruptions_detected == 1
        assert store.corruptions_repaired == 1
        assert get_registry().value("blockstore.corruptions_repaired") == 1

    def test_corruption_without_lineage_raises(self):
        store = BlockStore()
        store.write("orphan", np.ones((2, 2)))
        store.corrupt("orphan")
        with pytest.raises(CorruptedBlockError) as excinfo:
            store.read("orphan")
        assert excinfo.value.block_id == "orphan"

    def test_chaos_corrupt_mode_round_trips(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(64, 3))
        store = BlockStore()
        blocked = BlockedMatrix.from_array(A, store, "A", block_rows=16)
        plan = FaultPlan(seed=SEED).inject(
            "blockstore.read", rate=0.5, mode="corrupt"
        )
        with ChaosContext(plan) as chaos:
            out = blocked.to_array(BufferPool(store, A.nbytes * 2 + 1))
        assert np.array_equal(out, A)
        assert store.corruptions_repaired == chaos.injected_at(
            "blockstore.read"
        )

    def test_repaired_block_reads_clean_afterwards(self):
        store = BlockStore()
        data = np.arange(12.0).reshape(3, 4)
        store.write("b", data)
        store.register_lineage("b", lambda: data)
        store.corrupt("b")
        assert np.array_equal(store.read("b"), data)
        assert np.array_equal(store.read("b"), data)
        assert store.corruptions_detected == 1


# ----------------------------------------------------------------------
# Iterative drivers: kill/resume bit-identity and chaos parity
# ----------------------------------------------------------------------
def _kill_resume_logreg(max_iter, checkpointer):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    y = (X @ rng.normal(size=6) > 0).astype(np.float64)
    r = logreg_gd(X, y, max_iter=max_iter, tol=0.0, checkpointer=checkpointer)
    return r.weights, r.objective_history, r.iterations


def _kill_resume_outofcore(max_iter, checkpointer):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 5))
    y = X @ rng.normal(size=5) + 0.01 * rng.normal(size=300)
    model = OutOfCoreLinearRegression(
        epochs=max_iter, block_rows=64, checkpointer=checkpointer
    ).fit(X, y)
    return model.coef_, model.result_.loss_history, model.result_.epochs


def _kill_resume_bare_driver(max_iter, checkpointer):
    """The shared driver itself, on a toy contraction with a tally."""
    tally = {"steps": 0}

    def step(w):
        tally["steps"] += 1
        return 0.5 * w + 1.0, False

    w, iterations, _ = iterate(
        step, np.array([8.0, -3.0]), max_iter,
        checkpointer=checkpointer, tally=tally,
    )
    return w, iterations, tally["steps"]


class TestDriverCheckpointing:
    @pytest.mark.parametrize(
        "fit, total, killed_at, interval",
        [
            (_kill_resume_logreg, 20, 9, 4),
            (_kill_resume_outofcore, 15, 7, 4),
            (_kill_resume_bare_driver, 10, 5, 2),
        ],
    )
    def test_kill_resume_bit_identical(
        self, fit, total, killed_at, interval, tmp_path
    ):
        """Killed at k and resumed == never interrupted, for every
        provider of the one checkpointing driver."""
        baseline = fit(total, None)
        ck = IterativeCheckpointer(tmp_path, name="job", interval=interval)
        fit(killed_at, ck)  # "killed"
        assert ck.steps()[-1] == killed_at - killed_at % interval
        resumed = fit(total, ck)
        for uninterrupted, after_resume in zip(baseline, resumed):
            if isinstance(uninterrupted, np.ndarray):
                assert np.array_equal(uninterrupted, after_resume)
            else:
                assert uninterrupted == after_resume

    def test_logreg_resume_skips_completed_run(self, small_problem, tmp_path):
        X, y = small_problem
        ck = IterativeCheckpointer(tmp_path, name="lr", interval=1)
        first = logreg_gd(X, y, max_iter=10, checkpointer=ck)
        saves_before = get_registry().value("checkpoint.saves")
        again = logreg_gd(X, y, max_iter=10, checkpointer=ck)
        assert np.array_equal(first.weights, again.weights)
        # a converged/finished checkpoint means no recomputation
        if first.converged:
            assert get_registry().value("checkpoint.saves") == saves_before

    def test_logreg_chaos_parity(self, small_problem):
        X, y = small_problem
        baseline = logreg_gd(X, y, max_iter=15, tol=0.0)
        plan = FaultPlan(seed=SEED).inject("glm.logreg_gd.step", rate=0.25)
        with ChaosContext(plan) as chaos:
            chaotic = logreg_gd(
                X, y, max_iter=15, tol=0.0, retry=_no_sleep_policy()
            )
        assert np.array_equal(baseline.weights, chaotic.weights)
        assert baseline.objective_history == chaotic.objective_history
        assert chaos.invocations("glm.logreg_gd.step") >= 15

    def test_kmeans_chaos_parity(self, small_problem):
        X, _ = small_problem
        baseline = kmeans_dsl(X, 3, max_iter=10, tol=0.0, seed=3)
        plan = FaultPlan(seed=SEED).inject(
            "clustering.kmeans_dsl.step", rate=0.3
        )
        with ChaosContext(plan):
            chaotic = kmeans_dsl(
                X, 3, max_iter=10, tol=0.0, seed=3,
                retry=_no_sleep_policy(),
            )
        assert np.array_equal(baseline.centers, chaotic.centers)
        assert baseline.inertia == chaotic.inertia


# ----------------------------------------------------------------------
# Cross-thread safety of the chaos ledger
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_fault_points_keep_ledger_consistent(self):
        plan = _synthetic(SEED, "t.*", rate=0.5)
        with ChaosContext(plan) as chaos:
            errors = []

            def worker(site):
                for key in range(50):
                    try:
                        fault_point(site, key=key)
                    except InjectedFault:
                        pass
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(f"t.{i}",))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert chaos.total_invocations() == 4 * 50
            assert chaos.total_injected == sum(
                chaos.injected.values()
            )
