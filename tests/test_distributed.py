"""Unit tests for the simulated distributed execution layer."""

from functools import partial

import numpy as np
import pytest

from repro.data import make_classification, make_regression
from repro.distributed import (
    ParameterServer,
    SimulatedCluster,
    partition_rows,
    train_bsp_gd,
    train_model_averaging,
    train_parameter_server,
)
from repro.errors import ReproError, WorkerFailure
from repro.ml.losses import LogisticLoss, SquaredLoss
from repro.ml.optim import descend
from repro.resilience import ChaosContext, FaultPlan, chaos_seed_from_env


@pytest.fixture
def reg_problem():
    return make_regression(800, 8, noise=0.05, seed=71)


class TestPartitioning:
    def test_every_row_exactly_once(self):
        parts = partition_rows(103, 4, seed=1)
        all_idx = np.concatenate([p.indices for p in parts])
        assert sorted(all_idx.tolist()) == list(range(103))

    def test_balanced_shards(self):
        parts = partition_rows(103, 4, seed=2)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ReproError):
            partition_rows(5, 0)
        with pytest.raises(ReproError):
            partition_rows(2, 5)


class TestCluster:
    def test_global_gradient_matches_single_node(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=5, seed=3)
        w = np.random.default_rng(0).standard_normal(8)
        assert np.allclose(
            cluster.global_gradient(SquaredLoss(), w),
            SquaredLoss().gradient(X, y, w),
            atol=1e-12,
        )

    def test_global_loss_matches_single_node(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=3, seed=4)
        w = np.zeros(8)
        assert cluster.global_loss(SquaredLoss(), w) == pytest.approx(
            SquaredLoss().value(X, y, w)
        )

    def test_communication_accounting(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=4, seed=5)
        cluster.global_gradient(SquaredLoss(), np.zeros(8))
        assert cluster.comm.rounds == 1
        assert cluster.comm.messages == 8  # 4 down + 4 up
        assert cluster.comm.bytes_broadcast == 4 * 8 * 8
        assert cluster.comm.bytes_gathered == 4 * 8 * 8

    def test_length_mismatch_rejected(self, reg_problem):
        X, y, _ = reg_problem
        with pytest.raises(ReproError):
            SimulatedCluster(X, y[:10], num_workers=2)


class TestBSP:
    def test_identical_to_single_node_gd(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=4, seed=6)
        bsp = train_bsp_gd(
            cluster, SquaredLoss(), rounds=60, learning_rate=0.3
        )
        loss = SquaredLoss()
        single = descend(
            partial(loss.value, X, y), partial(loss.gradient, X, y),
            np.zeros(X.shape[1]), 0.3, 60, 0.0, line_search=False,
        )
        assert np.allclose(bsp.weights, single.weights, atol=1e-10)

    def test_worker_count_does_not_change_result(self, reg_problem):
        X, y, _ = reg_problem
        results = []
        for k in (1, 4, 16):
            cluster = SimulatedCluster(X, y, num_workers=k, seed=7)
            results.append(
                train_bsp_gd(cluster, SquaredLoss(), rounds=30).weights
            )
        assert np.allclose(results[0], results[1], atol=1e-10)
        assert np.allclose(results[0], results[2], atol=1e-10)

    def test_comm_scales_with_rounds_and_workers(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=4, seed=8)
        result = train_bsp_gd(cluster, SquaredLoss(), rounds=10)
        # 10 gradient rounds + 11 loss rounds.
        assert result.comm.rounds == 21
        assert result.comm.total_bytes == 21 * 2 * 4 * 8 * 8

    def test_early_stop_with_tol(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=2, seed=9)
        result = train_bsp_gd(
            cluster, SquaredLoss(), rounds=500, learning_rate=0.3, tol=1e-9
        )
        assert len(result.loss_history) < 500


class TestModelAveraging:
    def test_single_round_of_communication(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=4, seed=10)
        result = train_model_averaging(cluster, SquaredLoss())
        # 1 gather round + 1 final loss round.
        assert result.comm.rounds == 2

    def test_good_on_well_posed_shards(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=4, seed=11)
        result = train_model_averaging(
            cluster, SquaredLoss(), local_iterations=300
        )
        assert result.final_loss < 0.01

    def test_degrades_with_many_workers(self):
        X, y, _ = make_regression(400, 40, noise=0.5, seed=72)
        few = SimulatedCluster(X, y, num_workers=2, seed=1)
        many = SimulatedCluster(X, y, num_workers=32, seed=1)
        loss_few = train_model_averaging(
            few, SquaredLoss(), local_iterations=300
        ).final_loss
        loss_many = train_model_averaging(
            many, SquaredLoss(), local_iterations=300
        ).final_loss
        assert loss_many > loss_few * 2  # ill-posed local shards hurt


class TestParameterServer:
    def test_versioning_and_pull(self):
        server = ParameterServer(dim=3)
        server.push(np.ones(3))
        server.push(np.ones(3))
        assert server.version == 2
        current, s0 = server.pull(0)
        assert np.allclose(current, [2, 2, 2])
        stale, s1 = server.pull(1)
        assert np.allclose(stale, [1, 1, 1])
        assert (s0, s1) == (0, 1)

    def test_staleness_clamped_to_available_history(self):
        server = ParameterServer(dim=2)
        _, actual = server.pull(10)
        assert actual == 0

    def test_sequential_training_converges(self):
        X, y = make_classification(800, 6, separation=2.5, seed=73)
        ypm = np.where(y == 1, 1.0, -1.0)
        cluster = SimulatedCluster(X, ypm, num_workers=4, seed=2)
        result = train_parameter_server(
            cluster, LogisticLoss(), total_updates=400, learning_rate=0.3,
            max_staleness=0, seed=2,
        )
        assert result.final_loss < 0.45
        assert result.updates_applied == 400
        assert set(result.staleness_observed) == {0}

    def test_moderate_staleness_tolerated(self):
        X, y = make_classification(800, 6, separation=2.5, seed=74)
        ypm = np.where(y == 1, 1.0, -1.0)
        fresh = SimulatedCluster(X, ypm, num_workers=8, seed=3)
        stale = SimulatedCluster(X, ypm, num_workers=8, seed=3)
        r0 = train_parameter_server(
            fresh, LogisticLoss(), total_updates=400, max_staleness=0, seed=3
        )
        r8 = train_parameter_server(
            stale, LogisticLoss(), total_updates=400, max_staleness=8, seed=3
        )
        assert r8.final_loss < r0.final_loss * 1.3  # small penalty only

    def test_extreme_staleness_with_large_steps_destabilizes(self):
        X, y = make_classification(800, 6, separation=2.5, seed=75)
        ypm = np.where(y == 1, 1.0, -1.0)
        fresh = SimulatedCluster(X, ypm, num_workers=8, seed=4)
        stale = SimulatedCluster(X, ypm, num_workers=8, seed=4)
        kwargs = dict(
            total_updates=600, learning_rate=2.0, decay=0.0, seed=4
        )
        r0 = train_parameter_server(
            fresh, LogisticLoss(), max_staleness=0, **kwargs
        )
        r128 = train_parameter_server(
            stale, LogisticLoss(), max_staleness=128, **kwargs
        )
        assert r128.final_loss > r0.final_loss * 1.3

    def test_validation(self, reg_problem):
        X, y, _ = reg_problem
        cluster = SimulatedCluster(X, y, num_workers=2, seed=5)
        with pytest.raises(ReproError):
            train_parameter_server(cluster, SquaredLoss(), total_updates=0)
        with pytest.raises(ReproError):
            train_parameter_server(
                cluster, SquaredLoss(), total_updates=5, max_staleness=-1
            )


class TestDistributedResilience:
    """Failure modes of the distributed drivers (PR: repro.resilience)."""

    @pytest.fixture
    def cls_problem(self):
        X, y = make_classification(800, 6, separation=2.5, seed=76)
        return X, np.where(y == 1, 1.0, -1.0)

    def test_paramserver_converges_like_bsp(self, cls_problem):
        """Async parameter-server training reaches loss comparable to a
        synchronous BSP driver on the same cluster and loss."""
        X, y = cls_problem
        bsp = train_bsp_gd(
            SimulatedCluster(X, y, num_workers=4, seed=12),
            LogisticLoss(),
            rounds=100,
            learning_rate=0.3,
        )
        ps = train_parameter_server(
            SimulatedCluster(X, y, num_workers=4, seed=12),
            LogisticLoss(),
            total_updates=400,
            learning_rate=0.3,
            max_staleness=4,
            seed=12,
        )
        assert np.isfinite(ps.final_loss)
        assert ps.final_loss < ps.loss_history[0]  # it actually trained
        assert ps.final_loss < bsp.final_loss * 1.5

    def test_bsp_identical_with_killed_worker(self, cls_problem):
        """Lineage recovery: losing a worker changes the comm ledger but
        not a single bit of the trained model."""
        X, y = cls_problem
        healthy = SimulatedCluster(X, y, num_workers=4, seed=13)
        expected = train_bsp_gd(
            healthy, LogisticLoss(), rounds=30, learning_rate=0.3
        )
        degraded = SimulatedCluster(X, y, num_workers=4, seed=13)
        degraded.kill_worker(3)
        got = train_bsp_gd(
            degraded, LogisticLoss(), rounds=30, learning_rate=0.3
        )
        assert np.array_equal(expected.weights, got.weights)
        assert expected.loss_history == got.loss_history
        assert degraded.comm.worker_failures > 0
        assert (
            degraded.comm.lineage_recoveries == degraded.comm.worker_failures
        )
        assert degraded.comm.bytes_recovered > 0

    def test_bsp_identical_under_injected_rpc_faults(self, cls_problem):
        X, y = cls_problem
        expected = train_bsp_gd(
            SimulatedCluster(X, y, num_workers=4, seed=14),
            LogisticLoss(),
            rounds=20,
            learning_rate=0.3,
        )
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "cluster.worker", rate=0.3
        )
        degraded = SimulatedCluster(X, y, num_workers=4, seed=14)
        with ChaosContext(plan) as chaos:
            got = train_bsp_gd(
                degraded, LogisticLoss(), rounds=20, learning_rate=0.3
            )
        assert chaos.total_injected > 0
        assert np.array_equal(expected.weights, got.weights)
        assert expected.loss_history == got.loss_history

    def test_comm_ledger_deterministic_across_runs(self, cls_problem):
        """Same seed, same chaos plan -> byte-for-byte identical ledger."""
        X, y = cls_problem

        def run():
            plan = FaultPlan(seed=chaos_seed_from_env()).inject(
                "cluster.worker", rate=0.25
            )
            cluster = SimulatedCluster(X, y, num_workers=4, seed=15)
            cluster.kill_worker(0)
            with ChaosContext(plan):
                result = train_bsp_gd(
                    cluster, LogisticLoss(), rounds=15, learning_rate=0.3
                )
            c = cluster.comm
            return (
                result.weights.tobytes(),
                c.rounds,
                c.messages,
                c.bytes_broadcast,
                c.bytes_gathered,
                c.worker_failures,
                c.lineage_recoveries,
                c.bytes_recovered,
            )

        assert run() == run()

    def test_paramserver_survives_worker_loss(self, cls_problem):
        X, y = cls_problem
        cluster = SimulatedCluster(X, y, num_workers=4, seed=16)
        cluster.kill_worker(2)
        result = train_parameter_server(
            cluster,
            LogisticLoss(),
            total_updates=200,
            learning_rate=0.3,
            seed=16,
        )
        assert result.updates_applied == 200
        assert result.worker_reassignments > 0
        assert cluster.workers[2].gradient_evaluations == 0
        assert np.isfinite(result.final_loss)

    def test_paramserver_all_workers_dead(self, cls_problem):
        X, y = cls_problem
        cluster = SimulatedCluster(X, y, num_workers=2, seed=17)
        cluster.kill_worker(0)
        cluster.kill_worker(1)
        with pytest.raises(WorkerFailure):
            train_parameter_server(
                cluster, LogisticLoss(), total_updates=10, seed=17
            )
