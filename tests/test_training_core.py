"""The shared training core (DESIGN.md, "Training core").

One table per property instead of one copy per package: every descent
and Lloyd provider goes through :func:`repro.ml.optim.descend` /
:func:`repro.ml.kmeans.lloyd`, so the same row shape tests them all.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import kmeans_dsl, linreg_direct, logreg_gd
from repro.compression import CompressedMatrix
from repro.data import make_star_schema
from repro.distributed import SimulatedCluster, train_bsp_gd
from repro.errors import ExecutionError, InjectedFault, ModelError, ReproError
from repro.factorized import (
    FactorizedLinearRegression,
    FactorizedLogisticRegression,
    NormalizedMatrix,
    factorized_kmeans,
)
from repro.incremental.aggregates import GramCofactorState, snap_to_grid
from repro.indb import InDBLinearRegression, train_bgd, train_kmeans_indb
from repro.ml import KMeans, LinearRegression, Moments
from repro.ml.kmeans import cluster_sums, lloyd, nearest_center
from repro.ml.linreg import solve_normal
from repro.ml.losses import LogisticLoss
from repro.ml.optim import descend, gradient_descent, iterate, l2_penalized
from repro.resilience import RetryPolicy
from repro.runtime import OutOfCoreLinearRegression
from repro.sparse import CSRMatrix
from repro.storage import Table

PARITY = 1e-9


@pytest.fixture(scope="module")
def star():
    """One small star schema every provider can train on."""
    data = make_star_schema(
        n_s=600, n_r=40, d_s=3, d_r=5, task="classification", seed=11
    )
    nm = NormalizedMatrix(data.S, [data.fk], [data.R])
    joined = nm.materialize()
    y01 = np.asarray(data.y, dtype=np.float64)
    columns = [f"c{j}" for j in range(joined.shape[1])]
    table = Table.from_columns(
        {c: joined[:, j] for j, c in enumerate(columns)}
        | {"y": np.where(y01 > 0, 1.0, -1.0)}
    )
    return nm, joined, y01, table, columns


# ----------------------------------------------------------------------
# zero iterations: the initial state comes back, nothing raises
# ----------------------------------------------------------------------
def _descent_providers(star):
    nm, joined, y01, table, columns = star
    ypm = np.where(y01 > 0, 1.0, -1.0)
    d = joined.shape[1]

    def factorized():
        model = FactorizedLogisticRegression(max_iter=0).fit(nm, y01)
        return model.coef_, model.n_iter_, model.loss_history_

    def out_of_core():
        model = OutOfCoreLinearRegression(epochs=0).fit(joined, y01)
        return model.coef_, model.result_.epochs, model.result_.loss_history

    def dsl():
        result = logreg_gd(joined, y01, max_iter=0)
        return result.weights, result.iterations, result.objective_history

    def dense():
        result = gradient_descent(
            LogisticLoss(), joined, ypm, max_iter=0, warn_on_cap=False
        )
        return result.weights, result.iterations, result.loss_history

    def in_db():
        result = train_bgd(table, columns, "y", LogisticLoss(), iterations=0)
        assert result.weights[0] == 0.0  # the intercept column leads
        return result.weights[1:], result.epochs, result.loss_history

    return d, {
        "gradient_descent": dense,
        "logreg_gd": dsl,
        "FactorizedLogisticRegression": factorized,
        "OutOfCoreLinearRegression": out_of_core,
        "train_bgd": in_db,
    }


@pytest.mark.parametrize(
    "provider",
    [
        "gradient_descent",
        "logreg_gd",
        "FactorizedLogisticRegression",
        "OutOfCoreLinearRegression",
        "train_bgd",
    ],
)
def test_zero_iteration_descent_returns_initial_state(star, provider):
    d, providers = _descent_providers(star)
    with np.errstate(all="ignore"):
        weights, iterations, history = providers[provider]()
    assert np.array_equal(weights, np.zeros(d))
    assert iterations == 0
    assert len(history) == 1  # the loss at the start, no step taken


def test_bsp_keeps_rejecting_zero_rounds(star):
    _, joined, y01, _, _ = star
    cluster = SimulatedCluster(joined, y01, num_workers=2)
    with pytest.raises(ReproError, match="rounds must be >= 1"):
        train_bsp_gd(cluster, LogisticLoss(), rounds=0)


@pytest.mark.parametrize(
    "provider", ["KMeans", "kmeans_dsl", "factorized_kmeans", "train_kmeans_indb"]
)
def test_zero_iteration_lloyd_returns_seed_centres(star, provider):
    nm, joined, _, table, columns = star
    k, n = 3, len(joined)
    if provider == "KMeans":
        model = KMeans(n_clusters=k, n_init=1, max_iter=0, seed=5).fit(joined)
        centers, labels, iterations, history = (
            model.cluster_centers_, model.labels_, model.n_iter_, [],
        )
    elif provider == "train_kmeans_indb":
        result = train_kmeans_indb(table, columns, k, max_iter=0, seed=5)
        centers, labels = result.centroids, None
        iterations, history = result.iterations, result.inertia_history
    else:
        fit = kmeans_dsl if provider == "kmeans_dsl" else factorized_kmeans
        result = fit(joined if fit is kmeans_dsl else nm, k, max_iter=0, seed=5)
        centers, labels = result.centers, result.labels
        iterations, history = result.iterations, result.inertia_history
    assert iterations == 0 and history == []
    # every seed centre is a data row, and the closing pass still labels
    assert all((joined == c).all(axis=1).any() for c in centers)
    if labels is not None:
        assert labels.shape == (n,)


# ----------------------------------------------------------------------
# typed errors at the front door
# ----------------------------------------------------------------------
class TestFrontDoor:
    def test_logreg_gd_row_mismatch_names_both_shapes(self, star):
        _, joined, y01, _, _ = star
        with pytest.raises(ModelError, match=r"\(600, 8\).*\(599,\)"):
            logreg_gd(joined, y01[:-1])

    def test_dsl_linreg_row_mismatch_is_typed(self, star):
        _, joined, y01, _, _ = star
        with pytest.raises(ReproError):
            linreg_direct(joined, y01[:-1])

    def test_out_of_core_rejects_1d_design(self):
        x = np.arange(10.0)
        with pytest.raises(ExecutionError, match=r"\(10,\).*\(10,\)"):
            OutOfCoreLinearRegression().fit(x, x)

    def test_out_of_core_row_mismatch(self):
        with pytest.raises(ExecutionError, match=r"\(6, 2\).*\(5,\)"):
            OutOfCoreLinearRegression().fit(np.ones((6, 2)), np.ones(5))


# ----------------------------------------------------------------------
# cross-provider agreement on one dataset
# ----------------------------------------------------------------------
class TestProvidersAgree:
    def test_bsp_is_the_single_node_loop(self, star):
        _, joined, y01, _, _ = star
        ypm = np.where(y01 > 0, 1.0, -1.0)
        value, grad = l2_penalized(
            LogisticLoss().value, LogisticLoss().gradient, 0.01
        )
        single = descend(
            partial(value, joined, ypm), partial(grad, joined, ypm),
            np.zeros(joined.shape[1]), 0.5, 25, 0.0, line_search=False,
        )
        one = train_bsp_gd(
            SimulatedCluster(joined, ypm, num_workers=1),
            LogisticLoss(), rounds=25, learning_rate=0.5, l2=0.01,
        )
        assert np.array_equal(one.weights, single.weights)
        assert one.loss_history == single.loss_history
        sharded = train_bsp_gd(
            SimulatedCluster(joined, ypm, num_workers=4),
            LogisticLoss(), rounds=25, learning_rate=0.5, l2=0.01,
        )
        assert np.max(np.abs(sharded.weights - single.weights)) <= 1e-12
        assert sharded.rounds == 2 * 25 + 1  # loss at w0, then grad + loss

    def test_bsp_tolerance_stops_where_the_core_does(self, star):
        _, joined, y01, _, _ = star
        ypm = np.where(y01 > 0, 1.0, -1.0)
        loss = LogisticLoss()
        single = descend(
            partial(loss.value, joined, ypm), partial(loss.gradient, joined, ypm),
            np.zeros(joined.shape[1]), 0.5, 400, 1e-4, line_search=False,
        )
        bsp = train_bsp_gd(
            SimulatedCluster(joined, ypm, num_workers=1),
            LogisticLoss(), rounds=400, learning_rate=0.5, tol=1e-4,
        )
        assert single.converged and single.iterations < 400
        assert len(bsp.loss_history) == len(single.loss_history)

    def test_factorized_logreg_matches_dense_twin(self, star):
        nm, joined, y01, _, _ = star
        ypm = np.where(y01 > 0, 1.0, -1.0)
        factorized = FactorizedLogisticRegression(l2=0.01, max_iter=40).fit(nm, y01)
        dense = gradient_descent(
            LogisticLoss(), joined, ypm, learning_rate=1.0, l2=0.01,
            max_iter=40, tol=1e-7, warn_on_cap=False,
        )
        assert factorized.n_iter_ == dense.iterations
        assert np.max(np.abs(factorized.coef_ - dense.weights)) <= PARITY

    def test_dsl_logreg_over_normalized_matches_joined(self, star):
        nm, joined, y01, _, _ = star
        over_nm = logreg_gd(nm, y01, l2=0.01, max_iter=40)
        over_join = logreg_gd(joined, y01, l2=0.01, max_iter=40)
        assert over_nm.iterations == over_join.iterations
        assert np.max(np.abs(over_nm.weights - over_join.weights)) <= PARITY
        assert over_nm.flops_executed == over_join.flops_executed

    def test_closed_forms_agree_wherever_the_rows_live(self, star):
        """One ridge model, seven ways to reach its aggregates."""
        nm, joined, _, table, columns = star
        y, l2 = table.column("y"), 0.1
        dense = LinearRegression(
            solver="normal", l2=l2, fit_intercept=False
        ).fit(joined, y).coef_
        maintained = GramCofactorState(columns, "y").rebuild(table)
        # the same BLAS pass over the same rows: bit for bit
        assert np.array_equal(maintained.solve_ridge(l2), dense)
        others = {
            "factorized": FactorizedLinearRegression(l2=l2).fit(nm, y).coef_,
            "in-db": InDBLinearRegression(l2=l2, add_intercept=False).fit(
                table, columns, "y"
            ).coef_,
            "dsl": linreg_direct(joined, y, l2=l2).weights,
            "csr": Moments.of(CSRMatrix.from_dense(joined), y).solve(l2),
            "cla": Moments.of(CompressedMatrix.compress(joined), y).solve(l2),
        }
        for name, weights in others.items():
            assert np.max(np.abs(weights - dense)) <= PARITY, name

    def test_kmeans_providers_agree_from_one_seed(self, star):
        nm, joined, _, table, columns = star
        k = 4
        dsl = kmeans_dsl(joined, k, max_iter=30, seed=5)
        factorized = factorized_kmeans(nm, k, max_iter=30, seed=5)
        in_db = train_kmeans_indb(table, columns, k, max_iter=30, tol=1e-7, seed=5)
        in_db_labels, _ = nearest_center(table.to_matrix(columns), in_db.centroids)
        assert np.array_equal(dsl.labels, factorized.labels)
        assert np.array_equal(dsl.labels, in_db_labels)
        assert dsl.iterations == factorized.iterations == in_db.iterations
        assert abs(dsl.inertia - factorized.inertia) <= PARITY
        assert abs(dsl.inertia - in_db.inertia) <= PARITY


# ----------------------------------------------------------------------
# the three shared functions themselves
# ----------------------------------------------------------------------
class TestSolveNormal:
    def test_well_conditioned_is_plain_solve(self, rng):
        A = rng.standard_normal((30, 5))
        gram, rhs = A.T @ A + 0.1 * np.eye(5), rng.standard_normal(5)
        assert np.array_equal(solve_normal(gram, rhs), np.linalg.solve(gram, rhs))

    def test_exactly_singular_gets_the_pinv_answer(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        rhs = np.array([2.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, rhs)
        w = solve_normal(gram, rhs)
        assert np.array_equal(w, np.linalg.pinv(gram) @ rhs)
        assert np.allclose(w, [1.0, 1.0])  # the minimum-norm solution

    def test_cofactor_state_and_batch_fit_share_it(self, rng):
        from repro.incremental.aggregates import GramCofactorState

        X = rng.standard_normal((80, 4))
        y = X @ rng.standard_normal(4)
        names = [f"x{j}" for j in range(4)]
        table = Table.from_columns(
            {c: X[:, j] for j, c in enumerate(names)} | {"y": y}
        )
        state = GramCofactorState(names, "y").rebuild(table)
        batch = LinearRegression(solver="normal", l2=0.5, fit_intercept=False)
        assert np.array_equal(state.solve_ridge(0.5), batch.fit(X, y).coef_)


def _same_moments(a: Moments, b: Moments) -> bool:
    return (
        np.array_equal(a.gram, b.gram) and np.array_equal(a.xty, b.xty)
        and a.yty == b.yty and a.n == b.n
    )


class TestMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 48),
        d=st.integers(1, 5),
        l2=st.sampled_from([0.0, 0.25, 2.0]),
    )
    def test_the_ring_the_subset_and_the_rss(self, seed, n, d, l2):
        """On grid data every sum is exact, so the ring laws hold bit
        for bit: a union is a sum, a fold complement a difference, a
        column subset a slice — and the RSS needs no rows."""
        rng = np.random.default_rng(seed)
        X = snap_to_grid(4.0 * rng.standard_normal((n, d)))
        y = snap_to_grid(4.0 * rng.standard_normal(n))
        fold = np.zeros(n, dtype=bool)
        fold[rng.choice(n, size=int(rng.integers(1, n // 2)), replace=False)] = True
        total, held = Moments.of(X, y), Moments.of(X[fold], y[fold])
        rest = Moments.of(X[~fold], y[~fold])
        assert _same_moments(total, held + rest)
        assert _same_moments(total - held, rest)
        assert np.array_equal(
            (total - held).solve(l2), rest.solve(l2), equal_nan=True
        )
        cols = rng.permutation(d)[: int(rng.integers(1, d + 1))]
        assert _same_moments(total.take(cols), Moments.of(X[:, cols], y))
        w = total.solve(l2 + 0.5)
        direct = float(np.sum((X @ w - y) ** 2))
        assert abs(total.rss(w) - direct) <= 1e-9 * max(direct, total.yty, 1.0)


class TestIterate:
    def test_between_runs_after_every_unconverged_step(self):
        seen = []
        state, iterations, done = iterate(
            lambda s: (s + 1, s + 1 == 3), 0, 10, between=seen.append
        )
        assert (state, iterations, done) == (3, 3, True)
        assert seen == [1, 2]
        seen.clear()
        assert iterate(lambda s: (s + 1, False), 0, 2, between=seen.append)[1] == 2
        assert seen == [1, 2]  # the cap is not convergence

    def test_retried_step_does_not_count_twice(self):
        tally = {"work": 0}
        failures = iter([True, False, False])

        def step(state):
            tally["work"] += 1
            if next(failures):
                raise InjectedFault("mid-step")
            return state + 1, False

        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        state, iterations, _ = iterate(
            step, 0, 2, retry=policy, site="test.iterate", tally=tally
        )
        assert (state, iterations) == (2, 2)
        assert tally == {"work": 2}

    def test_descend_fixed_step_and_line_search_share_the_stop(self):
        value = lambda w: float(w @ w)  # noqa: E731
        gradient = lambda w: 2.0 * w  # noqa: E731
        w0 = np.array([1.0, -2.0])
        fixed = descend(value, gradient, w0, 0.25, 50, 1e-12, line_search=False)
        searched = descend(value, gradient, w0, 1.0, 50, 1e-12)
        assert fixed.converged and searched.converged
        assert np.allclose(fixed.weights, 0.0) and np.allclose(searched.weights, 0.0)
        assert np.all(np.diff(searched.loss_history) <= 0.0)

    def test_lloyd_keeps_the_centre_of_an_empty_cluster(self):
        X = np.array([[0.0], [0.2], [10.0]])
        seeds = np.array([[0.0], [0.1], [100.0]])  # nobody is nearest to 100

        def assign(centers):
            d2 = (X - centers.T) ** 2
            labels = np.argmin(d2, axis=1)
            return labels, float(d2[np.arange(3), labels].sum())

        centers, labels, inertia, iterations, history = lloyd(
            assign, lambda labels: cluster_sums(X, labels, 3), seeds, 10, 0.0
        )
        assert centers[2, 0] == 100.0 and 2 not in labels
        assert len(history) == iterations and inertia <= history[0]
