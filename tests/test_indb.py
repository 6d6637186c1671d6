"""Unit tests for in-database ML (UDA framework, IGD/BGD, SQL Naive Bayes)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    make_categorical,
    make_classification,
    make_grid_regression,
    make_regression,
)
from repro.errors import ModelError, NotFittedError, StorageError
from repro.indb import (
    GramUDA,
    InDBLinearRegression,
    InDBLogisticRegression,
    SQLNaiveBayes,
    run_uda,
    train_bgd,
    train_igd,
)
from repro.incremental import snap_to_grid
from repro.indb import IGDTransition, KMeansAssignUDA
from repro.indb.gradient import GradientUDA
from repro.indb.uda import _BLOCK_ROWS, UDA, _fold_partition, estimate_uda_cost
from repro.ml import CategoricalNB, LinearRegression, Moments
from repro.ml.losses import LogisticLoss, SquaredLoss, _sigmoid
from repro.runtime.parallel import PYTHON_CALL_FLOPS, merge_tree
from repro.storage import Table


@pytest.fixture
def reg_table():
    X, y, w = make_regression(400, 4, noise=0.05, seed=21)
    table = Table.from_columns(
        {f"x{i}": X[:, i] for i in range(4)} | {"y": y}
    )
    return table, X, y, w


@pytest.fixture
def clf_table():
    X, y = make_classification(500, 4, separation=3.0, seed=22)
    table = Table.from_columns(
        {f"x{i}": X[:, i] for i in range(4)} | {"y": y}
    )
    return table, X, y


FEATURES = ["x0", "x1", "x2", "x3"]


class TestUDAFramework:
    def test_partitioned_merge_equals_serial(self, reg_table):
        table, _, _, _ = reg_table
        serial = run_uda(table, GramUDA(), FEATURES, partitions=1)
        parallel = run_uda(table, GramUDA(), FEATURES, partitions=7)
        assert np.allclose(serial.gram, parallel.gram)
        assert serial.n == parallel.n == 400

    def test_gram(self, reg_table):
        table, X, y, _ = reg_table
        out = run_uda(table, GramUDA(), FEATURES + ["y"])
        assert np.allclose(out.gram, X.T @ X)
        assert np.allclose(out.xty, X.T @ y)
        assert out.yty == pytest.approx(float(y @ y))
        assert out.n == len(y)

    def test_empty_table_raises(self):
        table = Table.from_columns({"x": np.zeros(0)})
        with pytest.raises(StorageError, match="empty"):
            run_uda(table, GramUDA(), ["x"])

    def test_partitions_validation(self, reg_table):
        table, _, _, _ = reg_table
        with pytest.raises(StorageError):
            run_uda(table, GramUDA(), ["x0"], partitions=0)

    def test_row_order_applied(self, reg_table):
        table, X, _, _ = reg_table

        class FirstRowUDA(UDA):
            def initialize(self):
                return None

            def transition(self, state, row):
                return row.copy() if state is None else state

            def merge(self, left, right):
                return right if left is None else left

            def finalize(self, state):
                return state

        order = np.argsort(table.column("x0"))
        out = run_uda(table, FirstRowUDA(), ["x0"], row_order=order)
        assert out[0] == X[:, 0].min()

    def test_row_order_length_validation(self, reg_table):
        table, _, _, _ = reg_table
        with pytest.raises(StorageError):
            run_uda(table, GramUDA(), ["x0"], row_order=np.arange(3))


class TestIGD:
    def test_igd_converges_linear(self, reg_table):
        table, X, y, w_true = reg_table
        result = train_igd(
            table, FEATURES, "y", SquaredLoss(), epochs=30, learning_rate=0.05
        )
        assert np.allclose(result.weights[1:], w_true, atol=0.1)
        assert result.final_loss < result.loss_history[0] / 50

    def test_loss_history_length(self, reg_table):
        table, _, _, _ = reg_table
        result = train_igd(table, FEATURES, "y", SquaredLoss(), epochs=5)
        assert len(result.loss_history) == 6

    def test_shuffle_helps_on_clustered_data(self, clf_table):
        table, X, y = clf_table
        order = np.argsort(y)  # all class 0 rows, then all class 1 rows
        clustered = Table.from_columns(
            {f"x{i}": X[order, i] for i in range(4)}
            | {"y": np.where(y[order] == 1, 1.0, -1.0)}
        )
        none = train_igd(
            clustered, FEATURES, "y", LogisticLoss(), epochs=5, shuffle="none"
        )
        once = train_igd(
            clustered, FEATURES, "y", LogisticLoss(), epochs=5, shuffle="once"
        )
        assert once.final_loss < none.final_loss

    def test_shuffle_once_close_to_each(self, clf_table):
        table, X, y = clf_table
        t = table.with_column("ypm", np.where(y == 1, 1.0, -1.0))
        once = train_igd(t, FEATURES, "ypm", LogisticLoss(), epochs=8, shuffle="once")
        each = train_igd(t, FEATURES, "ypm", LogisticLoss(), epochs=8, shuffle="each")
        assert once.final_loss == pytest.approx(each.final_loss, rel=0.25)

    def test_invalid_shuffle_policy(self, reg_table):
        table, _, _, _ = reg_table
        with pytest.raises(ModelError):
            train_igd(table, FEATURES, "y", SquaredLoss(), shuffle="sometimes")

    def test_feature_columns_required(self, reg_table):
        table, _, _, _ = reg_table
        with pytest.raises(ModelError):
            train_igd(table, [], "y", SquaredLoss())

    def test_partitioned_averaging_still_converges(self, reg_table):
        table, _, _, w_true = reg_table
        result = train_igd(
            table,
            FEATURES,
            "y",
            SquaredLoss(),
            epochs=30,
            learning_rate=0.05,
            partitions=4,
        )
        assert np.allclose(result.weights[1:], w_true, atol=0.15)

    def test_intercept_column_name_collision_avoided(self):
        X, y, _ = make_regression(100, 2, seed=23)
        table = Table.from_columns(
            {"intercept": X[:, 0], "x1": X[:, 1], "y": y}
        )
        result = train_igd(
            table, ["intercept", "x1"], "y", SquaredLoss(), epochs=5
        )
        assert len(result.weights) == 3  # fresh intercept + 2 features


class TestBGD:
    def test_bgd_matches_igd_direction(self, reg_table):
        table, _, _, w_true = reg_table
        result = train_bgd(
            table, FEATURES, "y", SquaredLoss(), iterations=100, learning_rate=0.3
        )
        assert np.allclose(result.weights[1:], w_true, atol=0.05)

    def test_bgd_loss_decreases(self, reg_table):
        table, _, _, _ = reg_table
        result = train_bgd(table, FEATURES, "y", SquaredLoss(), iterations=20)
        assert result.loss_history[-1] < result.loss_history[0]


class TestInDBEstimators:
    def test_linreg_matches_in_memory(self, reg_table):
        table, X, y, _ = reg_table
        indb = InDBLinearRegression().fit(table, FEATURES, "y")
        dense = LinearRegression().fit(X, y)
        assert np.allclose(indb.coef_, dense.coef_, atol=1e-8)
        assert indb.intercept_ == pytest.approx(dense.intercept_, abs=1e-8)

    def test_linreg_ridge_unpenalized_intercept(self, reg_table):
        table, X, y, _ = reg_table
        indb = InDBLinearRegression(l2=5.0).fit(table, FEATURES, "y")
        dense = LinearRegression(l2=5.0).fit(X, y)
        assert np.allclose(indb.coef_, dense.coef_, atol=1e-8)

    def test_linreg_moments_carry_the_rss(self):
        """``GramUDA`` accumulates y'y too: the in-DB aggregates answer
        ``rss(w)`` with no second scan, as the dense ones do."""
        X, y = make_grid_regression(300, 4, seed=25)
        table = Table.from_columns(
            {f"x{i}": X[:, i] for i in range(4)} | {"y": y}
        )
        indb = InDBLinearRegression(add_intercept=False).fit(
            table, FEATURES, "y", partitions=3
        )
        dense = LinearRegression(solver="normal", fit_intercept=False).fit(X, y)
        moments = run_uda(table, GramUDA(), FEATURES + ["y"], partitions=3)
        rss = moments.rss(indb.coef_)
        assert np.isfinite(rss)
        assert rss == Moments.of(X, y).rss(dense.coef_)

    def test_linreg_predict_appends_column(self, reg_table):
        table, _, _, _ = reg_table
        model = InDBLinearRegression().fit(table, FEATURES, "y")
        out = model.predict(table, output_column="yhat")
        assert "yhat" in out.schema
        assert model.score(table, "y") > 0.99

    def test_linreg_predict_before_fit(self, reg_table):
        table, _, _, _ = reg_table
        with pytest.raises(NotFittedError):
            InDBLinearRegression().predict(table)

    @pytest.mark.parametrize("method", ["igd", "bgd"])
    def test_logreg_accuracy(self, method, clf_table):
        table, _, _ = clf_table
        model = InDBLogisticRegression(method=method, epochs=20).fit(
            table, FEATURES, "y"
        )
        assert model.score(table, "y") > 0.9

    def test_logreg_arbitrary_labels(self, clf_table):
        table, X, y = clf_table
        t = table.with_column("label", np.where(y == 1, "churn", "stay"))
        model = InDBLogisticRegression(epochs=15).fit(t, FEATURES, "label")
        predicted = model.predict(t)
        assert set(predicted.column("prediction").tolist()) <= {"churn", "stay"}

    def test_logreg_multiclass_rejected(self, clf_table):
        table, _, _ = clf_table
        t = table.with_column("y3", np.arange(table.num_rows) % 3)
        with pytest.raises(ModelError):
            InDBLogisticRegression().fit(t, FEATURES, "y3")

    def test_invalid_method(self):
        with pytest.raises(ModelError):
            InDBLogisticRegression(method="lbfgs")



# ----------------------------------------------------------------------
# The block fold against the per-row fold it replaced
# ----------------------------------------------------------------------
def _row_fold(uda, data, partitions=1):
    """The engine before the block fold: one ``transition`` per row,
    partition states through the same merge tree."""
    bounds = np.linspace(0, len(data), partitions + 1).astype(int)
    states = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            state = uda.initialize()
            for row in data[lo:hi]:
                state = uda.transition(state, row)
            states.append(state)
    if not states:
        return uda.finalize(uda.initialize())
    return uda.finalize(merge_tree(uda.merge, states))


# The per-row bodies the built-ins had before they folded blocks. Each
# overrides only ``transition``, so it is also what the engine's
# most-derived rule folds row by row.
class _RowIGD(IGDTransition):
    def transition(self, state, row):
        x, y = row[:-1], row[-1]
        if isinstance(self.loss, LogisticLoss):  # the 0-d array link
            grad = -y * _sigmoid(-(y * float(x @ state.weights))) * x
        else:
            grad = self.loss.pointwise_gradient(x, y, state.weights)
        if self.l2 > 0:
            grad = grad + self.l2 * state.weights
        state.weights -= self.learning_rate * grad
        state.examples += 1
        return state


class _RowKMeans(KMeansAssignUDA):
    def transition(self, state, row):
        diffs = self.centroids - row
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        nearest = int(np.argmin(d2))
        state.sums[nearest] += row
        state.counts[nearest] += 1
        state.inertia += float(d2[nearest])
        return state


class _RowGram(GramUDA):
    def transition(self, state, row):
        aug, count = state
        outer = np.outer(row, row)
        return (outer if aug is None else aug + outer, count + 1)


class _RowGradient(GradientUDA):
    def transition(self, state, row):
        grad, count = state
        term = self.loss.pointwise_gradient(row[:-1], row[-1], self.w)
        return (term if grad is None else grad + term, count + 1)


LOSSES = (SquaredLoss(), LogisticLoss())
COLUMNS = ["x0", "x1", "x2", "y"]
fold_cases = dict(
    n=st.sampled_from(
        (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7)
    ),
    partitions=st.sampled_from((1, 3, 64)),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**16),
)


def _fold_case(n, shuffled, seed, grid=False):
    """(rng, table, rows in fold order, row_order): three features and
    a +-1 label as the last column."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, 4))
    if grid:
        data = snap_to_grid(4.0 * data)
    data[:, -1] = np.where(data[:, -1] > 0, 1.0, -1.0)
    table = Table.from_columns({c: data[:, j] for j, c in enumerate(COLUMNS)})
    order = rng.permutation(n) if shuffled else None
    return rng, table, (data[order] if shuffled else data), order


def _parts(result):
    if isinstance(result, Moments):
        return (result.gram, result.xty, result.yty, result.n)
    return tuple(result.values()) if isinstance(result, dict) else (result,)


class TestBlockFold:
    @settings(max_examples=40, deadline=None)
    @given(
        **fold_cases, loss=st.sampled_from(LOSSES), l2=st.sampled_from((0.0, 0.01))
    )
    def test_igd_keeps_its_bytes(self, n, partitions, shuffled, seed, loss, l2):
        rng, table, rows, order = _fold_case(n, shuffled, seed)
        args = (loss, 3, 0.05, l2, rng.standard_normal(3))
        got = run_uda(table, IGDTransition(*args), COLUMNS, partitions, order)
        assert np.array_equal(got, _row_fold(_RowIGD(*args), rows, partitions))

    @settings(max_examples=40, deadline=None)
    @given(**fold_cases, ties=st.booleans())
    def test_kmeans_keeps_its_bytes(self, n, partitions, shuffled, seed, ties):
        rng, table, rows, order = _fold_case(n, shuffled, seed)
        centroids = rng.standard_normal((5, 4))
        if ties:  # small integers: equal distances are exactly equal
            rows = np.round(rows)
            table = Table.from_columns(
                {c: np.round(table.column(c)) for c in COLUMNS}
            )
            centroids = np.round(centroids)
            centroids[1] = centroids[0]
        got = run_uda(table, KMeansAssignUDA(centroids), COLUMNS, partitions, order)
        want = _row_fold(_RowKMeans(centroids), rows, partitions)
        assert np.array_equal(got.sums, want.sums)
        assert np.array_equal(got.counts, want.counts)
        assert got.inertia == want.inertia
        if ties:
            assert got.counts[1] == 0  # the lowest index takes the tie

    @settings(max_examples=40, deadline=None)
    @given(
        **fold_cases,
        grid=st.booleans(),
        which=st.sampled_from(("gram", "squared", "logistic")),
    )
    def test_sums_exact_on_the_grid_and_close_off_it(
        self, n, partitions, shuffled, seed, grid, which
    ):
        """One BLAS product per block re-associates the per-row sums: the
        same bytes where every partial sum is exact, 1e-12 elsewhere."""
        rng, table, rows, order = _fold_case(n, shuffled, seed, grid)
        w = snap_to_grid(rng.standard_normal(3))
        block, row = {
            "gram": (GramUDA(), _RowGram()),
            "squared": (GradientUDA(LOSSES[0], w), _RowGradient(LOSSES[0], w)),
            "logistic": (GradientUDA(LOSSES[1], w), _RowGradient(LOSSES[1], w)),
        }[which]
        if n == 0:
            with pytest.raises(StorageError, match="empty"):
                run_uda(table, block, COLUMNS, partitions, order)
            return
        got = _parts(run_uda(table, block, COLUMNS, partitions, order))
        want = _parts(_row_fold(row, rows, partitions))
        for a, b in zip(got, want, strict=True):
            if grid and which != "logistic":  # the link is not on the grid
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 80),
        cuts=st.lists(st.integers(0, 80), max_size=6),
        seed=st.integers(0, 2**16),
        loss=st.sampled_from(LOSSES),
    )
    def test_any_split_into_blocks_gives_the_same_state(self, n, cuts, seed, loss):
        rng, _, rows, _ = _fold_case(n, False, seed)
        edges = [0, *sorted(min(c, n) for c in cuts), n]
        blocks = [rows[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
        centroids = rng.standard_normal((3, 4))
        centroids[2] = centroids[0]
        for uda in (
            IGDTransition(loss, 3, 0.05, 0.01, rng.standard_normal(3)),
            KMeansAssignUDA(centroids),
        ):
            whole = uda.transition_many(uda.initialize(), rows)
            split, by_row = uda.initialize(), uda.initialize()
            for piece in blocks:
                split = uda.transition_many(split, piece)
            for one in rows:
                by_row = uda.transition(by_row, one)
            for other in (split, by_row):
                for name, value in vars(whole).items():
                    assert np.array_equal(value, getattr(other, name)), name

    def test_kmeans_temporaries_stay_block_sized(self):
        n, k, d = 200_000, 16, 8
        rng = np.random.default_rng(0)
        data = rng.standard_normal((n, d))
        uda = KMeansAssignUDA(rng.standard_normal((k, d)))
        tracemalloc.start()
        try:
            state = _fold_partition(uda, data, (0, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.counts.sum() == n
        # the (block, k, d) differences and their reductions; one
        # (n, k, d) temporary would be 205 MB
        assert peak <= 2 * _BLOCK_ROWS * k * d * 8

    @pytest.mark.parametrize(
        "make",
        [
            GramUDA,
            lambda: KMeansAssignUDA(np.eye(4)),
            lambda: IGDTransition(LOSSES[1], 3, 0.05, 0.0),
            lambda: GradientUDA(LOSSES[1], np.zeros(3)),
        ],
    )
    def test_builtins_cross_the_interpreter_once_per_block(self, make):
        n, partitions = 3 * _BLOCK_ROWS + 7, 3
        _, table, _, _ = _fold_case(n, False, 0)
        uda, calls = make(), []
        fold = uda.transition_many
        uda.transition_many = lambda state, block: (
            calls.append(len(block)) or fold(state, block)
        )
        uda.transition = None  # a per-row call would raise
        run_uda(table, uda, COLUMNS, partitions)
        spans = np.diff(np.linspace(0, n, partitions + 1).astype(int))
        assert len(calls) == sum(-(-int(s) // _BLOCK_ROWS) for s in spans)
        assert sum(calls) == n and max(calls) <= _BLOCK_ROWS

    def test_most_derived_form_wins(self, reg_table):
        table, X, _, _ = reg_table
        seen = []

        class Rows(GramUDA):  # a row form under a block-form parent
            def transition(self, state, row):
                seen.append("row")
                return super().transition(state, row)

        class Blocks(Rows):  # and a block form under that
            def transition_many(self, state, block):
                seen.append("block")
                return super().transition_many(state, block)

        assert run_uda(table, Rows(), ["x0"]).n == 400
        assert seen == ["row"] * 400 and Rows.steps_per_row
        seen.clear()
        out = run_uda(table, Blocks(), ["x0"], partitions=2)
        assert out.yty == pytest.approx(float(X[:, 0] @ X[:, 0]))
        assert seen == (["block"] + ["row"] * 200) * 2
        # its ``transition`` is its own one-row block
        seen.clear()
        state = Blocks().transition(Blocks().initialize(), X[0, :1])
        assert seen == ["block", "row"] and state[1] == 1

        class Neither(UDA):
            def initialize(self):
                return 0

        with pytest.raises(NotImplementedError):
            run_uda(table, Neither(), ["x0"])

    def test_transition_that_forgets_its_state_is_a_typed_error(self, reg_table):
        table, _, _, _ = reg_table

        class InPlace(UDA):
            def initialize(self):
                return np.zeros(1)

            def transition_many(self, state, block):
                state += block.sum(axis=0)  # ... and no ``return state``

            def merge(self, left, right):
                return left + right

        with pytest.raises(StorageError, match="InPlace.transition_many"):
            run_uda(table, InPlace(), ["x0"], partitions=2)

    def test_cost_gate_charges_the_steps_that_run(self):
        per_row = 4000 * (PYTHON_CALL_FLOPS + 2.0 * 9)
        assert estimate_uda_cost(4000, 9) == per_row
        assert estimate_uda_cost(4000, 9, False) == (
            4 * PYTHON_CALL_FLOPS + 2.0 * 4000 * 9
        )
        assert IGDTransition.steps_per_row and _RowGram.steps_per_row
        assert not any(
            uda.steps_per_row
            for uda in (GramUDA, KMeansAssignUDA, GradientUDA)
        )


class TestSQLNaiveBayes:
    @pytest.fixture
    def nb_table(self):
        X, y = make_categorical(400, 3, cardinality=4, signal=3.0, seed=24)
        table = Table.from_columns(
            {f"f{j}": X[:, j] for j in range(3)} | {"label": y}
        )
        return table, X, y

    def test_matches_in_memory_nb(self, nb_table):
        table, X, y = nb_table
        sql_nb = SQLNaiveBayes(alpha=1.0).fit(table, ["f0", "f1", "f2"], "label")
        mem_nb = CategoricalNB(alpha=1.0).fit(X, y)
        assert np.array_equal(sql_nb.predict_labels(table), mem_nb.predict(X))

    def test_accuracy(self, nb_table):
        table, _, _ = nb_table
        nb = SQLNaiveBayes().fit(table, ["f0", "f1", "f2"], "label")
        assert nb.score(table) > 0.7

    def test_predict_appends_column(self, nb_table):
        table, _, _ = nb_table
        nb = SQLNaiveBayes().fit(table, ["f0", "f1", "f2"], "label")
        out = nb.predict(table)
        assert "prediction" in out.schema

    def test_score_before_fit(self, nb_table):
        table, _, _ = nb_table
        with pytest.raises(NotFittedError):
            SQLNaiveBayes().score(table, "label")

    def test_alpha_validation(self):
        with pytest.raises(ModelError):
            SQLNaiveBayes(alpha=-1.0)

    def test_feature_columns_required(self, nb_table):
        table, _, _ = nb_table
        with pytest.raises(ModelError):
            SQLNaiveBayes().fit(table, [], "label")
