"""Unit tests for the extension modules: in-DB k-means, factorized
matmat and factorized k-means."""

import numpy as np
import pytest

from repro.data import make_blobs, make_star_schema
from repro.errors import FactorizationError, ModelError
from repro.factorized import NormalizedMatrix, factorized_kmeans
from repro.indb import train_kmeans_indb
from repro.ml import KMeans
from repro.storage import Table


class TestInDBKMeans:
    @pytest.fixture
    def blob_table(self):
        X, labels = make_blobs(300, 3, centers=4, cluster_std=0.4, seed=61)
        table = Table.from_columns({f"x{i}": X[:, i] for i in range(3)})
        return table, X, labels

    def test_converges_to_library_quality(self, blob_table):
        table, X, _ = blob_table
        indb = train_kmeans_indb(table, ["x0", "x1", "x2"], 4, seed=61)
        library = KMeans(4, n_init=1, init="random", seed=61).fit(X)
        assert indb.inertia <= library.inertia_ * 1.5

    def test_inertia_history_non_increasing(self, blob_table):
        table, _, _ = blob_table
        result = train_kmeans_indb(table, ["x0", "x1", "x2"], 3, seed=62)
        assert np.all(np.diff(result.inertia_history) <= 1e-6)

    def test_partitioned_equals_serial(self, blob_table):
        table, _, _ = blob_table
        serial = train_kmeans_indb(
            table, ["x0", "x1", "x2"], 3, seed=63, partitions=1
        )
        parallel = train_kmeans_indb(
            table, ["x0", "x1", "x2"], 3, seed=63, partitions=5
        )
        # Assign+accumulate is exact under merge: identical trajectories.
        assert np.allclose(serial.centroids, parallel.centroids)

    def test_validation(self, blob_table):
        table, _, _ = blob_table
        with pytest.raises(ModelError):
            train_kmeans_indb(table, [], 3)
        with pytest.raises(ModelError):
            train_kmeans_indb(table, ["x0"], 0)
        with pytest.raises(ModelError):
            train_kmeans_indb(table.head(2), ["x0"], 5)


class TestFactorizedMatmat:
    @pytest.fixture
    def nm_and_dense(self, star):
        return NormalizedMatrix(star.S, [star.fk], [star.R]), star.materialize()

    def test_matmat_matches_dense(self, nm_and_dense, rng):
        nm, X = nm_and_dense
        V = rng.standard_normal((X.shape[1], 5))
        assert np.allclose(nm.matmat(V), X @ V)

    def test_rmatmat_matches_dense(self, nm_and_dense, rng):
        nm, X = nm_and_dense
        U = rng.standard_normal((X.shape[0], 4))
        assert np.allclose(nm.rmatmat(U), X.T @ U)

    def test_sq_rowsums_matches_dense(self, nm_and_dense):
        nm, X = nm_and_dense
        assert np.allclose(nm.sq_rowsums(), np.einsum("ij,ij->i", X, X))

    def test_matmat_shape_validation(self, nm_and_dense):
        nm, _ = nm_and_dense
        with pytest.raises(FactorizationError):
            nm.matmat(np.ones((3, 2)))
        with pytest.raises(FactorizationError):
            nm.rmatmat(np.ones((3, 2)))

    def test_1d_falls_back_to_matvec(self, nm_and_dense, rng):
        nm, X = nm_and_dense
        v = rng.standard_normal(X.shape[1])
        assert np.allclose(nm.matmat(v), X @ v)


class TestFactorizedKMeans:
    def test_matches_dense_kmeans_quality(self):
        star = make_star_schema(n_s=600, n_r=30, d_s=3, d_r=5, seed=66)
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        X = star.materialize()
        fact = factorized_kmeans(nm, 4, seed=66)
        dense = KMeans(4, n_init=1, init="random", seed=66).fit(X)
        assert fact.inertia <= dense.inertia_ * 1.5
        assert fact.labels.shape == (600,)

    def test_inertia_history_non_increasing(self, star):
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        result = factorized_kmeans(nm, 3, seed=67)
        assert np.all(np.diff(result.inertia_history) <= 1e-6)

    def test_validation(self, star):
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        with pytest.raises(FactorizationError):
            factorized_kmeans(star.materialize(), 3)
        with pytest.raises(FactorizationError):
            factorized_kmeans(nm, 0)
