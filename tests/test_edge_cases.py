"""Failure-injection and boundary-condition tests across subsystems."""

import numpy as np
import pytest

from repro.algorithms import pca_dsl
from repro.compression import CompressedMatrix
from repro.errors import (
    CompressionError,
    ExecutionError,
    ModelError,
    SchemaError,
    StorageError,
)
from repro.ml import KMeans, LinearRegression, StandardScaler
from repro.storage import (
    Table,
    agg,
    col,
    filter_rows,
    group_by,
    hash_join,
    order_by,
)


class TestEmptyTables:
    @pytest.fixture
    def empty(self):
        return Table.from_columns({"k": np.zeros(0, np.int64), "v": np.zeros(0)})

    def test_filter_empty(self, empty):
        out = filter_rows(empty, col("v") > 0)
        assert out.num_rows == 0

    def test_group_by_empty_gives_no_groups(self, empty):
        out = group_by(empty, ["k"], [agg("count")])
        assert out.num_rows == 0

    def test_join_with_empty_build_side(self, people_table):
        build = Table.from_columns({"id": np.zeros(0, np.int64), "v": np.zeros(0)})
        out = hash_join(people_table, build, on="id")
        assert out.num_rows == 0

    def test_left_join_with_empty_build_side(self, people_table):
        build = Table.from_columns({"id": np.zeros(0, np.int64), "v": np.zeros(0)})
        out = hash_join(people_table, build, on="id", how="left")
        assert out.num_rows == people_table.num_rows
        assert np.isnan(out.column("v")).all()

    def test_join_with_empty_probe_side(self, people_table):
        probe = Table.from_columns({"id": np.zeros(0, np.int64), "v": np.zeros(0)})
        out = hash_join(probe, people_table, on="id")
        assert out.num_rows == 0

    def test_order_by_empty(self, empty):
        assert order_by(empty, ["v"]).num_rows == 0


class TestDegenerateMatrices:
    def test_single_row_regression(self):
        model = LinearRegression().fit(np.array([[1.0, 2.0]]), np.array([3.0]))
        assert np.isfinite(model.coef_).all()

    def test_single_column_compression(self):
        X = np.ones((100, 1)) * 5.0
        C = CompressedMatrix.compress(X)
        assert np.allclose(C.decompress(), X)
        assert C.compression_ratio > 10  # constant column is very cheap

    def test_constant_matrix_pca(self):
        X = np.full((20, 3), 2.5)
        result = pca_dsl(X, 2)
        assert np.allclose(result.explained_variance, 0.0)  # no variance
        assert np.allclose(result.mean, 2.5)

    def test_kmeans_k_equals_n(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        model = KMeans(n_clusters=3, seed=0).fit(X)
        assert model.inertia_ == pytest.approx(0.0)

    def test_scaler_single_row(self):
        Z = StandardScaler().fit_transform(np.array([[3.0, 4.0]]))
        assert np.allclose(Z, 0.0)

    def test_compress_1xn_matrix(self):
        X = np.array([[1.0, 2.0, 3.0]])
        C = CompressedMatrix.compress(X)
        assert np.allclose(C.matvec(np.ones(3)), X @ np.ones(3))


class TestNumericHazards:
    def test_huge_values_in_linreg(self):
        X = np.array([[1e12], [2e12], [3e12]])
        y = np.array([1e12, 2e12, 3e12])
        model = LinearRegression().fit(X, y)
        assert model.coef_[0] == pytest.approx(1.0, rel=1e-6)

    def test_mixed_scale_features(self, rng):
        X = np.column_stack(
            [rng.standard_normal(100) * 1e9, rng.standard_normal(100) * 1e-9]
        )
        y = X[:, 0] * 1e-9 + X[:, 1] * 1e9
        model = LinearRegression(solver="qr").fit(X, y)
        assert model.score(X, y) > 0.99

    def test_executor_propagates_nonfinite(self):
        from repro.lang import matrix, sqrt
        from repro.runtime import execute

        X = matrix("X", (2, 2))
        with np.errstate(all="ignore"):
            out = execute(sqrt(X), {"X": np.array([[-1.0, 1.0], [1.0, 1.0]])})
        assert np.isnan(out[0, 0])  # sqrt of negative: NaN, not a crash


class TestSchemaHazards:
    def test_join_on_missing_column(self, people_table, cities_table):
        with pytest.raises(SchemaError):
            hash_join(people_table, cities_table, on="nonexistent")

    def test_aggregate_on_string_column(self, people_table):
        with pytest.raises(StorageError):
            group_by(people_table, ["city"], [agg("sum", "city")])

    def test_with_column_type_replacement_visible_in_schema(self, people_table):
        out = people_table.with_column("age", ["a", "b", "c", "d", "e"])
        from repro.storage import ColumnType

        assert out.schema.type_of("age") == ColumnType.STR


class TestModelMisuse:
    def test_predict_with_wrong_width(self, regression_data):
        X, y, _ = regression_data
        model = LinearRegression().fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.ones((3, X.shape[1] + 2)))

    def test_fit_y_with_nan_label_regression(self, regression_data):
        X, y, _ = regression_data
        y = y.copy()
        y[0] = np.nan
        # NaN labels silently poison the normal equations; the result
        # must at least be detectable (non-finite), never a wrong model.
        model = LinearRegression().fit(X, y)
        assert not np.isfinite(model.coef_).all() or not np.isfinite(
            model.intercept_
        )

    def test_compression_of_empty_width(self):
        with pytest.raises(CompressionError):
            CompressedMatrix.compress(np.empty((10, 0)))

    def test_executor_rejects_extra_binding_shape(self):
        from repro.lang import matrix, sumall
        from repro.runtime import execute

        X = matrix("X", (3, 3))
        with pytest.raises(ExecutionError):
            execute(sumall(X), {"X": np.ones((3, 4))})
