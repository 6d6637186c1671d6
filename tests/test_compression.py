"""Unit and property tests for compressed linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    CompressedMatrix,
    DDCGroup,
    OLEGroup,
    RLEGroup,
    UncompressedGroup,
    build_dictionary,
    count_runs,
    plan_column,
    plan_matrix,
)
from repro.data import (
    make_low_cardinality_matrix,
    make_run_matrix,
    make_sparse_matrix,
)
from repro.errors import CompressionError


@pytest.fixture
def panel(rng):
    """A (50, 2) low-cardinality panel."""
    values = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    codes = rng.integers(0, 3, size=50)
    return values[codes]


class TestDictionary:
    def test_build_dictionary_first_occurrence_order(self):
        panel = np.array([[2.0], [1.0], [2.0], [3.0]])
        dictionary, codes = build_dictionary(panel)
        assert dictionary[:, 0].tolist() == [2.0, 1.0, 3.0]
        assert codes.tolist() == [0, 1, 0, 2]

    def test_roundtrip(self, panel):
        dictionary, codes = build_dictionary(panel)
        assert np.array_equal(dictionary[codes], panel)

    def test_count_runs(self):
        assert count_runs(np.array([1, 1, 2, 2, 2, 1])) == 3
        assert count_runs(np.array([5])) == 1
        assert count_runs(np.array([])) == 0


@pytest.mark.parametrize("group_cls", [DDCGroup, OLEGroup, RLEGroup])
class TestGroupKernels:
    def _encode(self, group_cls, cols, panel):
        return group_cls.encode(np.asarray(cols), panel)

    def test_decompress_roundtrip(self, group_cls, panel):
        g = self._encode(group_cls, [0, 1], panel)
        assert np.allclose(g.decompress(), panel)

    def test_matvec(self, group_cls, panel, rng):
        g = self._encode(group_cls, [3, 4], panel)
        v = rng.standard_normal(6)
        out = np.zeros(len(panel))
        g.matvec_add(v, out)
        assert np.allclose(out, panel @ v[[3, 4]])

    def test_rmatvec(self, group_cls, panel, rng):
        g = self._encode(group_cls, [0, 1], panel)
        u = rng.standard_normal(len(panel))
        assert np.allclose(g.rmatvec(u), panel.T @ u)

    def test_colsums(self, group_cls, panel):
        g = self._encode(group_cls, [0, 1], panel)
        assert np.allclose(g.colsums(), panel.sum(axis=0))

    def test_compressed_smaller_than_dense(self, group_cls):
        column = np.repeat(np.arange(4.0), 250).reshape(-1, 1)
        g = self._encode(group_cls, [0], column)
        assert g.compressed_bytes() < g.dense_bytes()


class TestOLESpecifics:
    def test_zero_entries_implicit(self):
        column = np.zeros((100, 1))
        column[5, 0] = 7.0
        g = OLEGroup.encode(np.array([0]), column)
        assert g.num_distinct == 1  # zero tuple not stored
        assert np.allclose(g.decompress(), column)

    def test_all_zero_column(self, rng):
        g = OLEGroup.encode(np.array([0]), np.zeros((30, 1)))
        assert g.num_distinct == 0
        out = np.zeros(30)
        g.matvec_add(np.ones(1), out)
        assert not out.any()
        assert g.colsums().tolist() == [0.0]

    def test_malformed_construction_is_a_compression_error(self):
        cols, dictionary = np.array([0]), np.array([1.0, 2.0])
        with pytest.raises(CompressionError, match="one offset list"):
            OLEGroup(cols, 4, dictionary, [np.array([0])])
        with pytest.raises(CompressionError, match="default tuple"):
            OLEGroup(cols, 4, dictionary, [[0], [1]], default=np.zeros(2))


class TestRLESpecifics:
    def test_run_structure(self):
        column = np.array([1.0] * 10 + [2.0] * 5 + [1.0] * 3).reshape(-1, 1)
        g = RLEGroup.encode(np.array([0]), column)
        assert g.num_runs == 3
        assert g.num_distinct == 2

    def test_long_runs_compress_hard(self):
        column = np.repeat([1.0, 2.0], 5000).reshape(-1, 1)
        g = RLEGroup.encode(np.array([0]), column)
        assert g.dense_bytes() / g.compressed_bytes() > 100

    def test_unequal_run_arrays_are_a_compression_error(self):
        with pytest.raises(CompressionError, match="equal length"):
            RLEGroup(np.array([0]), 4, np.array([1.0]), [0, 2], [2], [0, 0])


class TestDDCSpecifics:
    def test_code_width_adapts(self, rng):
        few = DDCGroup.encode(
            np.array([0]), rng.integers(0, 5, 300).astype(float).reshape(-1, 1)
        )
        assert few.codes.dtype == np.uint8
        many = DDCGroup.encode(
            np.array([0]),
            np.arange(300.0).reshape(-1, 1),
        )
        assert many.codes.dtype == np.uint16


class TestPlanner:
    def test_low_cardinality_picks_ddc(self):
        X = make_low_cardinality_matrix(3000, 1, cardinality=6, seed=1)
        assert plan_column(X[:, 0], exact=True).scheme == "ddc"

    def test_runs_pick_rle(self):
        X = make_run_matrix(3000, 1, mean_run_length=200, seed=2)
        assert plan_column(X[:, 0], exact=True).scheme == "rle"

    def test_sparse_picks_ole(self):
        X = make_sparse_matrix(3000, 1, density=0.01, seed=3)
        assert plan_column(X[:, 0], exact=True).scheme == "ole"

    def test_random_stays_uncompressed(self, rng):
        column = rng.standard_normal(3000)
        assert plan_column(column, exact=True).scheme == "uncompressed"

    def test_sampled_plan_matches_exact_on_clear_cases(self):
        X = np.hstack(
            [
                make_low_cardinality_matrix(5000, 1, cardinality=5, seed=4),
                np.random.default_rng(5).standard_normal((5000, 1)),
            ]
        )
        sampled = plan_matrix(X, sample_fraction=0.05)
        exact = plan_matrix(X, exact=True)
        assert [p.scheme for p in sampled.columns] == [
            p.scheme for p in exact.columns
        ]

    def test_groups_cover_all_columns(self):
        X = make_low_cardinality_matrix(2000, 6, cardinality=4, seed=6)
        plan = plan_matrix(X, exact=True)
        covered = sorted(c for _, cols in plan.groups for c in cols)
        assert covered == list(range(6))

    def test_cocoding_merges_correlated_columns(self):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 4, 5000).astype(float)
        X = np.column_stack([base, base * 2.0, base + 1.0])  # perfectly co-coded
        plan = plan_matrix(X, exact=True)
        ddc_groups = [cols for scheme, cols in plan.groups if scheme == "ddc"]
        assert len(ddc_groups) == 1
        assert sorted(ddc_groups[0]) == [0, 1, 2]

    def test_empty_matrix_rejected(self):
        with pytest.raises(CompressionError):
            plan_matrix(np.empty((5, 0)))


class TestCompressedMatrix:
    def test_kernels_match_dense(self, rng):
        X = np.hstack(
            [
                make_low_cardinality_matrix(1000, 3, cardinality=5, seed=1),
                make_run_matrix(1000, 2, mean_run_length=50, seed=2),
                make_sparse_matrix(1000, 2, density=0.05, seed=3),
                rng.standard_normal((1000, 2)),
            ]
        )
        C = CompressedMatrix.compress(X)
        v = rng.standard_normal(9)
        u = rng.standard_normal(1000)
        assert np.allclose(C.matvec(v), X @ v)
        assert np.allclose(C.rmatvec(u), X.T @ u)
        assert np.allclose(C.colsums(), X.sum(axis=0))
        assert np.allclose(C.gram(), X.T @ X)
        assert np.allclose(C.decompress(), X)

    def test_transpose_view(self, rng):
        X = make_low_cardinality_matrix(300, 4, cardinality=5, seed=1)
        C = CompressedMatrix.compress(X)
        u = rng.standard_normal(300)
        U = rng.standard_normal((300, 3))
        assert np.allclose(C.T @ u, X.T @ u)
        assert np.allclose(C.T @ U, X.T @ U)
        assert C.T.T is C
        assert np.allclose(C.T.to_dense(), X.T)
        with pytest.raises(CompressionError):
            C.T @ np.ones((3, 2))

    def test_compression_ratio_on_compressible_data(self):
        X = make_run_matrix(5000, 4, mean_run_length=100, seed=4)
        C = CompressedMatrix.compress(X)
        assert C.compression_ratio > 10

    def test_incompressible_ratio_near_one(self, rng):
        X = rng.standard_normal((2000, 4))
        C = CompressedMatrix.compress(X)
        assert C.compression_ratio == pytest.approx(1.0, rel=0.01)

    def test_schemes_summary(self):
        X = make_low_cardinality_matrix(2000, 3, cardinality=4, seed=5)
        C = CompressedMatrix.compress(X)
        assert sum(C.schemes().values()) == len(C.groups)

    def test_vector_length_validation(self):
        X = make_low_cardinality_matrix(100, 2, seed=6)
        C = CompressedMatrix.compress(X)
        with pytest.raises(CompressionError):
            C.matvec(np.ones(5))
        with pytest.raises(CompressionError):
            C.rmatvec(np.ones(5))

    def test_group_coverage_validated(self, rng):
        X = rng.standard_normal((10, 2))
        group = UncompressedGroup(np.array([0]), X[:, :1])
        with pytest.raises(CompressionError, match="cover"):
            CompressedMatrix((10, 2), [group])

    @given(
        n=st.integers(20, 200),
        card=st.integers(1, 8),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_and_matvec(self, n, card, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(card) * 5
        X = values[rng.integers(0, card, (n, 3))]
        C = CompressedMatrix.compress(X)
        assert np.allclose(C.decompress(), X)
        v = rng.standard_normal(3)
        assert np.allclose(C.matvec(v), X @ v, atol=1e-9)
        u = rng.standard_normal(n)
        assert np.allclose(C.rmatvec(u), X.T @ u, atol=1e-9)


class TestEstimators:
    def test_distinct_estimator_exact_on_full_sample(self, rng):
        sample = rng.integers(0, 10, 500)
        from repro.compression import estimate_distinct

        assert estimate_distinct(sample, 500) == len(np.unique(sample))

    def test_distinct_estimator_extrapolates(self, rng):
        from repro.compression import estimate_distinct

        # 1000 distinct values, sample of 100: estimate should exceed sample count.
        population = np.arange(1000)
        sample = rng.choice(population, 100, replace=True)
        estimate = estimate_distinct(sample, 1000)
        assert estimate > len(np.unique(sample))
        assert estimate <= 1000

    def test_column_stats_sampling_close_to_exact(self):
        from repro.compression import estimate_column_stats, exact_column_stats

        X = make_run_matrix(10000, 1, mean_run_length=100, cardinality=4, seed=9)
        col = X[:, 0]
        exact = exact_column_stats(col)
        est = estimate_column_stats(col, sample_fraction=0.1, seed=1)
        assert est.num_distinct == exact.num_distinct
        assert est.num_runs == pytest.approx(exact.num_runs, rel=0.5)

    def test_sample_fraction_validation(self):
        from repro.compression import estimate_column_stats

        with pytest.raises(CompressionError):
            estimate_column_stats(np.ones(10), sample_fraction=0.0)
