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
    estimate_distinct,
    estimate_joint_distinct,
    plan_column,
    plan_matrix,
)
from repro.compression.estimators import MIN_SAMPLE
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


def _dictionary_oracle(panel):
    """The per-row loop: one dict probe on each row's bytes."""
    n = panel.shape[0]
    mapping: dict[bytes, int] = {}
    codes = np.empty(n, dtype=np.int64)
    rows: list[np.ndarray] = []
    for i in range(n):
        key = panel[i].tobytes()
        code = mapping.get(key)
        if code is None:
            code = len(rows)
            mapping[key] = code
            rows.append(panel[i])
        codes[i] = code
    shape = (len(rows), panel.shape[1])
    return np.array(rows, dtype=np.float64).reshape(shape), codes


def _runs_oracle(codes):
    """(starts, lengths, run_codes) by walking the codes row by row."""
    starts, lengths, run_codes = [], [], []
    i = 0
    while i < len(codes):
        j = i + 1
        while j < len(codes) and codes[j] == codes[i]:
            j += 1
        starts.append(i)
        lengths.append(j - i)
        run_codes.append(codes[i])
        i = j
    return (
        np.array(starts, dtype=np.uint32),
        np.array(lengths, dtype=np.uint32),
        np.array(run_codes, dtype=np.int64),
    )


def _joint_distinct_oracle(columns, sample_fraction=0.05):
    """The co-coding estimate from a list of per-row ``bytes`` objects."""
    n = len(columns[0])
    size = min(n, max(MIN_SAMPLE, int(n * sample_fraction)))
    rng = np.random.default_rng(0)
    if size >= n:
        idx = np.arange(n)
    else:
        idx = rng.choice(n, size=size, replace=False)
    stacked = np.column_stack([c[idx] for c in columns])
    return estimate_distinct(np.array([row.tobytes() for row in stacked]), n)


#: +-0.0, two NaN payloads, a negative NaN, +-inf, a subnormal and two
#: ordinary values, as bit patterns so no float op can touch a payload
_BIT_POOL = np.array(
    [0x0, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
     0xFFF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x1,
     0x3FF0000000000000, 0xC004000000000000],
    dtype=np.uint64,
)


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def e3_datasets():
    """E3's four datasets (bench_compression.py)."""
    n, d = 50_000, 10
    return {
        "random dense": np.random.default_rng(17).standard_normal((n, d)),
        "low-cardinality": make_low_cardinality_matrix(
            n, d, cardinality=10, seed=1
        ),
        "run-structured": make_run_matrix(n, d, mean_run_length=200, seed=2),
        "sparse (1%)": make_sparse_matrix(n, d, density=0.01, seed=3),
    }


class TestDictionary:
    def test_build_dictionary_first_occurrence_order(self):
        panel = np.array([[2.0], [1.0], [2.0], [3.0]])
        dictionary, codes = build_dictionary(panel)
        assert dictionary[:, 0].tolist() == [2.0, 1.0, 3.0]
        assert codes.tolist() == [0, 1, 0, 2]

    def test_roundtrip(self, panel):
        dictionary, codes = build_dictionary(panel)
        assert np.array_equal(dictionary[codes], panel)

    @given(
        n=st.integers(0, 300),
        k=st.integers(1, 6),
        distinct=st.integers(1, len(_BIT_POOL)),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_encodings_match_the_per_row_oracle(
        self, n, k, distinct, strided, seed
    ):
        rng = np.random.default_rng(seed)
        pool = rng.choice(_BIT_POOL, distinct, replace=False)
        panel = pool[rng.integers(0, distinct, (n, k))].view(np.float64)
        if strided:  # a non-contiguous view of the same rows
            panel = np.repeat(panel, 2, axis=1)[:, ::2]
        expected, expected_codes = _dictionary_oracle(panel)
        dictionary, codes = build_dictionary(panel)
        _assert_same_bytes(dictionary, expected)
        _assert_same_bytes(codes, expected_codes)

        cols = np.arange(k)
        rle = RLEGroup.encode(cols, panel)
        runs = (rle.starts, rle.lengths, rle.run_codes)
        for got, want in zip(runs, _runs_oracle(expected_codes)):
            _assert_same_bytes(got, want)
        _assert_same_bytes(rle.dictionary, expected)

        ole = OLEGroup.encode(cols, panel)
        keep = [i for i, row in enumerate(expected) if np.any(row != 0.0)]
        _assert_same_bytes(ole.dictionary, expected[keep])
        assert len(ole.offset_lists) == len(keep)
        for got, i in zip(ole.offset_lists, keep):
            _assert_same_bytes(
                got, np.where(expected_codes == i)[0].astype(np.uint32)
            )

    def test_key_overflow_redensifies(self):
        # 70 000 distinct values per column: the radix product of four
        # columns (70 000**4) passes 2**62, of three it does not. Rows 0
        # and 1 have ranks (0, 0, 0, 0) and the base-70 000 digits of
        # 2**64, so a key folded without re-densifying wraps both to 0.
        width, rng = 70_000, np.random.default_rng(11)
        assert width**3 < 2**62 <= width**4
        digits = [2**64 // width ** (3 - j) % width for j in range(4)]
        columns = []
        for digit in digits:
            rest = np.setdiff1d(np.arange(width), [0, digit])
            columns.append(np.concatenate([[0, digit], rng.permutation(rest)]))
        panel = np.column_stack(columns).astype(np.float64)
        expected, expected_codes = _dictionary_oracle(panel)
        dictionary, codes = build_dictionary(panel)
        _assert_same_bytes(dictionary, expected)
        _assert_same_bytes(codes, expected_codes)
        assert codes[:2].tolist() == [0, 1]

    def test_empty_panel_is_an_empty_dictionary(self):
        dictionary, codes = build_dictionary(np.zeros((0, 3)))
        assert dictionary.shape == (0, 3) and dictionary.dtype == np.float64
        assert codes.shape == (0,) and codes.dtype == np.int64

    @pytest.mark.parametrize("group_cls", [DDCGroup, OLEGroup, RLEGroup])
    def test_empty_panel_encodes(self, group_cls):
        group = group_cls.encode(np.array([0, 1]), np.zeros((0, 2)))
        assert group.num_rows == 0
        assert group.decompress().shape == (0, 2)
        assert group.colsums().tolist() == [0.0, 0.0]

    def test_joint_distinct_matches_the_bytes_list_estimate(self, e3_datasets):
        for X in e3_datasets.values():
            for members in ([0, 1], [2, 5, 9], list(range(X.shape[1]))):
                columns = [X[:, j] for j in members]
                assert estimate_joint_distinct(columns) == (
                    _joint_distinct_oracle(columns)
                )

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


def _ddc_matvec_oracle(g, v, out):
    """DDC's gather by fancy indexing, before ``np.take``."""
    out += (g.dictionary @ v[g.col_indices])[g.codes]


def _rle_matvec_oracle(g, v, out):
    """RLE's per-run loop, before the one ``np.repeat``."""
    dict_products = g.dictionary @ v[g.col_indices]
    for start, length, code in zip(g.starts, g.lengths, g.run_codes):
        out[start : start + length] += dict_products[code]


def _ole_matvec_oracle(g, v, out):
    """OLE's per-entry loop, before the one flat scatter."""
    v_part = v[g.col_indices]
    base = float(g.default @ v_part)
    if base != 0.0:
        out += base
    for entry, offsets in zip(g.dictionary, g.offset_lists):
        out[offsets] += float(entry @ v_part) - base


_MATVEC_ORACLES = {
    DDCGroup: _ddc_matvec_oracle,
    RLEGroup: _rle_matvec_oracle,
    OLEGroup: _ole_matvec_oracle,
}


def _assert_matvec_matches_its_oracle(group, v, out0):
    got, want = out0.copy(), out0.copy()
    group.matvec_add(v, got)
    _MATVEC_ORACLES[type(group)](group, v, want)
    _assert_same_bytes(got, want)


class TestMatvecKernels:
    """``matvec_add`` adds each row's product once, so it keeps the bits
    of the loop (or fancy-indexed gather) it replaced."""

    @given(
        n=st.integers(0, 300),
        k=st.integers(1, 4),
        distinct=st.integers(1, 8),
        sorted_codes=st.booleans(),
        shift=st.sampled_from([0.0, 1.5, -0.25]),
        empty_entry=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_their_loops(
        self, n, k, distinct, sorted_codes, shift, empty_entry, seed
    ):
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((distinct, k))
        pool[rng.random(distinct) < 0.3] = 0.0  # implicit rows for OLE
        codes = rng.integers(0, distinct, n)
        if sorted_codes:  # long runs
            codes = np.sort(codes)
        panel = pool[codes]
        cols = rng.permutation(k + 2)[:k]
        v = rng.standard_normal(k + 2)
        v[rng.random(k + 2) < 0.2] = -0.0
        out0 = rng.standard_normal(n)
        for cls in (DDCGroup, RLEGroup, OLEGroup):
            group = cls.encode(cols, panel)
            if shift:  # X + c: OLE gets a non-zero default
                group = group.map_values(lambda a: a + shift)
            _assert_matvec_matches_its_oracle(group, v, out0)
        if empty_entry:  # an entry no row carries
            ole = OLEGroup.encode(cols, panel)
            ole = OLEGroup(
                cols,
                n,
                np.vstack([ole.dictionary, np.full((1, k), 2.0)]),
                [*ole.offset_lists, []],
                default=np.full(k, shift),
            )
            _assert_matvec_matches_its_oracle(ole, v, out0)

    @pytest.mark.parametrize(
        "distinct, dtype",
        [(256, np.uint8), (257, np.uint16), (65_537, np.uint32)],
    )
    def test_every_code_width(self, distinct, dtype):
        rng = np.random.default_rng(distinct)
        n = distinct + 1_000
        extra = rng.integers(0, distinct, n - distinct)
        codes = rng.permutation(np.concatenate([np.arange(distinct), extra]))
        column = rng.standard_normal(distinct)[codes].reshape(-1, 1)
        v, out0 = rng.standard_normal(3), rng.standard_normal(n)
        ddc = DDCGroup.encode(np.array([2]), column)
        assert ddc.codes.dtype == dtype
        for group in (
            ddc,
            RLEGroup.encode(np.array([2]), column),
            OLEGroup.encode(np.array([2]), column),
            OLEGroup.encode(np.array([2]), column).map_values(lambda a: a - 1.0),
        ):
            assert group.num_distinct == distinct
            _assert_matvec_matches_its_oracle(group, v, out0)

    def test_offset_lists_are_views_of_one_array(self, panel):
        g = OLEGroup.encode(np.array([0, 1]), panel)
        assert all(np.shares_memory(o, g.offsets) for o in g.offset_lists)
        assert g.compressed_bytes() == (
            g.dictionary.nbytes + g.default.nbytes + 4 * len(panel)
        )


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

    def test_zero_rows_rejected_naming_the_shape(self):
        with pytest.raises(CompressionError, match=r"\(0, 3\)"):
            plan_matrix(np.zeros((0, 3)))
        with pytest.raises(CompressionError, match=r"\(0, 3\)"):
            CompressedMatrix.compress(np.zeros((0, 3)))


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
