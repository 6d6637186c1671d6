"""Column groups: the unit of compression in CLA.

A compressed matrix is a set of column groups, each covering a disjoint
subset of columns with one encoding scheme. Every group supports the
linear-algebra kernels (matrix-vector, vector-matrix, column sums)
*directly on the compressed representation* — decompression is only for
fallback and testing. This mirrors the column-group architecture of
Compressed Linear Algebra (Elgohary et al., PVLDB 2016), which the
tutorial surveys as the storage advance for declarative ML.
"""

from __future__ import annotations

import numpy as np

from ..errors import CompressionError


class ColumnGroup:
    """Base class: a set of columns under one encoding."""

    #: scheme tag used by the planner and tests
    scheme: str = "base"

    def __init__(self, col_indices: np.ndarray, num_rows: int):
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        if len(self.col_indices) == 0:
            raise CompressionError("column group must cover at least one column")
        self.num_rows = int(num_rows)

    @property
    def num_cols(self) -> int:
        return len(self.col_indices)

    # -- kernels ---------------------------------------------------------
    def matvec_add(self, v: np.ndarray, out: np.ndarray) -> None:
        """out += X[:, cols] @ v[cols] (contribution of this group)."""
        raise NotImplementedError

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X[:, cols].T @ u, one value per covered column."""
        raise NotImplementedError

    def colsums(self) -> np.ndarray:
        """Column sums over this group's columns."""
        raise NotImplementedError

    def decompress(self) -> np.ndarray:
        """Dense (num_rows, num_cols) array for the covered columns."""
        raise NotImplementedError

    def map_values(self, fn) -> "ColumnGroup":
        """New group with ``fn`` applied to every logical cell.

        ``fn`` must be a vectorized elementwise map (numpy ufunc or
        equivalent). Dictionary-coded schemes apply it to the dictionary
        (cardinality-sized work) instead of the n-row panel, which is
        what makes scalar ops on compressed matrices cheap.
        """
        raise NotImplementedError

    def compressed_bytes(self) -> int:
        """Actual storage footprint of the encoded representation."""
        raise NotImplementedError

    def dense_bytes(self) -> int:
        return self.num_rows * self.num_cols * 8


class UncompressedGroup(ColumnGroup):
    """Pass-through group for incompressible columns."""

    scheme = "uncompressed"

    def __init__(self, col_indices: np.ndarray, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise CompressionError("uncompressed group expects a 2-D panel")
        super().__init__(col_indices, values.shape[0])
        if values.shape[1] != self.num_cols:
            raise CompressionError(
                f"panel has {values.shape[1]} columns for {self.num_cols} indices"
            )
        self.values = values

    def matvec_add(self, v: np.ndarray, out: np.ndarray) -> None:
        out += self.values @ v[self.col_indices]

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        return self.values.T @ u

    def colsums(self) -> np.ndarray:
        return self.values.sum(axis=0)

    def decompress(self) -> np.ndarray:
        return self.values

    def map_values(self, fn) -> "UncompressedGroup":
        return UncompressedGroup(self.col_indices, fn(self.values))

    def compressed_bytes(self) -> int:
        return self.values.nbytes


def build_dictionary(
    panel: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct row-tuples of a (n, k) panel, in first-occurrence order.

    Rows are equal iff their bytes are: -0.0 and 0.0 are two entries, NaNs
    with one payload are one. The build is vectorized, O(n log n): each
    column's word ranks fold into one int64 mixed-radix key per row
    (re-densified before the radix product reaches 2**62), and one
    ``np.unique`` of the keys finds each entry's first row.

    Returns:
        (dictionary, codes): (K, k) float64 distinct tuples and (n,)
        int64 indices into them.
    """
    panel = np.ascontiguousarray(panel)
    key, width = np.zeros(len(panel), dtype=np.int64), 1
    for column in panel.view(f"u{panel.itemsize}").T:
        values, ranks = np.unique(column, return_inverse=True)
        if width * len(values) >= 1 << 62:
            distinct, key = np.unique(key, return_inverse=True)
            width = len(distinct)
        key = key * len(values) + ranks
        width *= len(values)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return panel[first[order]].astype(np.float64), np.argsort(order)[inverse]


def code_bytes_for(num_distinct: int) -> int:
    """Bytes per code needed to address a dictionary of the given size."""
    if num_distinct <= 256:
        return 1
    if num_distinct <= 65536:
        return 2
    return 4
