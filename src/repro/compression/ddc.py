"""Dense Dictionary Coding (DDC).

A dictionary of distinct value-tuples plus a dense per-row code array.
Best when column cardinality is low relative to row count. Kernels
aggregate over *codes* (cardinality-sized work) instead of rows wherever
possible: vector-matrix becomes a bincount over codes followed by a
dictionary-sized product.
"""

from __future__ import annotations

import numpy as np

from .colgroup import ColumnGroup, build_dictionary, code_bytes_for


class DDCGroup(ColumnGroup):
    """Dictionary + dense codes encoding for a set of columns."""

    scheme = "ddc"

    def __init__(
        self,
        col_indices: np.ndarray,
        dictionary: np.ndarray,
        codes: np.ndarray,
    ):
        super().__init__(col_indices, len(codes))
        self.dictionary = np.asarray(dictionary, dtype=np.float64)
        width = code_bytes_for(len(self.dictionary))
        dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32}[width]
        self.codes = np.asarray(codes).astype(dtype)

    @classmethod
    def encode(cls, col_indices: np.ndarray, panel: np.ndarray) -> "DDCGroup":
        """Encode a dense (n, k) panel."""
        dictionary, codes = build_dictionary(np.asarray(panel, dtype=np.float64))
        return cls(col_indices, dictionary, codes)

    @property
    def num_distinct(self) -> int:
        return len(self.dictionary)

    def matvec_add(self, v: np.ndarray, out: np.ndarray) -> None:
        # Pre-aggregate the dictionary: one product per distinct tuple,
        # then a gather over codes (np.take: the same values as fancy
        # indexing, without its index-array setup).
        dict_products = self.dictionary @ v[self.col_indices]
        out += np.take(dict_products, self.codes)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        # Sum u per code (cardinality-sized), then scale dictionary rows.
        sums = np.bincount(self.codes, weights=u, minlength=self.num_distinct)
        return sums @ self.dictionary

    def colsums(self) -> np.ndarray:
        counts = np.bincount(self.codes, minlength=self.num_distinct)
        return counts @ self.dictionary

    def decompress(self) -> np.ndarray:
        return self.dictionary[self.codes]

    def map_values(self, fn) -> "DDCGroup":
        # Codes cover every row, so mapping the dictionary is exact for
        # any elementwise fn — cardinality-sized work.
        return DDCGroup(self.col_indices, fn(self.dictionary), self.codes)

    def compressed_bytes(self) -> int:
        return self.dictionary.nbytes + self.codes.nbytes


def estimated_ddc_bytes(n: int, k: int, num_distinct: int) -> int:
    """Planner estimate of DDC storage for an (n, k) panel."""
    return num_distinct * k * 8 + n * code_bytes_for(num_distinct)
