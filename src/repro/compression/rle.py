"""Run-Length Encoding (RLE).

Consecutive equal value-tuples collapse into (start, length, code) runs.
Best for sorted or temporally clustered data. Kernels work per run:
each run contributes a single scaled segment.
"""

from __future__ import annotations

import numpy as np

from ..errors import CompressionError
from .colgroup import ColumnGroup, build_dictionary, code_bytes_for

_RUN_FIXED_BYTES = 8  # uint32 start + uint32 length


class RLEGroup(ColumnGroup):
    """Dictionary + run list for a set of columns."""

    scheme = "rle"

    def __init__(
        self,
        col_indices: np.ndarray,
        num_rows: int,
        dictionary: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        run_codes: np.ndarray,
    ):
        super().__init__(col_indices, num_rows)
        self.dictionary = np.asarray(dictionary, dtype=np.float64)
        self.starts = np.asarray(starts, dtype=np.uint32)
        self.lengths = np.asarray(lengths, dtype=np.uint32)
        self.run_codes = np.asarray(run_codes, dtype=np.int64)
        if not (len(self.starts) == len(self.lengths) == len(self.run_codes)):
            raise CompressionError("run arrays must have equal length")

    @classmethod
    def encode(cls, col_indices: np.ndarray, panel: np.ndarray) -> "RLEGroup":
        """Encode a dense (n, k) panel into runs."""
        panel = np.asarray(panel, dtype=np.float64)
        dictionary, codes = build_dictionary(panel)
        n = len(codes)
        starts, lengths, run_codes = [], [], []
        i = 0
        while i < n:
            j = i + 1
            while j < n and codes[j] == codes[i]:
                j += 1
            starts.append(i)
            lengths.append(j - i)
            run_codes.append(codes[i])
            i = j
        return cls(
            col_indices,
            n,
            dictionary,
            np.array(starts),
            np.array(lengths),
            np.array(run_codes),
        )

    @property
    def num_runs(self) -> int:
        return len(self.starts)

    @property
    def num_distinct(self) -> int:
        return len(self.dictionary)

    def matvec_add(self, v: np.ndarray, out: np.ndarray) -> None:
        dict_products = self.dictionary @ v[self.col_indices]
        for start, length, code in zip(self.starts, self.lengths, self.run_codes):
            out[start : start + length] += dict_products[code]

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        sums = np.zeros(self.num_distinct)
        for start, length, code in zip(self.starts, self.lengths, self.run_codes):
            sums[code] += u[start : start + length].sum()
        return sums @ self.dictionary

    def colsums(self) -> np.ndarray:
        counts = np.zeros(self.num_distinct)
        for length, code in zip(self.lengths, self.run_codes):
            counts[code] += float(length)
        return counts @ self.dictionary

    def decompress(self) -> np.ndarray:
        out = np.empty((self.num_rows, self.num_cols))
        for start, length, code in zip(self.starts, self.lengths, self.run_codes):
            out[start : start + length] = self.dictionary[code]
        return out

    def map_values(self, fn) -> "RLEGroup":
        # Runs cover every row, so mapping the dictionary is exact for
        # any elementwise fn — cardinality-sized work.
        return RLEGroup(
            self.col_indices,
            self.num_rows,
            fn(self.dictionary),
            self.starts,
            self.lengths,
            self.run_codes,
        )

    def compressed_bytes(self) -> int:
        per_run = _RUN_FIXED_BYTES + code_bytes_for(self.num_distinct)
        return self.dictionary.nbytes + self.num_runs * per_run


def count_runs(column: np.ndarray) -> int:
    """Number of maximal equal-value runs in a 1-D array."""
    if len(column) == 0:
        return 0
    return int(1 + np.count_nonzero(column[1:] != column[:-1]))


def estimated_rle_bytes(n: int, k: int, num_distinct: int, num_runs: int) -> int:
    """Planner estimate of RLE storage for an (n, k) panel."""
    per_run = _RUN_FIXED_BYTES + code_bytes_for(num_distinct)
    return num_distinct * k * 8 + num_runs * per_run
