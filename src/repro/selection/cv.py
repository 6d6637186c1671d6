"""Cross-validation with fold-materialization reuse.

A :class:`KFold` plan materializes fold index arrays once; every
configuration evaluated in a search session reuses the same folds, which
both removes per-config split cost and makes scores comparable — the
computation-sharing discipline of model-selection management systems.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import SelectionError


class KFold:
    """Deterministic k-fold split plan over n rows."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, seed: int | None = 0):
        if n_splits < 2:
            raise SelectionError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed
        self._folds: dict[int, list[np.ndarray]] = {}

    def folds(self, n: int) -> list[np.ndarray]:
        """Materialized fold index arrays for a dataset of n rows (cached)."""
        if n < self.n_splits:
            raise SelectionError(
                f"cannot split {n} rows into {self.n_splits} folds"
            )
        cached = self._folds.get(n)
        if cached is not None:
            return cached
        order = (
            np.random.default_rng(self.seed).permutation(n)
            if self.shuffle
            else np.arange(n)
        )
        folds = [np.sort(chunk) for chunk in np.array_split(order, self.n_splits)]
        self._folds[n] = folds
        return folds

    def split(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) per fold."""
        folds = self.folds(n)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test
