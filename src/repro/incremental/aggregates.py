"""Incrementally maintained ML aggregates (F-IVM for linear models).

The factorized-learning layer reduces ridge/linear training to three
aggregates — the gram matrix ``X'X``, the cofactor vector ``X'y``, and
``y'y``. All three are *commutative group* aggregates: a delta of rows
contributes a term that can be added on insert and subtracted on
delete, so maintenance costs O(|delta| * d^2) instead of O(n * d^2) per
refresh.

The state here and the feature store's
:class:`~repro.features.store.FeatureRows` are what a
:class:`~repro.incremental.DeltaConsumer` maintains: ``rebuild(table)``
recomputes from the base table (the lineage path),
``fold_batch(deltas)`` folds every delta's new rows at ``+1`` and old
rows at ``-1`` as one signed batch, yielding the rows each counted, and
``same_bytes(table)`` is bitwise parity against a fresh rebuild.

Bit-parity discipline
---------------------
Floating-point addition is not associative, so a naively maintained sum
drifts from a full recomputation. Two mechanisms keep the parity gate
honest:

* **Grid data is exact.** :func:`snap_to_grid` quantizes inputs to the
  lattice ``{m * 2**-8 : |m| <= 2**12}``. Every pairwise product then
  needs at most 24 mantissa bits, and a sum of up to ``2**20`` of them
  at most 44 — under float64's 53. Every partial sum is exactly
  representable, so *any* accumulation order (incremental folds, one
  BLAS call, blocked, FMA) produces the identical bits, and a delete
  cancels its insert exactly. Tests and E25 assert **bitwise** equality
  on grid data.
* **Neumaier compensation bounds the general case.** Each accumulator
  is a (hi, comp) pair folded with the two-sum trick, so on arbitrary
  float data the maintained value stays within an ulp of the
  recomputed one. On grid data the compensation term is exactly zero,
  so it never perturbs the bitwise guarantee.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..errors import IncrementalError
from ..ml.linreg import Moments
from ..storage.table import Table

#: lattice spacing of the exact-arithmetic grid (2**-8).
GRID_QUANTUM = 1.0 / 256.0
#: magnitude bound of the grid (2**4); with ``n <= 2**20`` rows every
#: partial sum of pairwise products fits in float64's 53-bit mantissa.
GRID_BOUND = 16.0


def snap_to_grid(X: np.ndarray) -> np.ndarray:
    """Quantize values onto the exact-arithmetic lattice."""
    X = np.asarray(X, dtype=np.float64)
    return np.clip(
        np.round(X / GRID_QUANTUM) * GRID_QUANTUM, -GRID_BOUND, GRID_BOUND
    )


def _neumaier_fold(
    hi: np.ndarray, comp: np.ndarray, term: np.ndarray
) -> None:
    """Add ``term`` into the compensated accumulator pair, in place.

    Classic two-sum: whichever addend is smaller in magnitude donates
    the low-order bits the naive sum rounded away; they accumulate in
    ``comp``. When every sum is exact (grid data) ``comp`` stays 0.
    """
    total = hi + term
    big = np.abs(hi) >= np.abs(term)
    lost = np.where(big, (hi - total) + term, (term - total) + hi)
    comp += lost
    hi[...] = total


class GramCofactorState:
    """Maintained ``X'X`` / ``X'y`` / ``y'y`` over a dynamic table: one
    compensated ``[X y]'[X y]`` block, read as
    :class:`~repro.ml.linreg.Moments`.

    The refresh path solves through the same ``Moments.solve`` that
    :class:`repro.ml.linreg.LinearRegression` (``solver="normal"``,
    ``fit_intercept=False``) fits with, so on grid data a refreshed
    model is bit-identical to a from-scratch snapshot retrain.
    """

    def __init__(self, features: Sequence[str], label: str):
        self.features = list(features)
        self.label = label
        d = len(self.features)
        if d == 0:
            raise IncrementalError("at least one feature column required")
        self.n_rows = 0
        # [X y]'[X y] (gram, cofactor and y'y in one block) and the
        # low-order bits its sums lost
        self._hi, self._comp = np.zeros((2, d + 1, d + 1))

    # ------------------------------------------------------------------
    def rebuild(self, table: Table) -> "GramCofactorState":
        """Full recomputation from a base table (the lineage path)."""
        batch = Moments.of(
            table.to_matrix(self.features),
            table.column(self.label).astype(np.float64),
        )
        d = len(self.features)
        self._comp[...] = 0.0
        self._hi[:d, :d], self._hi[d, d] = batch.gram, batch.yty
        self._hi[:d, d] = self._hi[d, :d] = batch.xty
        self.n_rows = batch.n
        return self

    def fold_batch(self, deltas: Sequence) -> Iterator[int]:
        """Add every delta's ``rows`` and subtract its ``old_rows`` in one
        stacked signed product ``[X y]' diag(+-1) [X y]`` over all their
        rows and one compensated fold (on grid data the bits of one fold
        per delta). Every row of both halves counts: it is unkeyed."""
        parts = [
            (t, sign) for delta in deltas
            for t, sign in ((delta.rows, 1.0), (delta.old_rows, -1.0))
            if t is not None
        ]
        sizes = [t.num_rows for t, _ in parts]
        Xy = np.empty((len(self.features) + 1, sum(sizes)))
        for out, name in zip(Xy, [*self.features, self.label]):
            np.concatenate([t.column(name) for t, _ in parts], out=out)
        signs = np.repeat([sign for _, sign in parts], sizes)
        _neumaier_fold(self._hi, self._comp, (Xy * signs) @ Xy.T)
        self.n_rows += int(signs.sum())
        for delta in deltas:
            halves = (delta.rows, delta.old_rows)
            yield sum(t.num_rows for t in halves if t is not None)

    # ------------------------------------------------------------------
    def moments(self) -> Moments:
        return Moments.of_augmented(self._hi + self._comp, self.n_rows)

    def solve_ridge(self, l2: float = 0.0) -> np.ndarray:
        """Weights from the maintained aggregates, through the same
        closed form a batch fit uses."""
        return self.moments().solve(l2)

    # ------------------------------------------------------------------
    def same_bytes(self, table: Table) -> bool:
        """Maintained minus recomputed aggregates is all zeros."""
        fresh = GramCofactorState(self.features, self.label).rebuild(table)
        drift = self.moments() - fresh.moments()
        return not (
            drift.gram.any() or drift.xty.any() or drift.yty or drift.n
        )
