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
``fold(row_ids, rows, sign)`` adds (``+1``) or subtracts (``-1``) one
batch and returns the rows it counted, and ``same_bytes(table)`` is
bitwise parity against a fresh rebuild.

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

from typing import Sequence

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
    """Maintained ``X'X`` / ``X'y`` / ``y'y`` over a dynamic table: a
    compensated pair of :class:`~repro.ml.linreg.Moments`.

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
        # (gram, cofactor, y'y) accumulators and their lost low-order bits
        self._hi = [np.zeros((d, d)), np.zeros(d), np.zeros(())]
        self._comp = [np.zeros((d, d)), np.zeros(d), np.zeros(())]

    # ------------------------------------------------------------------
    def rebuild(self, table: Table) -> "GramCofactorState":
        """Full recomputation from a base table (the lineage path)."""
        for acc in self._hi + self._comp:
            acc[...] = 0.0
        self.n_rows = 0
        self._accumulate(table, 1)
        return self

    def fold(self, row_ids: Sequence[int], rows: Table, sign: int) -> int:
        """Add (``sign=1``) or subtract (``-1``) a batch's contribution;
        every row is counted (the aggregates are unkeyed)."""
        return self._accumulate(rows, sign)

    def _accumulate(self, rows: Table, sign: int) -> int:
        batch = Moments.of(
            rows.to_matrix(self.features),
            rows.column(self.label).astype(np.float64),
        )
        for hi, comp, term in zip(
            self._hi, self._comp, (batch.gram, batch.xty, batch.yty)
        ):
            _neumaier_fold(hi, comp, sign * np.asarray(term))
        self.n_rows += sign * batch.n
        return batch.n

    # ------------------------------------------------------------------
    def moments(self) -> Moments:
        gram, xty, yty = (hi + comp for hi, comp in zip(self._hi, self._comp))
        return Moments(gram, xty, float(yty), self.n_rows)

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
