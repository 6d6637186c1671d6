"""Incrementally maintained ML aggregates (F-IVM for linear models).

The factorized-learning layer reduces ridge/linear training to three
aggregates — the gram matrix ``X'X``, the cofactor vector ``X'y``, and
``y'y`` — and k-means to per-cluster sums and counts. All four are
*commutative group* aggregates: a delta of rows contributes a term that
can be added on insert and subtracted on delete, so maintenance costs
O(|delta| * d^2) instead of O(n * d^2) per refresh.

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
from ..ml.kmeans import cluster_sums, move_centers, nearest_center_einsum
from ..ml.linreg import Moments
from ..storage.table import Table

#: lattice spacing of the exact-arithmetic grid (2**-8).
GRID_QUANTUM = 1.0 / 256.0
#: magnitude bound of the grid (2**4); with ``n <= 2**20`` rows every
#: partial sum of pairwise products fits in float64's 53-bit mantissa.
GRID_BOUND = 16.0


def snap_to_grid(
    X: np.ndarray,
    quantum: float = GRID_QUANTUM,
    bound: float = GRID_BOUND,
) -> np.ndarray:
    """Quantize values onto the exact-arithmetic lattice."""
    X = np.asarray(X, dtype=np.float64)
    return np.clip(np.round(X / quantum) * quantum, -bound, bound)


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
    @classmethod
    def from_table(
        cls, table: Table, features: Sequence[str], label: str
    ) -> "GramCofactorState":
        """Full recomputation from a base table (the lineage path)."""
        state = cls(features, label)
        state._fold(table, 1)
        return state

    def _fold(self, rows: Table, sign: int) -> int:
        """Add (``sign=1``) or subtract (``-1``) a batch's contribution."""
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

    def fold_insert(self, rows: Table) -> int:
        """Add a batch of rows' contribution; returns rows folded."""
        return self._fold(rows, 1)

    def fold_delete(self, rows: Table) -> int:
        """Subtract a batch of rows' contribution; returns rows folded."""
        return self._fold(rows, -1)

    # ------------------------------------------------------------------
    def moments(self) -> Moments:
        gram, xty, yty = (hi + comp for hi, comp in zip(self._hi, self._comp))
        return Moments(gram, xty, float(yty), self.n_rows)

    def gram(self) -> np.ndarray:
        return self.moments().gram

    def cofactor(self) -> np.ndarray:
        return self.moments().xty

    def solve_ridge(self, l2: float = 0.0) -> np.ndarray:
        """Weights from the maintained aggregates, through the same
        closed form a batch fit uses."""
        return self.moments().solve(l2)

    # ------------------------------------------------------------------
    def _drift(self, table: Table) -> Moments:
        """Maintained minus recomputed aggregates (all zero at parity)."""
        fresh = GramCofactorState.from_table(table, self.features, self.label)
        return self.moments() - fresh.moments()

    def parity_exact(self, table: Table) -> bool:
        """Bitwise equality of maintained vs recomputed aggregates."""
        drift = self._drift(table)
        return not (
            drift.gram.any() or drift.xty.any() or drift.yty or drift.n
        )

    def parity_error(self, table: Table) -> float:
        """Max absolute deviation of maintained vs recomputed aggregates."""
        drift = self._drift(table)
        return float(
            max(np.abs(drift.gram).max(), np.abs(drift.xty).max(), abs(drift.yty))
        )


class CentroidState:
    """Per-cluster sums/counts under *fixed reference centroids*.

    Assignment is a deterministic function of (row values, reference
    centroids) — :func:`repro.ml.kmeans.nearest_center_einsum`, the
    clipped-distance expression the factorized trainer evaluates — and
    each row's cluster is remembered by ``row_id``, so a delete subtracts
    from exactly the cluster its insert added to. :meth:`centroids` is one
    Lloyd step from the maintained statistics; :meth:`rebase` adopts
    refreshed centroids as the new reference via full recomputation.
    """

    def __init__(self, features: Sequence[str], centers: np.ndarray):
        self.features = list(features)
        self.centers = np.asarray(centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[1] != len(self.features):
            raise IncrementalError(
                f"centers shape {self.centers.shape} does not match "
                f"{len(self.features)} features"
            )
        k, d = self.centers.shape
        self.k = k
        self._sums_hi = np.zeros((k, d))
        self._sums_comp = np.zeros((k, d))
        self.counts = np.zeros(k, dtype=np.int64)
        self.assignments: dict[int, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: Table,
        features: Sequence[str],
        centers: np.ndarray,
        row_ids: np.ndarray,
    ) -> "CentroidState":
        """Full recomputation from a base table (the lineage path)."""
        state = cls(features, centers)
        X = table.to_matrix(state.features)
        labels = state.assign(X)
        state._sums_hi, state.counts = cluster_sums(X, labels, state.k)
        state.assignments = {
            int(rid): int(lab) for rid, lab in zip(row_ids, labels)
        }
        return state

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Deterministic nearest-reference-centroid labels."""
        return nearest_center_einsum(X, self.centers)[0]

    # ------------------------------------------------------------------
    def fold_insert(self, row_ids: Sequence[int], rows: Table) -> int:
        X = rows.to_matrix(self.features)
        labels = self.assign(X)
        for rid, lab, x in zip(row_ids, labels, X):
            _neumaier_fold(
                self._sums_hi[lab], self._sums_comp[lab], x
            )
            self.counts[lab] += 1
            self.assignments[int(rid)] = int(lab)
        return rows.num_rows

    def fold_delete(self, row_ids: Sequence[int], rows: Table) -> int:
        X = rows.to_matrix(self.features)
        for rid, x in zip(row_ids, X):
            lab = self.assignments.pop(int(rid), None)
            if lab is None:
                raise IncrementalError(
                    f"delete of unknown row id {int(rid)} in centroid state"
                )
            _neumaier_fold(self._sums_hi[lab], self._sums_comp[lab], -x)
            self.counts[lab] -= 1
        return rows.num_rows

    # ------------------------------------------------------------------
    def sums(self) -> np.ndarray:
        return self._sums_hi + self._sums_comp

    def centroids(self) -> np.ndarray:
        """One Lloyd step: per-cluster means, empty clusters keeping
        their reference center."""
        return move_centers(self.centers, self.sums(), self.counts)

    def rebase(self, table: Table, row_ids: np.ndarray) -> None:
        """Adopt the refreshed centroids as the new reference frame."""
        fresh = CentroidState.from_table(
            table, self.features, self.centroids(), row_ids
        )
        self.centers = fresh.centers
        self._sums_hi = fresh._sums_hi
        self._sums_comp = fresh._sums_comp
        self.counts = fresh.counts
        self.assignments = fresh.assignments

    # ------------------------------------------------------------------
    def parity_exact(self, table: Table, row_ids: np.ndarray) -> bool:
        fresh = CentroidState.from_table(
            table, self.features, self.centers, row_ids
        )
        return (
            np.array_equal(self.sums(), fresh.sums())
            and np.array_equal(self.counts, fresh.counts)
            and self.assignments == fresh.assignments
        )
