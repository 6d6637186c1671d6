"""The normalized matrix: linear algebra over a star schema without joining.

A :class:`NormalizedMatrix` represents the design matrix of a key–foreign
key join ``[S, R1[fk1], R2[fk2], ...]`` *logically*, while physically
keeping the entity table S and each attribute table R_i separate. The
Morpheus rewrites implement matrix ops on this form, on three primitives:

* ``X @ V``    — multiply each table once (n_r rows for R_i), then
  *gather* by fk (:meth:`~NormalizedMatrix.matmat`; a vector is the
  one-column case, and the per-row sums gather the same way);
* ``X.T @ U``  — *group-sum* U by fk, then multiply R_i.T
  (:func:`_group_sum`, :meth:`~NormalizedMatrix.rmatmat`);
* ``X.T @ X``  — one block rule for every pair of tables (:func:`_cross`).
  Two attribute tables meet through their distinct ``(fk_i, fk_j)``
  pairs, so memory is O(distinct pairs), never ``len(R_i) * len(R_j)``.

The arithmetic redundancy avoided is exactly the join's tuple
multiplication: each R row is touched once instead of once per matching
S row.

Exactness: on the ``GRID_QUANTUM`` lattice
(:func:`repro.incremental.snap_to_grid`) with n <= 2**20 rows, every
count-scaled row, group sum and block entry fits in 44 bits, so any
accumulation order is exact and :meth:`~NormalizedMatrix.gram` equals
the materialized ``X'X`` bitwise.

A :class:`repro.operand.Operand` (planned on its redundancy ratio) that
declares no ``encode``: a star schema cannot be invented from values,
so the planner only ever keeps a bound one.
"""

from __future__ import annotations

import numpy as np

from ..errors import FactorizationError
from ..operand import Operand


def _integral_keys(i: int, fk) -> np.ndarray:
    """Foreign keys as a 1-D int64 vector. A fractional, non-finite or
    non-numeric key is refused: the cast would truncate it and silently
    join another row, or fail deep inside a kernel."""
    fk = np.asarray(fk)
    if fk.ndim != 1 or fk.dtype.kind not in "biuf":
        raise FactorizationError(
            f"fk[{i}] must be a 1-D numeric vector, got shape {fk.shape} "
            f"of {fk.dtype}"
        )
    if fk.dtype.kind in "iu":
        return np.asarray(fk, dtype=np.int64)
    keys = np.asarray(fk, dtype=np.float64)
    bad = ~np.isfinite(keys) | (keys != np.floor(keys))
    if bad.any():
        raise FactorizationError(
            f"fk[{i}] has a non-integral key {float(keys[bad][0])!r} "
            f"at row {int(np.argmax(bad))}"
        )
    return keys.astype(np.int64)


def _group_sum(keys: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """Per-key sums of ``rows`` — a vector, or an (n, d) matrix into a
    C-contiguous (m, d) one. One ``bincount`` per column: it adds in row
    order, as ``np.add.at`` does."""
    if rows.ndim == 1:
        return np.bincount(keys, weights=rows, minlength=m)
    out = np.empty((m, rows.shape[1]))
    for j in range(rows.shape[1]):
        out[:, j] = np.bincount(keys, weights=rows[:, j], minlength=m)
    return out


def _cross(ka, Ta: np.ndarray, kb, Tb: np.ndarray) -> np.ndarray:
    """The ``Ta' Tb`` block of X'X, where joined row r reads table T at
    row ``k[r]`` (``k`` is ``None`` for S: row r itself)."""
    if Ta is Tb and ka is kb:  # a table against itself
        if ka is None:
            return Ta.T @ Ta
        counts = _group_sum(ka, np.ones(len(ka)), len(Ta))
        return (Ta.T * counts) @ Ta
    if ka is None:  # S against R: group-sum S rows by R's keys
        return _group_sum(kb, Ta, len(Tb)).T @ Tb
    # R_a against R_b: each distinct (kb, ka) pair once, scaled by its count
    pairs, counts = np.unique(kb * len(Ta) + ka, return_counts=True)
    ub, ua = np.divmod(pairs, len(Ta))
    return _group_sum(ub, counts[:, None] * Ta[ua], len(Tb)).T @ Tb


class NormalizedMatrix(Operand, kind="factorized"):
    """Design matrix of a star-schema join, kept factorized."""

    evidence_channel = "cla_ratio"

    def __init__(
        self,
        S: np.ndarray | None,
        fks: list[np.ndarray],
        Rs: list[np.ndarray],
    ):
        if len(fks) != len(Rs):
            raise FactorizationError(
                f"{len(fks)} foreign-key vectors for {len(Rs)} attribute tables"
            )
        if S is None and not Rs:
            raise FactorizationError("normalized matrix needs S or at least one R")

        self.Rs = [np.asarray(R, dtype=np.float64) for R in Rs]
        self.fks = [_integral_keys(i, fk) for i, fk in enumerate(fks)]

        lengths = {len(fk) for fk in self.fks}
        if S is not None:
            S = np.asarray(S, dtype=np.float64)
            if S.ndim != 2:
                raise FactorizationError(f"S must be 2-D, got shape {S.shape}")
            lengths.add(len(S))
        if len(lengths) != 1:
            raise FactorizationError(
                f"S and foreign keys disagree on row count: {sorted(lengths)}"
            )
        self.S = S
        self.n_rows = lengths.pop()

        for i, (fk, R) in enumerate(zip(self.fks, self.Rs)):
            if R.ndim != 2:
                raise FactorizationError(f"R[{i}] must be 2-D, got {R.shape}")
            if len(fk) and (fk.min() < 0 or fk.max() >= len(R)):
                raise FactorizationError(
                    f"fk[{i}] references rows outside R[{i}] (0..{len(R) - 1})"
                )

    # ------------------------------------------------------------------
    # Shape / statistics
    # ------------------------------------------------------------------
    @property
    def d_s(self) -> int:
        return self.S.shape[1] if self.S is not None else 0

    @property
    def d_rs(self) -> list[int]:
        return [R.shape[1] for R in self.Rs]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.d_s + sum(self.d_rs))

    def _blocks(self) -> list[tuple[np.ndarray | None, np.ndarray, slice]]:
        """``(keys, table, columns)`` for S (keys ``None``) and each R_i:
        the tables the logical design matrix joins, in column order."""
        tables = [(None, self.S)] if self.S is not None else []
        blocks, start = [], 0
        for keys, T in tables + list(zip(self.fks, self.Rs)):
            blocks.append((keys, T, slice(start, start + T.shape[1])))
            start += T.shape[1]
        return blocks

    # ------------------------------------------------------------------
    # Factorized kernels (the Morpheus rewrites)
    # ------------------------------------------------------------------
    def _gathered(self, per_table, tail: tuple = ()) -> np.ndarray:
        """Sum over tables of ``per_table(T, columns)`` — one value (or a
        ``tail``-shaped row) per table row — gathered onto the joined rows."""
        out = np.zeros((self.n_rows,) + tail)
        for keys, T, cols in self._blocks():
            part = per_table(T, cols)  # one product per table row
            out += part if keys is None else part[keys]  # gather
        return out

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """X @ V for a vector or a dense (d, k) matrix without
        materializing the join: each attribute table is multiplied once
        per output column instead of once per joined row."""
        V = np.asarray(V, dtype=np.float64)
        if V.ndim > 2 or V.shape[:1] != (self.shape[1],):
            raise FactorizationError(f"shape mismatch: {self.shape} @ {V.shape}")
        return self._gathered(lambda T, cols: T @ V[cols], V.shape[1:])

    matvec = matmat

    def rmatmat(self, U: np.ndarray) -> np.ndarray:
        """X.T @ U for a vector or a dense (n, k) matrix via group sums."""
        U = np.asarray(U, dtype=np.float64)
        if U.ndim > 2 or U.shape[:1] != (self.n_rows,):
            raise FactorizationError(
                f"shape mismatch: X.T ({self.shape[1]}, {self.n_rows}) @ {U.shape}"
            )
        return np.concatenate([
            T.T @ (U if keys is None else _group_sum(keys, U, len(T)))
            for keys, T, _ in self._blocks()
        ])

    rmatvec = rmatmat

    def sq_rowsums(self) -> np.ndarray:
        """Row sums of the squared logical design matrix.

        Per-row squared norms without the join: attribute-table rows'
        squared norms are computed once and gathered — the quantity
        factorized k-means needs every iteration.
        """
        return self._gathered(lambda T, _: np.einsum("ij,ij->i", T, T))

    def rowsums(self) -> np.ndarray:
        """Row sums of the logical design matrix, computed factorized."""
        return self._gathered(lambda T, _: T.sum(axis=1))

    def gram(self) -> np.ndarray:
        """X.T @ X, one :func:`_cross` block per pair of tables.

        The upper triangle is computed and mirrored. A diagonal block is
        computed whole: ``(R' * counts) @ R`` is not exactly symmetric.
        """
        blocks = self._blocks()
        out = np.zeros((self.shape[1],) * 2)
        for a, (ka, Ta, rows) in enumerate(blocks):
            out[rows, rows] = _cross(ka, Ta, ka, Ta)
            for kb, Tb, cols in blocks[a + 1 :]:
                out[rows, cols] = cross = _cross(ka, Ta, kb, Tb)
                out[cols, rows] = cross.T
        return out

    def colsums(self) -> np.ndarray:
        """Column sums of the logical design matrix."""
        return np.concatenate([
            T.sum(axis=0) if keys is None
            else _group_sum(keys, np.ones(self.n_rows), len(T)) @ T
            for keys, T, _ in self._blocks()
        ])

    def sq_sum(self) -> float:
        """Sum of squared logical cells (via per-table norms + counts)."""
        total = 0.0
        for keys, T, _ in self._blocks():
            if keys is None:
                total += float(np.einsum("ij,ij->", T, T))
            else:
                counts = _group_sum(keys, np.ones(self.n_rows), len(T))
                total += float(counts @ np.einsum("ij,ij->i", T, T))
        return total

    # ------------------------------------------------------------------
    # Elementwise value rewrites (no join)
    # ------------------------------------------------------------------
    def map_values(self, fn) -> "NormalizedMatrix":
        """New normalized matrix with ``fn`` applied to every logical cell.

        Elementwise maps commute with the fk gather, so applying ``fn``
        to S and each R_i once is exact — n_r-sized work instead of
        n_s-sized. ``fn`` must be a vectorized elementwise map.
        """
        S = fn(self.S) if self.S is not None else None
        return NormalizedMatrix(S, self.fks, [fn(R) for R in self.Rs])

    def materialize(self) -> np.ndarray:
        """The denormalized design matrix (what the join would produce)."""
        return np.hstack([
            T if keys is None else T[keys] for keys, T, _ in self._blocks()
        ])

    to_dense = materialize

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Bytes held by the factorized tables + foreign-key vectors."""
        tables = sum(T.nbytes for _, T, _ in self._blocks())
        return tables + sum(fk.nbytes for fk in self.fks)

    @property
    def redundancy_ratio(self) -> float:
        """Materialized cells / factorized cells (>1 means savings)."""
        factorized = sum(T.size for _, T, _ in self._blocks())
        return (self.n_rows * self.shape[1]) / max(factorized, 1)

    # ------------------------------------------------------------------
    # What the representation planner weighs (repro.operand)
    # ------------------------------------------------------------------
    def evidence(self) -> float:
        return self.redundancy_ratio

    @staticmethod
    def work_fraction(ratio: float) -> float:
        return 1.0 / max(ratio, 1.0)

    @staticmethod
    def plan_reason(ratio: float, bound: bool) -> str:
        return f"stay factorized, redundancy {ratio:.1f}x"
