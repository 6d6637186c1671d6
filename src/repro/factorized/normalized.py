"""The normalized matrix: linear algebra over a star schema without joining.

A :class:`NormalizedMatrix` represents the design matrix of a key–foreign
key join ``[S, R1[fk1], R2[fk2], ...]`` *logically*, while physically
keeping the entity table S and each attribute table R_i separate. The
Morpheus rewrites implement matrix ops on this form:

* ``X @ v``    — multiply each R_i once (n_r rows), then *gather* by fk;
* ``X.T @ u``  — *scatter-add* u by fk (group sums), then multiply R_i.T;
* ``X.T @ X``  — block Gram matrix from group counts and group sums.

The arithmetic redundancy avoided is exactly the join's tuple
multiplication: each R row is touched once instead of once per matching
S row.

A :class:`repro.operand.Operand` (planned on its redundancy ratio) that
declares no ``encode``: a star schema cannot be invented from values,
so the planner only ever keeps a bound one.
"""

from __future__ import annotations

import numpy as np

from ..errors import FactorizationError
from ..operand import Operand


def _integral_keys(i: int, fk) -> np.ndarray:
    """Foreign keys as int64. A fractional or non-finite key is refused:
    the cast would truncate it and silently join another row."""
    fk = np.asarray(fk)
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

    def column_offsets(self) -> list[int]:
        """Start column of S and of each R_i in the logical design matrix."""
        offsets = [0]
        cursor = self.d_s
        for d in self.d_rs:
            offsets.append(cursor)
            cursor += d
        return offsets

    # ------------------------------------------------------------------
    # Factorized kernels (the Morpheus rewrites)
    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X @ v without materializing the join."""
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if len(v) != self.shape[1]:
            raise FactorizationError(
                f"vector length {len(v)} != num columns {self.shape[1]}"
            )
        out = np.zeros(self.n_rows)
        cursor = 0
        if self.S is not None:
            out += self.S @ v[: self.d_s]
            cursor = self.d_s
        for fk, R in zip(self.fks, self.Rs):
            d = R.shape[1]
            partial = R @ v[cursor : cursor + d]  # one product per R row
            out += partial[fk]  # gather
            cursor += d
        return out

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X.T @ u without materializing the join."""
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if len(u) != self.n_rows:
            raise FactorizationError(
                f"vector length {len(u)} != num rows {self.n_rows}"
            )
        parts = []
        if self.S is not None:
            parts.append(self.S.T @ u)
        for fk, R in zip(self.fks, self.Rs):
            grouped = np.bincount(fk, weights=u, minlength=len(R))  # scatter-add
            parts.append(R.T @ grouped)
        return np.concatenate(parts) if parts else np.empty(0)

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """X @ V for a dense (d, k) matrix, one gather per block.

        The multi-column generalization of :meth:`matvec`: each attribute
        table is multiplied once per output column instead of once per
        joined row.
        """
        V = np.asarray(V, dtype=np.float64)
        if V.ndim == 1:
            return self.matvec(V)
        if V.shape[0] != self.shape[1]:
            raise FactorizationError(
                f"shape mismatch: {self.shape} @ {V.shape}"
            )
        out = np.zeros((self.n_rows, V.shape[1]))
        cursor = 0
        if self.S is not None:
            out += self.S @ V[: self.d_s]
            cursor = self.d_s
        for fk, R in zip(self.fks, self.Rs):
            d = R.shape[1]
            partial = R @ V[cursor : cursor + d]  # (n_r, k)
            out += partial[fk]
            cursor += d
        return out

    def rmatmat(self, U: np.ndarray) -> np.ndarray:
        """X.T @ U for a dense (n, k) matrix via grouped scatter-adds."""
        U = np.asarray(U, dtype=np.float64)
        if U.ndim == 1:
            return self.rmatvec(U)
        if U.shape[0] != self.n_rows:
            raise FactorizationError(
                f"shape mismatch: X.T ({self.shape[1]}, {self.n_rows}) @ {U.shape}"
            )
        parts = []
        if self.S is not None:
            parts.append(self.S.T @ U)
        for fk, R in zip(self.fks, self.Rs):
            grouped = np.zeros((len(R), U.shape[1]))
            np.add.at(grouped, fk, U)
            parts.append(R.T @ grouped)
        return np.vstack(parts) if parts else np.empty((0, U.shape[1]))

    def sq_rowsums(self) -> np.ndarray:
        """Row sums of the squared logical design matrix.

        Per-row squared norms without the join: attribute-table rows'
        squared norms are computed once and gathered — the quantity
        factorized k-means needs every iteration.
        """
        out = np.zeros(self.n_rows)
        if self.S is not None:
            out += np.einsum("ij,ij->i", self.S, self.S)
        for fk, R in zip(self.fks, self.Rs):
            r_norms = np.einsum("ij,ij->i", R, R)
            out += r_norms[fk]
        return out

    def gram(self) -> np.ndarray:
        """X.T @ X assembled blockwise from group counts and sums.

        Blocks:
          * S'S                    — dense product on S only;
          * S'(K_i R_i)            — group-sum S rows by fk_i, multiply R_i;
          * (K_i R_i)'(K_i R_i)    — R_i' diag(counts_i) R_i;
          * (K_i R_i)'(K_j R_j)    — co-occurrence counts between fk_i, fk_j.
        """
        d = self.shape[1]
        out = np.zeros((d, d))
        offsets = self.column_offsets()

        if self.S is not None:
            out[: self.d_s, : self.d_s] = self.S.T @ self.S

        for i, (fk_i, R_i) in enumerate(zip(self.fks, self.Rs)):
            oi = offsets[i + 1]
            di = R_i.shape[1]
            counts = np.bincount(fk_i, minlength=len(R_i)).astype(np.float64)

            # Diagonal block: R' diag(counts) R.
            out[oi : oi + di, oi : oi + di] = (R_i.T * counts) @ R_i

            # Cross block with S: group-sum S rows per R_i key.
            if self.S is not None:
                group_sums = np.zeros((len(R_i), self.d_s))
                np.add.at(group_sums, fk_i, self.S)
                cross = group_sums.T @ R_i  # (d_s, di)
                out[: self.d_s, oi : oi + di] = cross
                out[oi : oi + di, : self.d_s] = cross.T

            # Cross blocks with other attribute tables.
            for j in range(i + 1, len(self.Rs)):
                fk_j, R_j = self.fks[j], self.Rs[j]
                oj = offsets[j + 1]
                dj = R_j.shape[1]
                cooc = np.zeros((len(R_i), len(R_j)))
                np.add.at(cooc, (fk_i, fk_j), 1.0)
                cross = R_i.T @ cooc @ R_j  # (di, dj)
                out[oi : oi + di, oj : oj + dj] = cross
                out[oj : oj + dj, oi : oi + di] = cross.T
        return out

    def colsums(self) -> np.ndarray:
        """Column sums of the logical design matrix."""
        parts = []
        if self.S is not None:
            parts.append(self.S.sum(axis=0))
        for fk, R in zip(self.fks, self.Rs):
            counts = np.bincount(fk, minlength=len(R)).astype(np.float64)
            parts.append(counts @ R)
        return np.concatenate(parts)

    def rowsums(self) -> np.ndarray:
        """Row sums of the logical design matrix, computed factorized."""
        out = np.zeros(self.n_rows)
        if self.S is not None:
            out += self.S.sum(axis=1)
        for fk, R in zip(self.fks, self.Rs):
            out += R.sum(axis=1)[fk]
        return out

    def sq_sum(self) -> float:
        """Sum of squared logical cells (via per-table norms + counts)."""
        total = 0.0
        if self.S is not None:
            total += float(np.einsum("ij,ij->", self.S, self.S))
        for fk, R in zip(self.fks, self.Rs):
            counts = np.bincount(fk, minlength=len(R)).astype(np.float64)
            total += float(counts @ np.einsum("ij,ij->i", R, R))
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
        parts = []
        if self.S is not None:
            parts.append(self.S)
        for fk, R in zip(self.fks, self.Rs):
            parts.append(R[fk])
        return np.hstack(parts)

    to_dense = materialize

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Bytes held by the factorized tables + foreign-key vectors."""
        total = self.S.nbytes if self.S is not None else 0
        for fk, R in zip(self.fks, self.Rs):
            total += fk.nbytes + R.nbytes
        return total

    @property
    def redundancy_ratio(self) -> float:
        """Materialized cells / factorized cells (>1 means savings)."""
        factorized = (self.n_rows * self.d_s if self.S is not None else 0) + sum(
            R.size for R in self.Rs
        )
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
