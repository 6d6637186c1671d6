"""Sparse linear algebra substrate (CSR), built from scratch on numpy.

Because :class:`CSRMatrix` speaks the same ``shape`` / ``@`` / ``.T`` /
row-gather protocol as dense arrays, the GLM losses and optimizers in
:mod:`repro.ml` train on sparse designs unchanged — the sparsity
exploitation the tutorial's declarative-ML section surveys.
"""

from .csr import CSRMatrix, SparseError

__all__ = ["CSRMatrix", "SparseError"]
