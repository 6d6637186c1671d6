"""The operand contract: what a storage representation *is*, said once.

Everything the rest of the system needs to know about a compact
representation (CSR, CLA column groups, the normalized matrix) lives
here or on the class itself; every other module reads it instead of
re-deriving it (DESIGN.md, "Representations"):

* :class:`Operand` is the base each representation extends; the class
  statement declares and registers the ``kind`` tag. The class supplies
  the native kernels (``matvec``, ``rmatvec``, ``colsums``, ``sq_sum``,
  ``gram``, ``to_dense``, ``memory_bytes``, ``map_values``); the base
  derives the rest once, and a faster native kernel is an override.
* What only the class can say, the planner reads off it: ``encode``
  (build from dense), ``evidence_channel`` / ``evidence()`` /
  ``sample_evidence``, ``work_fraction``, ``worth_planning``,
  ``plan_reason``.
* :func:`serves` is the one capability predicate — does a kind's native
  kernel run an operator — behind both the runtime's dispatch and the
  planner's prediction (:func:`repro.runtime.repops.decide`), with
  :func:`zero_preserving` the one probe behind it.

A leaf module (numpy and :mod:`repro.errors` only): compiler, runtime
and the representation packages import it at module level. Adding a
representation is one class; nothing outside it names a kind.
"""

from __future__ import annotations

import numpy as np

from .errors import ExecutionError

#: kind tag of a plain ndarray operand
DENSE = "dense"
#: what the *other* operand of an operator can be (``DENSE`` is the fourth)
ABSENT, SCALAR, REPRESENTATION = "absent", "1x1", "representation"

_REGISTRY: dict[str, type["Operand"]] = {}


class Operand:
    """Base of every non-dense storage representation."""

    kind: str
    #: feedback-store channel the planner weighs this kind on
    evidence_channel: str
    #: the operand is a :class:`Transposed` view
    transposed = False
    #: ``map_values`` keeps implicit zeros implicit, so it is exact only
    #: for maps with ``f(0) == 0``
    zero_preserving_maps_only = False

    def __init_subclass__(cls, kind: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if kind is not None:
            cls.kind = kind
            _REGISTRY[kind] = cls

    # -- derived from the native kernels --------------------------------
    def __matmul__(self, other):
        return self.matmat(np.asarray(other, dtype=np.float64))

    @property
    def T(self) -> "Operand":
        """Zero-copy transpose view (``X.T.T is X``)."""
        return Transposed(self)

    def matmat(self, B: np.ndarray) -> np.ndarray:
        """X @ B for dense B, one ``matvec`` per column."""
        return _by_column(self.matvec, B, self.shape[0])

    def rmatmat(self, U: np.ndarray) -> np.ndarray:
        """X.T @ U for dense U, one ``rmatvec`` per column."""
        return _by_column(self.rmatvec, U, self.shape[1])

    def rowsums(self) -> np.ndarray:
        """Row sums, as X @ ones on the native ``matvec``."""
        return self.matvec(np.ones(self.shape[1]))

    def sum(self) -> float:
        """Sum of every logical cell."""
        return float(self.colsums().sum())

    # -- what the planner reads off the class ---------------------------
    @classmethod
    def encode(cls, dense: np.ndarray, sample_fraction: float) -> "Operand":
        """Build this representation from a dense array."""
        raise ExecutionError(
            f"cannot convert values to {cls.kind!r}: its structure is "
            "not recoverable from a dense array"
        )

    @classmethod
    def sample_evidence(
        cls, dense: np.ndarray, sample_fraction: float
    ) -> float | None:
        """:meth:`evidence` estimated from a dense array; ``None`` for a
        kind that cannot be built from one."""
        return None

    @staticmethod
    def worth_planning(evidence: float) -> bool:
        """Whether this much evidence justifies leaving dense at all."""
        return True


def _by_column(kernel, M: np.ndarray, rows: int) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        return kernel(M)
    out = np.empty((rows, M.shape[1]))
    for j in range(M.shape[1]):
        out[:, j] = kernel(M[:, j])
    return out


class Transposed(Operand):
    """The zero-copy transpose view over any operand.

    ``X.T`` and the executor's Transpose nodes both produce it, so
    whatever sits above keeps running on the native kernels (``matmat``
    <-> ``rmatmat``, ``colsums`` <-> ``rowsums``) instead of densifying.
    """

    transposed = True
    kind = property(lambda self: self.base.kind)
    evidence_channel = property(lambda self: self.base.evidence_channel)
    memory_bytes = property(lambda self: self.base.memory_bytes)

    def __init__(self, base: Operand):
        self.base = base
        self.shape = (base.shape[1], base.shape[0])

    @property
    def T(self) -> Operand:
        return self.base

    def matvec(self, v):
        return self.base.rmatvec(v)

    def rmatvec(self, u):
        return self.base.matvec(u)

    def matmat(self, B):
        return self.base.rmatmat(B)

    def rmatmat(self, U):
        return self.base.matmat(U)

    def colsums(self):
        return self.base.rowsums()

    def rowsums(self):
        return self.base.colsums()

    def sum(self):
        return self.base.sum()

    def sq_sum(self):
        return self.base.sq_sum()

    def evidence(self):
        return self.base.evidence()

    def map_values(self, fn) -> "Transposed":
        return Transposed(self.base.map_values(fn))

    def multiply_dense(self, D: np.ndarray) -> "Transposed":
        return Transposed(self.base.multiply_dense(np.asarray(D).T))

    def to_dense(self) -> np.ndarray:
        return self.base.to_dense().T


# ----------------------------------------------------------------------
# Reading an operand
# ----------------------------------------------------------------------
def registered() -> dict[str, type[Operand]]:
    """Every representation class by kind, in one fixed order
    (sorted, whatever order the packages were imported in)."""
    return dict(sorted(_REGISTRY.items()))


def kind_of(value) -> str:
    """Storage kind tag: ``'dense'`` or the operand's declared kind."""
    return value.kind if isinstance(value, Operand) else DENSE


def is_representation(value) -> bool:
    """True for non-dense operands the executor must dispatch on."""
    return isinstance(value, Operand)


def densify(value) -> np.ndarray:
    """Dense float64 array for any operand (identity for ndarrays)."""
    if isinstance(value, Operand):
        value = value.to_dense()
    return np.asarray(value, dtype=np.float64)


def operand_bytes(value) -> int:
    """Actual storage footprint of an operand in its current form."""
    if isinstance(value, Operand):
        return int(value.memory_bytes)
    return int(np.asarray(value).nbytes)


#: row fraction the planner's estimators sample (evidence and encoding)
SAMPLE_FRACTION = 0.05


def convert_value(value, target: str):
    """Convert an operand to the target representation (idempotent).

    A kind whose structure cannot be invented from values (a star
    schema) is only reachable by already being bound in it.
    """
    if kind_of(value) == target:
        return value
    if target == DENSE:
        return densify(value)
    cls = _REGISTRY.get(target)
    if cls is None:
        raise ExecutionError(f"unknown representation target {target!r}")
    return cls.encode(densify(value), SAMPLE_FRACTION)


def evidence_of(value) -> tuple[str, str, float]:
    """``(kind, channel, measured)``: what one bound operand shows the
    feedback store — a representation its own evidence, a dense matrix
    its sampled density."""
    if isinstance(value, Operand):
        return value.kind, value.evidence_channel, float(value.evidence())
    return DENSE, "density", estimate_density(np.asarray(value, np.float64))


#: rows :func:`estimate_density` reads at most
MAX_DENSITY_SAMPLE_ROWS = 65536


def estimate_density(arr: np.ndarray) -> float:
    """Nonzero fraction of a dense matrix from a bounded row sample."""
    n = arr.shape[0]
    if n <= MAX_DENSITY_SAMPLE_ROWS:
        sample = arr
    else:
        # Deterministic strided sample spanning the whole row range,
        # first and last row included. A contiguous-prefix (or naive
        # floor-stride) sample is biased for row-sorted data — e.g. a
        # matrix whose dense rows all sit at the tail would look empty.
        idx = np.linspace(
            0, n - 1, num=MAX_DENSITY_SAMPLE_ROWS
        ).astype(np.intp)
        sample = arr[idx]
    cells = sample.size or 1
    return float(np.count_nonzero(sample)) / cells


def sum_partials(size: int, partials: list[np.ndarray]) -> np.ndarray:
    """Reduce per-task partial vectors in task order (the ``combine`` of
    the kernels that hand the parallel engine a serial twin)."""
    out = np.zeros(size)
    for p in partials:
        out += p
    return out


# ----------------------------------------------------------------------
# Capability: which operators a kind's native kernels serve
# ----------------------------------------------------------------------
#: served by every kind from the protocol alone
_PROTOCOL_OPS = {
    "matmul", "transpose", "agg:sum", "agg:mean",
    "fused:mvchain", "fused:sq_sum",
}


def zero_preserving(fn) -> bool:
    """Does the elementwise map ``fn`` send 0 to 0?"""
    with np.errstate(all="ignore"):
        return bool(np.all(fn(np.zeros(1)) == 0.0))


def serves(
    kind: str,
    label: str,
    transposed: bool = False,
    other: str = ABSENT,
    fn=None,
) -> bool:
    """Does ``kind``'s native kernel run operator ``label``?

    Args:
        label: the operator label (:func:`repro.lang.ast.op_label`).
        transposed: the operand sits under the transpose view.
        other: what the operator's other operand is — ``ABSENT``,
            ``SCALAR`` (a 1x1), ``DENSE`` or ``REPRESENTATION``.
        fn: for a unary operator, or a binary one against a 1x1, the
            elementwise map it applies to the operand; ``None`` when
            the 1x1's value is not known yet (the planner's view of a
            scalar computed at run time).
    """
    cls = _REGISTRY[kind]
    if other == REPRESENTATION:
        # No kernel takes two representations. (A Gram product is one
        # operand used twice; the dispatcher recognises it first.)
        return False
    family = label.partition(":")[0]
    if family in ("unary", "binary") and other != DENSE:
        # An elementwise map of the stored values.
        if not cls.zero_preserving_maps_only:
            return True
        return fn is not None and zero_preserving(fn)
    if label in ("binary:*", "fused:dot_sum"):
        # Against a dense operand of the same (or broadcast) shape.
        return hasattr(cls, "multiply_dense")
    if label == "fused:tsmm":
        return not transposed  # the view's Gram is X @ X.T: no kernel
    return label in _PROTOCOL_OPS
