"""Dense tensor values and SPD operators at desk scale.

The ambient space is V = R^{m_1} x ... x R^{m_d} (tensor product), stored
flat in lexicographic order with the first index varying slowest.  All
scalars are 64-bit IEEE floats.  Operators are symmetric positive definite
and come in three flavours: identity, explicit dense matrix, and mode-wise
Kronecker product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ENTRY_CAP = 10**6
SPD_VERIFY_CAP = 512
SYMMETRY_RTOL = 1e-12
PSD_CLAMP = 1e-14
# kron_apply's scratch bound (2^15 entries, 256 KB): a chunk of mode-1 slabs
# stays in cache, and one batched matmul per mode replaces a slab loop
KRON_CHUNK_ENTRIES = 2**15


@dataclass(frozen=True)
class Shape:
    """Mode sizes (m_1, ..., m_d) of a tensor space with entry count N = prod(dims)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(m) for m in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ValueError("shape needs at least one mode")
        if any(m < 1 for m in dims):
            raise ValueError("every mode size must be >= 1")
        if self.size > ENTRY_CAP:
            raise ValueError(f"entry cap exceeded: {self.size} > {ENTRY_CAP} entries")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @cached_property
    def size(self) -> int:
        return math.prod(self.dims)


class DenseTensor:
    """Immutable dense element of the tensor space.

    Values are a flat float64 vector of length shape.size, lexicographic with
    the first index slowest (C order of the d-dimensional array).  The
    constructor rejects non-finite entries.  ``_wrap`` is the solver's path
    for values it has just computed: it skips the O(N) finiteness scan, and
    its caller guarantees finiteness by a scalar check instead.
    """

    __slots__ = ("shape", "values")

    def __init__(self, shape: Shape, values):
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size != shape.size:
            raise ValueError(
                f"incompatible shapes: {vals.size} values for shape with N={shape.size}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("tensor entries must be finite")
        vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _wrap(cls, shape: Shape, values: np.ndarray) -> "DenseTensor":
        """Read-only view of a flat float64 vector of length shape.size, unscanned."""
        vals = np.ascontiguousarray(values).ravel()
        vals.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", vals)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @classmethod
    def zeros(cls, shape: Shape) -> "DenseTensor":
        return cls(shape, np.zeros(shape.size))

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        a = np.asarray(arr, dtype=float)
        return cls(Shape(a.shape), a.ravel())

    def as_array(self) -> np.ndarray:
        """View of the values as a d-dimensional array."""
        return self.values.reshape(self.shape.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        _check_same_shape(self, other)
        return DenseTensor(self.shape, self.values + other.values)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        _check_same_shape(self, other)
        return DenseTensor(self.shape, self.values - other.values)

    def __neg__(self) -> "DenseTensor":
        return DenseTensor(self.shape, -self.values)

    def __mul__(self, alpha) -> "DenseTensor":
        return DenseTensor(self.shape, self.values * float(alpha))

    __rmul__ = __mul__

    def __repr__(self):
        return f"DenseTensor(dims={self.shape.dims}, norm={self.norm():.6g})"


def _check_same_shape(u: DenseTensor, v: DenseTensor):
    if u.shape.dims != v.shape.dims:
        raise ValueError(
            f"incompatible shapes: {u.shape.dims} vs {v.shape.dims}"
        )


class SpdOperator:
    """Base for symmetric positive definite operators on a tensor space."""

    variant = "abstract"
    shape: Shape
    verified: bool

    def apply(self, v: DenseTensor) -> DenseTensor:
        raise NotImplementedError

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        """Apply to every column of an (N, k) matrix."""
        M = np.asarray(M, dtype=float)
        out = np.empty_like(M)
        for j in range(M.shape[1]):
            out[:, j] = self.apply(DenseTensor(self.shape, M[:, j])).values
        return out

    def _check_operand(self, v: DenseTensor):
        if v.shape.dims != self.shape.dims:
            raise ValueError(
                f"incompatible shapes: operator on {self.shape.dims}, operand {v.shape.dims}"
            )

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.shape.dims}, verified={self.verified})"


class IdentityOperator(SpdOperator):
    variant = "identity"

    def __init__(self, shape: Shape):
        self.shape = shape
        self.verified = True

    def apply(self, v: DenseTensor) -> DenseTensor:
        self._check_operand(v)
        return v

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        return np.asarray(M, dtype=float)


def _check_symmetric(mat: np.ndarray, what: str):
    """Reject a matrix that is not symmetric to SYMMETRY_RTOL of its largest entry."""
    scale = np.max(np.abs(mat))
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{what} is not symmetric")


def _check_definite(mat: np.ndarray, what: str):
    """Reject a matrix that is not positive definite."""
    lam_min = np.linalg.eigvalsh(mat)[0]
    if lam_min <= 0:
        raise ValueError(f"{what} is not positive definite (lambda_min = {lam_min:.3e})")


class DenseOperator(SpdOperator):
    """Explicit N x N symmetric positive definite matrix.

    Positive definiteness is verified at construction only for N <= SPD_VERIFY_CAP
    (full eigendecomposition); larger operators are trusted and flagged unverified.
    """

    variant = "dense"

    def __init__(self, shape: Shape, matrix):
        mat = np.asarray(matrix, dtype=float)
        n = shape.size
        if mat.shape != (n, n):
            raise ValueError(
                f"incompatible shapes: operator matrix {mat.shape} for N={n}"
            )
        _check_symmetric(mat, "operator matrix")
        self.shape = shape
        self.matrix = np.ascontiguousarray(mat)
        self.verified = n <= SPD_VERIFY_CAP
        if self.verified:
            _check_definite(self.matrix, "operator matrix")

    def apply(self, v: DenseTensor) -> DenseTensor:
        self._check_operand(v)
        return DenseTensor(v.shape, self.matrix @ v.values)

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(M, dtype=float)


class ModeWiseOperator(SpdOperator):
    """Kronecker product A_1 (x) ... (x) A_d with per-mode SPD factors.

    ``apply`` and ``apply_matrix`` are both ``kron_apply``, the n-mode
    product with one factor per mode (Kolda & Bader 2009), on one column
    or on all k columns of an (N, k) block at once.
    """

    variant = "modewise"

    def __init__(self, factors):
        mats = [np.ascontiguousarray(np.asarray(f, dtype=float)) for f in factors]
        if not mats:
            raise ValueError("mode-wise operator needs at least one factor")
        for nu, mat in enumerate(mats):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"factor {nu} is not square")
            _check_symmetric(mat, f"mode-{nu} factor")
            _check_definite(mat, f"mode-{nu} factor")
        self.factors = mats
        self.shape = Shape(tuple(m.shape[0] for m in mats))
        self.verified = True

    def apply(self, v: DenseTensor) -> DenseTensor:
        self._check_operand(v)
        return DenseTensor(v.shape, kron_apply(self.factors, v.values[:, None]))

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        n = self.shape.size
        if M.ndim != 2 or M.shape[0] != n:
            raise ValueError(
                f"incompatible shapes: operator on N={n}, operand {M.shape}"
            )
        return kron_apply(self.factors, M)


def kron_apply(factors, M: np.ndarray) -> np.ndarray:
    """(F_1 (x) ... (x) F_d) M for square factors and an (n, k) block M.

    n is the product of the factor sizes.  The mode-1 product is written
    straight into the output.  Modes 2..d are then applied in place to a
    chunk of consecutive mode-1 slabs (n * k / m_1 entries each) at a time,
    one batched matmul per mode and chunk, through one scratch buffer of
    at most max(one slab, KRON_CHUNK_ENTRIES) entries.  Every matmul a
    chunk batches is the one a slab-by-slab loop would make, so the result
    does not depend on the chunk size.
    """
    dims = tuple(mat.shape[0] for mat in factors)
    n, k = M.shape
    out = np.empty((n, k))
    if k == 0:
        return out
    slab = n // dims[0] * k
    rows = out.reshape(dims[0], slab)
    np.matmul(factors[0], M.reshape(dims[0], slab), out=rows)
    if len(factors) == 1:
        return out
    chunk = min(dims[0], max(1, KRON_CHUNK_ENTRIES // slab))
    scratch = np.empty(chunk * slab)
    for start in range(0, dims[0], chunk):
        block = rows[start:start + chunk]
        outer = block.shape[0]
        for mat, m in zip(factors[1:], dims[1:]):
            # this mode of the chunk, viewed as (outer, m, inner)
            view = block.reshape(outer, m, -1)
            buf = scratch[: block.size].reshape(view.shape)
            np.matmul(mat, view, out=buf)
            view[...] = buf
            outer *= m
    return out


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a flat contiguous float vector, bitwise ``np.linalg.norm``'s.

    For such a vector ``np.linalg.norm`` is sqrt(x . x); these are the same
    two operations without its dispatch.  Squares that overflow give inf,
    as there.
    """
    return math.sqrt(x.dot(x))


def inner(u: DenseTensor, v: DenseTensor) -> float:
    """Euclidean inner product on the tensor space."""
    _check_same_shape(u, v)
    return float(np.dot(u.values, v.values))


def a_norm(A: SpdOperator, v: DenseTensor) -> float:
    """Energy norm sqrt(<Av, v>); small negative radicands clamp to 0."""
    rad = inner(A.apply(v), v)
    if rad < 0:
        if rad < -PSD_CLAMP * inner(v, v):
            raise ValueError(
                f"operator not PSD on this vector: <Av,v> = {rad:.3e}"
            )
        rad = 0.0
    return math.sqrt(rad)


def rank_one_sum(shape: Shape, terms) -> DenseTensor:
    """Dense tensor sum_j c_j * v_{j,1} (x) ... (x) v_{j,d}.

    ``terms`` is a list of (coefficient, [d mode vectors]); an empty list
    yields the zero tensor.
    """
    out = np.zeros(shape.dims)
    for coeff, vectors in terms:
        if len(vectors) != shape.ndim:
            raise ValueError(
                f"term supplies {len(vectors)} vectors for {shape.ndim} modes"
            )
        t = None
        for nu, vec in enumerate(vectors):
            arr = np.asarray(vec, dtype=float).ravel()
            if arr.size != shape.dims[nu]:
                raise ValueError(
                    f"mode {nu} vector has length {arr.size}, expected {shape.dims[nu]}"
                )
            t = arr if t is None else np.multiply.outer(t, arr)
        out += float(coeff) * t
    return DenseTensor(shape, out.ravel())


def index_value_rows(v: DenseTensor):
    """Yield (index tuple, value) rows in storage order, for CSV dumps."""
    for flat, val in enumerate(v.values):
        yield np.unravel_index(flat, v.shape.dims), float(val)
