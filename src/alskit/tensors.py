"""Dense tensor values and SPD operators at desk scale.

The ambient space is V = R^{m_1} x ... x R^{m_d} (tensor product), stored
flat in lexicographic order with the first index varying slowest.  All
scalars are 64-bit IEEE floats.  Operators are symmetric positive definite
and come in three flavours: identity, explicit dense matrix, and mode-wise
Kronecker product.  The first and the last declare their Kronecker
structure (``SpdOperator.mode_sides``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ENTRY_CAP = 10**6
SPD_VERIFY_CAP = 512
SYMMETRY_RTOL = 1e-12
PSD_CLAMP = 1e-14
# kron_apply's scratch bound (2^15 entries, 256 KB): a block that small, or
# else a chunk of mode-1 slabs, stays in cache, and one batched matmul per
# mode replaces a slab loop
KRON_CHUNK_ENTRIES = 2**15


def check_int(value, what: str) -> int:
    """value as an int if it is an integer, else ValueError naming ``what``.

    The one rule for a count from outside (a mode size, a rank, a block
    length, a gallery argument, a sweep limit): a Python or numpy integer
    is taken, a bool, a float (even 3.0) or a string is not, so nothing
    is truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_numbers(value, what: str):
    """value if every entry, in lists at any depth, is an int or a float (no bool, str or None)."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, (list, tuple)):
            items += item[::-1]  # popped in document order, so the first bad entry is named
        elif type(item) not in (int, float):
            raise ValueError(f"{what} must hold numbers only, got {item!r}")
    return value


@dataclass(frozen=True)
class Shape:
    """Mode sizes (m_1, ..., m_d) of a tensor space with entry count N = prod(dims)."""

    dims: tuple[int, ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(check_int(m, "mode size") for m in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "size", math.prod(dims))
        if len(dims) < 1:
            raise ValueError("shape needs at least one mode")
        if any(m < 1 for m in dims):
            raise ValueError("every mode size must be >= 1")
        if self.size > ENTRY_CAP:
            raise ValueError(f"entry cap exceeded: {self.size} > {ENTRY_CAP} entries")

    @property
    def ndim(self) -> int:
        return len(self.dims)


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
        vals.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _wrap(cls, shape: Shape, values: np.ndarray) -> "DenseTensor":
        """Read-only view of a flat float64 vector of length shape.size, unscanned."""
        vals = np.ascontiguousarray(values).ravel()
        vals.setflags(write=False)
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
        return vector_norm(self.values)

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
    """Base for symmetric positive definite operators on a tensor space.

    A subclass defines one product, ``apply_matrix`` on an (N, k) block;
    ``apply`` is that product on one column.  An operator that is a
    Kronecker product K_1 (x) ... (x) K_d declares it with ``mode_sides``,
    ``mode_apply`` and ``mode_solve``, the only calls the engine reads the
    structure through; the base declares none, so its local systems are
    formed.
    """

    variant = "abstract"
    shape: Shape
    verified: bool

    def apply(self, v: DenseTensor) -> DenseTensor:
        if v.shape.dims != self.shape.dims:
            raise ValueError(
                f"incompatible shapes: operator on {self.shape.dims}, operand {v.shape.dims}"
            )
        return DenseTensor(v.shape, self.apply_matrix(v.values[:, None]))

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        """Apply to every column of an (N, k) matrix."""
        raise NotImplementedError

    def mode_sides(self, mu: int) -> tuple[list, list] | None:
        """(left, right): the factors K_nu of the modes before and after mu, or None."""
        return None

    def mode_apply(self, mu: int, X: np.ndarray) -> np.ndarray:
        """K_mu X along axis -2 of X, or X itself if K_mu applies nothing."""
        raise NotImplementedError

    def mode_solve(self, mu: int, X: np.ndarray) -> np.ndarray:
        """K_mu^-1 X for an (m_mu, k) X (ValueError if X is not finite), or X itself."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.shape.dims}, verified={self.verified})"


class IdentityOperator(SpdOperator):
    """The identity, a Kronecker product of identities: each product returns its operand."""

    variant = "identity"

    def __init__(self, shape: Shape):
        self.shape = shape
        self.verified = True

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        return np.asarray(M, dtype=float)

    def mode_sides(self, mu: int) -> tuple[list, list]:
        return [], []

    def mode_apply(self, mu: int, X: np.ndarray) -> np.ndarray:
        return X

    mode_solve = mode_apply


def _check_symmetric(mat: np.ndarray, what: str):
    """Reject a matrix with a NaN or inf entry, or not symmetric to SYMMETRY_RTOL.

    The tolerance is relative to the largest magnitude, which is NaN or
    inf exactly when an entry is.
    """
    scale = np.max(np.abs(mat))
    if not np.isfinite(scale):
        raise ValueError(f"{what} entries must be finite")
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{what} is not symmetric")


def _cholesky(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of 0.5 (M + M^T) by LAPACK dpotrf, the one definiteness verdict."""
    # imported here: loading scipy.linalg with this module added ~10 ms to ``import alskit``
    # (median of 45 fresh interpreters, 2-vCPU host); the engine has loaded it by then
    from scipy.linalg import lapack

    factor, info = lapack.dpotrf(0.5 * (mat + mat.T), lower=1, clean=0)
    if info != 0:
        raise ValueError(f"{what} is not positive definite (leading minor {info} of {len(mat)})")
    return factor


class DenseOperator(SpdOperator):
    """Explicit N x N symmetric positive definite matrix.

    Positive definiteness is verified at construction only for N <= SPD_VERIFY_CAP,
    by ``_cholesky``; larger operators are trusted and flagged unverified.
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
            _cholesky(self.matrix, "operator matrix")

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(M, dtype=float)


class ModeWiseOperator(SpdOperator):
    """Kronecker product A_1 (x) ... (x) A_d with per-mode SPD factors.

    ``apply_matrix`` is ``kron_apply``, the n-mode product with one factor
    per mode (Kolda & Bader 2009), on all k columns of an (N, k) block at
    once.  ``cholesky`` keeps each factor's ``_cholesky`` for ``mode_solve``,
    and the operator keeps LAPACK's potrs, which ``_cholesky`` has loaded:
    an import statement per solve cost ~1.5% of a mode-wise ladder cycle.
    The routine does not pickle, so an operator pickles as its factors.
    """

    variant = "modewise"

    def __init__(self, factors):
        mats = [np.ascontiguousarray(np.asarray(f, dtype=float)) for f in factors]
        if not mats:
            raise ValueError("mode-wise operator needs at least one factor")
        for nu, mat in enumerate(mats):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"factor {nu} is not square")
        # the shape rejects a mode of size 0, which has no entry to check
        self.shape = Shape(tuple(m.shape[0] for m in mats))
        self.cholesky = []
        for nu, mat in enumerate(mats):
            _check_symmetric(mat, f"mode-{nu} factor")
            self.cholesky.append(_cholesky(mat, f"mode-{nu} factor"))
        from scipy.linalg import lapack  # see _cholesky

        self._potrs = lapack.dpotrs
        self.factors = mats
        self.verified = True

    def __reduce__(self):
        return type(self), (self.factors,)

    def apply_matrix(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        n = self.shape.size
        if M.ndim != 2 or M.shape[0] != n:
            raise ValueError(
                f"incompatible shapes: operator on N={n}, operand {M.shape}"
            )
        return kron_apply(self.factors, M)

    def mode_sides(self, mu: int) -> tuple[list, list]:
        return self.factors[:mu], self.factors[mu + 1:]

    def mode_apply(self, mu: int, X: np.ndarray) -> np.ndarray:
        return self.factors[mu] @ X

    def mode_solve(self, mu: int, X: np.ndarray) -> np.ndarray:
        """K_mu^-1 X through the kept Cholesky factor (LAPACK potrs)."""
        if not all_finite(X):
            raise ValueError("array must not contain infs or NaNs")
        return self._potrs(self.cholesky[mu], X, lower=1)[0]


def kron_apply(factors, M: np.ndarray) -> np.ndarray:
    """(F_1 (x) ... (x) F_d) M for square factors and an (n, k) block M.

    n is the product of the factor sizes; a single factor is one product.
    When n * k <= KRON_CHUNK_ENTRIES each mode is one batched matmul on
    the whole block, from one n * k buffer into the other, the output and
    one scratch buffer taking turns; the mode-1 product goes to the one
    that makes the last mode land in the output, so nothing is copied
    back, and the scratch buffer holds at most KRON_CHUNK_ENTRIES entries.
    A larger block has its mode-1 product written straight into the
    output, and modes 2..d are then applied in place to a chunk of
    consecutive mode-1 slabs (n * k / m_1 entries each) at a time, one
    batched matmul per mode and chunk, through one scratch buffer of at
    most max(one slab, KRON_CHUNK_ENTRIES) entries.  On either path
    every matmul a call batches is the one a slab-by-slab loop would
    make, so the result does not depend on the path or the chunk size.
    """
    if len(factors) == 1:
        return factors[0] @ M
    dims = tuple(mat.shape[0] for mat in factors)
    n, k = M.shape
    out = np.empty((n, k))
    if k == 0:
        return out
    slab = n // dims[0] * k
    if n * k <= KRON_CHUNK_ENTRIES:
        # the d - 1 later modes alternate the buffers, ending in out
        src, dst = out.reshape(-1), np.empty(n * k)
        if len(factors) % 2 == 0:
            src, dst = dst, src
        np.matmul(factors[0], M.reshape(dims[0], slab), out=src.reshape(dims[0], slab))
        outer = dims[0]
        for mat, m in zip(factors[1:], dims[1:]):
            np.matmul(mat, src.reshape(outer, m, -1), out=dst.reshape(outer, m, -1))
            src, dst = dst, src
            outer *= m
        return out
    rows = out.reshape(dims[0], slab)
    np.matmul(factors[0], M.reshape(dims[0], slab), out=rows)
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
    """Euclidean norm of a flat contiguous float vector, without underflow or overflow.

    When x . x is a normal finite double the norm is sqrt(x . x), bitwise
    ``np.linalg.norm``'s without its dispatch (``np.vdot`` is the same BLAS
    dot as ``x.dot``, without its overflow warning).  Otherwise the squares
    have underflowed or overflowed, and x is first scaled by 2^-e, 2^e the
    power of two at its largest magnitude, so the norm is 2^e ||2^-e x||
    (Blue 1978): a nonzero vector never reads 0, and only a norm beyond the
    double range reads inf.  A NaN entry gives NaN and an inf entry inf,
    and nothing warns.
    """
    s = float(np.vdot(x, x))
    if 2.0**-1022 <= s < math.inf:  # the smallest normal double; NaN fails too
        return math.sqrt(s)
    top = float(np.max(np.abs(x), initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return top
    e = math.frexp(top)[1] - 1  # top is in [2^e, 2^(e+1))
    y = np.ldexp(x, -e)
    return math.sqrt(np.vdot(y, y)) * 2.0**e  # a Python float overflows to inf


def all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()``, from one sum first.

    A finite sum has no NaN or inf term, so the entries are scanned only
    when the sum is not finite: a non-finite entry, or finite entries
    whose sum overflows (which numpy warns about, as about any overflow).
    """
    return math.isfinite(np.add.reduce(x, None)) or bool(np.isfinite(x).all())


def inner(u: DenseTensor, v: DenseTensor) -> float:
    """Euclidean inner product on the tensor space."""
    if u.shape.dims != v.shape.dims:
        _check_same_shape(u, v)
    return float(u.values.dot(v.values))


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
    yields the zero tensor.  Each term is checked against the shape, then
    formed as the outer-product chain of its vectors, scaled in place and
    added, in term order.
    """
    out = np.zeros(shape.dims)
    for coeff, vectors in terms:
        if len(vectors) != shape.ndim:
            raise ValueError(
                f"term supplies {len(vectors)} vectors for {shape.ndim} modes"
            )
        arrs = []
        for nu, vec in enumerate(vectors):
            arr = np.asarray(vec, dtype=float).ravel()
            if arr.size != shape.dims[nu]:
                raise ValueError(
                    f"mode {nu} vector has length {arr.size}, expected {shape.dims[nu]}"
                )
            arrs.append(arr)
        t = arrs[0].copy()  # the term's own: a one-mode term is scaled in place
        for arr in arrs[1:]:
            t = np.multiply.outer(t, arr)
        t *= float(coeff)  # in place: a new N-sized array per term costs more than the term
        out += t
    return DenseTensor(shape, out.ravel())


def index_value_rows(v: DenseTensor):
    """(index tuple, value) rows in storage order, for CSV dumps."""
    return zip(np.ndindex(*v.shape.dims), v.values.tolist())
