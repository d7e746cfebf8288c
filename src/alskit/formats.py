"""Multilinear parameter formats: CP, tensor train, and custom maps.

A format is a map U(p_1, ..., p_L) from L flat parameter blocks into the
dense tensor space, linear in each block separately.  That multilinearity
is what the solver exploits: freezing all blocks but one leaves a linear
map W, returned by ``TensorFormat.local_map``.

A factored format declares two things: the layout of its blocks and
their unfolding factors.  One layout rule serves blocks and tensors:
block mu is a flat (a, m_mu, c) core in C order, with ``block_axes(mu)``
= (a, c), (r, 1) for CP and (r_{mu-1}, r_mu) for TT, and a flat tensor
is viewed around mode mu as an (L, m_mu, R) array (``mode_view``), L and
R the sizes of the modes left and right of mu.  The factors are the ones
the block has: the Khatri-Rao product of the other CP factors; the
interfaces P and Q^T of an interior TT core, and only Q^T or P at the
first or last core.  Outside the formed W, every product with W of a
factored format goes through the factors: ``expand`` takes a core to W q
and ``contract`` a tensor to W^T x, both in the tensor's own layout.
The base class derives the rest from the two declarations: an evaluation
is ``expand`` of the last block (one GEMM, the Khatri-Rao factor times
the last factor matrix for CP, the interface P times the last core for
TT), ``local_adjoint`` is ``contract``, and the formed W is the
Kronecker product Z of the factors placed on the identity of mode mu;
the engine's structured solve uses the same two products without forming
W.  A format without unfolding factors declares its block lengths and
its evaluation, and gets W from ``probe_map``, one evaluation per basis
vector of the block, which is also the reference the assembled maps are
checked against.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .tensors import DenseTensor, Shape, SpdOperator, check_int, check_numbers, vector_norm


def _frozen_block(vec) -> tuple[np.ndarray, float]:
    """Read-only flat float64 copy of vec and its norm; rejects NaN and inf.

    A finite norm has no NaN or inf entry under it, so the entries are
    scanned only when the norm is not finite: a non-finite entry, or
    finite entries whose norm is beyond the double range (such a block is
    kept, with norm inf; squares that overflow alone do not make it inf,
    see ``vector_norm``).
    """
    arr = np.array(vec, dtype=float).ravel()
    norm = vector_norm(arr)
    if not (math.isfinite(norm) or np.isfinite(arr).all()):
        raise ValueError("parameter entries must be finite")
    arr.setflags(write=False)
    return arr, norm


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its n-dimensional bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def contract(x: np.ndarray, factors, L: int, m: int, R: int, p: int, s: int) -> np.ndarray:
    """W^T x as a (p, m, s) core: the flat (L, m, R) tensor x contracted with unfolding factors.

    ``factors`` are two, a left one (L x p) and a right one (R x s), or
    one that spans both sides ((L R) x (p s), rows over (l, r) and
    columns over (p, s)), as ``TensorFormat.unfolding_factors`` hands
    them over.  x is read in its own layout: two factors take one GEMM
    each, and a spanning factor one GEMM when a side is empty, else one
    matmul batched over the L left indices and a sum over them.  No
    N-sized array is transposed or copied.  Returns a view of the last
    product where it can.
    """
    if len(factors) == 2:
        left, right = factors
        # a transposed right operand (TT's Q^T) runs BLAS's slower kernel, up to
        # twice the time of a small product; the copy is of the factor alone
        right = np.ascontiguousarray(right)
        return (left.T @ (x.reshape(L * m, R) @ right).reshape(L, m * s)).reshape(p, m, s)
    (F,) = factors
    if R == 1:
        return (F.T @ x.reshape(L, m)).reshape(p, s, m).transpose(0, 2, 1)
    if L == 1:
        G = x.reshape(m, R) @ F
    else:  # as above: F in C order gives the batches untransposed slices
        G = np.matmul(x.reshape(L, m, R), np.ascontiguousarray(F).reshape(L, R, -1)).sum(axis=0)
    return G.reshape(m, p, s).transpose(1, 0, 2)


def expand(core: np.ndarray, factors, L: int, R: int) -> np.ndarray:
    """W q as a flat (L, m, R) tensor: the (p, m, s) core q through unfolding factors.

    The other direction of ``contract``, on the same factors: one GEMM
    per factor, or for a spanning factor with both sides non-empty one
    matmul batched over the L left indices, written straight into the
    tensor's own layout.
    """
    p, m, s = core.shape
    if len(factors) == 2:
        left, right = factors
        right_t = np.ascontiguousarray(right.T)  # see ``contract``
        return ((left @ core.reshape(p, m * s)).reshape(L * m, s) @ right_t).ravel()
    (F,) = factors
    if R == 1:
        return (F @ core.transpose(0, 2, 1).reshape(p * s, m)).ravel()
    C = core.transpose(1, 0, 2).reshape(m, p * s)
    if L == 1:
        return (C @ F.T).ravel()
    return np.matmul(C, np.ascontiguousarray(F).reshape(L, R, -1).transpose(0, 2, 1)).ravel()


class ParamSystem:
    """Tuple of flat parameter blocks (immutable float64 copies).

    The block norms are computed once, when a block enters the system,
    and carried: ``replace`` computes only the new block's norm.
    """

    __slots__ = ("blocks", "_norms")

    def __init__(self, blocks):
        frozen = [_frozen_block(vec) for vec in blocks]
        object.__setattr__(self, "blocks", tuple(block for block, _ in frozen))
        object.__setattr__(self, "_norms", tuple(norm for _, norm in frozen))

    def __setattr__(self, name, value):
        raise AttributeError("ParamSystem is immutable")

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, mu: int) -> np.ndarray:
        return self.blocks[mu]

    def replace(self, mu: int, vec) -> "ParamSystem":
        """New system with block mu replaced.

        The other blocks are already frozen copies and are shared, not
        copied, and so are their norms; only the new block is copied,
        checked and measured.  mu indexes the blocks as a sequence index
        does: negative from the end, IndexError outside.  The tuples are
        rebuilt through lists: at three blocks that is about a third of
        the time of joining tuple slices.
        """
        blocks = list(self.blocks)
        norms = list(self._norms)
        blocks[mu], norms[mu] = _frozen_block(vec)
        new = object.__new__(type(self))
        object.__setattr__(new, "blocks", tuple(blocks))
        object.__setattr__(new, "_norms", tuple(norms))
        return new

    def norms(self) -> list[float]:
        return list(self._norms)

    def max_norm(self) -> float:
        return max(self._norms)

    def __repr__(self):
        sizes = tuple(b.size for b in self.blocks)
        return f"ParamSystem(block_sizes={sizes})"


class TensorFormat:
    """Base class: a multilinear parameterization of dense tensors.

    A factored format defines ``block_axes`` and ``unfolding_factors``,
    and the base class evaluates it, applies the adjoints of its local
    maps and assembles them; a format without unfolding factors defines
    ``block_dim`` and ``_evaluate_blocks`` instead, and its local map is
    probed.  A subclass sets its own fields and then calls
    ``TensorFormat.__init__``, which keeps the block lengths that
    ``check_params`` compares.
    """

    name = "abstract"
    shape: Shape
    num_blocks: int
    _block_sizes: tuple[int, ...]

    def __init__(self, shape: Shape, num_blocks: int):
        self.shape = shape
        self.num_blocks = num_blocks
        self._block_sizes = tuple(self.block_dim(mu) for mu in range(num_blocks))

    def block_axes(self, mu: int) -> tuple[int, int]:
        """(a, c): flat block mu is an (a, m_mu, c) core in C order."""
        raise NotImplementedError

    def block_dim(self, mu: int) -> int:
        """Length of flat parameter block mu (0-based)."""
        a, c = self.block_axes(mu)
        return a * self.shape.dims[mu] * c

    def mode_view(self, mu: int) -> tuple[int, int, int]:
        """(L, m_mu, R): a flat tensor viewed around mode mu, L and R the sizes on each side."""
        dims = self.shape.dims
        L, m = math.prod(dims[:mu]), dims[mu]
        return L, m, self.shape.size // (L * m)

    def _evaluate_blocks(self, blocks) -> np.ndarray:
        """The last block's local map applied to that block: ``expand`` of the last core.

        Block L - 1 holds the last mode, the fastest in the flat order, so
        R = 1 and the product is one GEMM of the factor with the core.
        """
        last = self.num_blocks - 1
        factors = self.unfolding_factors(blocks, last)
        if factors is None:
            raise NotImplementedError("a format without unfolding factors defines its evaluation")
        L, m, R = self.mode_view(last)
        a, c = self.block_axes(last)
        return expand(blocks[last].reshape(a, m, c), factors, L, R)

    def unfolding_factors(self, blocks, mu: int) -> list[np.ndarray] | None:
        """Small frozen factors of the local map of block mu; None if unknown.

        With the tensor viewed as (L, m_mu, R) (``mode_view``) and block q
        as its (a, m_mu, c) core, U(..., q, ...) is ``expand`` of the core
        through the returned factors, and W^T x is ``contract``: entry
        (l, i, r) is the sum over (a, c) of Z[(l, r), (a, c)] q[a, i, c],
        Z the Kronecker product of the factors.  So W^T W = Z^T Z (x) I,
        and W is never needed to solve the block.  The factors are one,
        over all the other modes ((L R) x a c), or two: one over the modes
        left of mu (L x a) and one over those right of it (R x c), which
        the engine keeps apart.
        """
        return None

    def local_adjoint(self, blocks, mu: int, x: np.ndarray) -> np.ndarray:
        """W^T x as a flat block, W the local map of block mu at these blocks.

        A factored format ``contract``s x with its unfolding factors and
        forms no W; any other format forms W (``local_map``).
        """
        factors = self.unfolding_factors(blocks, mu)
        if factors is None:
            return self.local_map(blocks, mu).T @ x
        return contract(x, factors, *self.mode_view(mu), *self.block_axes(mu)).ravel()

    def local_map(self, blocks, mu: int) -> np.ndarray:
        """Matrix (N, block_dim(mu)) of q -> U(..., blocks[mu-1], q, blocks[mu+1], ...).

        Z of the unfolding factors placed on the identity of mode mu: entry
        ((l, i, r), (a, i', c)) is Z[(l, r), (a, c)] if i == i', else 0,
        with l and r over the modes left and right of mu.  Z is written
        through one strided view of the zeroed W, the (L, m, R, a, c)
        diagonal over the two mode-mu axes.  A format without unfolding
        factors gets ``probe_map``.
        """
        factors = self.unfolding_factors(blocks, mu)
        if factors is None:
            return probe_map(self, blocks, mu)
        Z = factors[0] if len(factors) == 1 else kron(*factors)
        L, m, R = self.mode_view(mu)
        a, c = self.block_axes(mu)
        k = a * m * c
        W = np.zeros((L * m * R, k))
        # entry ((l, i, r), (s, i, t)) of W is its item (l m R + i R + r) k
        # + (s m + i) c + t, and an item is 8 bytes
        diagonal = np.ndarray(
            (L, m, R, a, c), float, W, 0, (8 * m * R * k, 8 * (R * k + c), 8 * k, 8 * m * c, 8)
        )
        diagonal[...] = Z.reshape(L, 1, R, a, c)
        return W

    def check_params(self, p: ParamSystem):
        """Reject a parameter system whose block lengths do not fit the format."""
        if tuple(b.size for b in p.blocks) == self._block_sizes:
            return
        if len(p) != self.num_blocks:
            raise ValueError(
                f"parameter system has {len(p)} blocks, format needs {self.num_blocks}"
            )
        for mu in range(self.num_blocks):
            want = self.block_dim(mu)
            if p[mu].size != want:
                raise ValueError(
                    f"block {mu} has length {p[mu].size}, expected {want}"
                )

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.shape.dims})"


class CpFormat(TensorFormat):
    """Sum of r rank-one terms; block mu is an m_mu x r factor matrix.

    Flat block layout is column-major, the (r, m_mu, 1) core: entries of
    term j are contiguous, so ``vec.reshape((m_mu, r), order="F")``
    recovers the factor matrix.
    """

    name = "cp"

    def __init__(self, shape: Shape, rank: int):
        rank = check_int(rank, "cp rank")
        if rank < 1:
            raise ValueError("cp rank must be >= 1")
        self.rank = rank
        super().__init__(shape, shape.ndim)

    def block_axes(self, mu: int) -> tuple[int, int]:
        return self.rank, 1

    def factor_matrix(self, p: ParamSystem, mu: int) -> np.ndarray:
        """Block mu reshaped to (m_mu, rank)."""
        return p[mu].reshape((self.shape.dims[mu], self.rank), order="F")

    def unfolding_factors(self, blocks, mu: int) -> list[np.ndarray]:
        """The Khatri-Rao product of the frozen factors, (N / m_mu) x r.

        The product runs left to right over the frozen modes, so its rows
        follow the flat order of the other modes.  It is built in C order,
        which the batched ``contract`` and ``expand`` read without a copy:
        each frozen factor is the transposed view of its (r, m) block, and
        one broadcast product per factor after the first writes a fresh
        C-ordered array.  A single frozen factor is copied into one.
        """
        r = self.rank
        kr = None
        for nu, (b, m) in enumerate(zip(blocks, self.shape.dims)):
            if nu != mu:
                factor = b.reshape(r, m).T  # the (m, r) factor matrix, a view
                if kr is None:
                    kr = factor
                else:
                    kr = np.multiply(kr[:, None, :], factor, order="C").reshape(-1, r)
        if kr is None:
            return [np.ones((1, r))]
        return [kr.copy() if self.num_blocks == 2 else kr]


class TtFormat(TensorFormat):
    """Tensor train: block mu is a core of shape (r_{mu-1}, m_mu, r_mu).

    Boundary ranks are fixed to r_0 = r_d = 1; cores are stored flat in
    C order of their three axes.
    """

    name = "tt"

    def __init__(self, shape: Shape, ranks):
        ranks = tuple(check_int(r, "tt rank") for r in ranks)
        if len(ranks) != shape.ndim - 1:
            raise ValueError(
                f"tt needs {shape.ndim - 1} internal ranks, got {len(ranks)}"
            )
        if any(r < 1 for r in ranks):
            raise ValueError("tt ranks must be >= 1")
        self.ranks = (1,) + ranks + (1,)
        super().__init__(shape, shape.ndim)

    def block_axes(self, mu: int) -> tuple[int, int]:
        return self.ranks[mu], self.ranks[mu + 1]

    def core(self, p: ParamSystem, mu: int) -> np.ndarray:
        """Block mu reshaped to (r_{mu-1}, m_mu, r_mu)."""
        return p[mu].reshape(
            (self.ranks[mu], self.shape.dims[mu], self.ranks[mu + 1])
        )

    def unfolding_factors(self, blocks, mu: int) -> list[np.ndarray]:
        """The interfaces block mu has: [P, Q^T] inside, [Q^T] first, [P] last.

        P (L x r_{mu-1}) is the product of the cores left of mu, Q
        (r_mu x R) the product of the cores right of it.  An end core has
        no cores on its outer side, so it hands over one interface; a
        one-core train hands over the 1 x 1 factor P = [1].  Each chain
        starts from its outer core plus 0.0, which is bitwise the core's
        product with the 1 x 1 factor [1], without the product: BLAS's
        sum also turns a -0.0 entry into +0.0, a sign that can decide a
        Householder reflection in the SVD of a one-core factor.  So no
        factor is a view of a frozen block.
        """
        ranks, last = self.ranks, self.num_blocks - 1
        P = blocks[0] + 0.0 if mu else np.ones(1)
        for nu in range(1, mu):
            P = P.reshape(-1, ranks[nu]) @ blocks[nu].reshape(ranks[nu], -1)
        P = P.reshape(-1, ranks[mu])
        if mu == last:
            return [P]
        Q = blocks[last] + 0.0
        for nu in range(last - 1, mu, -1):
            Q = blocks[nu].reshape(-1, ranks[nu + 1]) @ Q.reshape(ranks[nu + 1], -1)
        # int: an np.int64 mu compares to an np.bool_, which cannot slice
        return [P, Q.reshape(ranks[mu + 1], -1).T][int(mu == 0):]


class MultilinearFormat(TensorFormat):
    """Custom format from user-supplied block dims and evaluation callable.

    ``func(blocks)`` gets the flat blocks and must return the flat dense
    values; it must be linear in each block (the solver relies on it, and
    the verify command probes it).
    """

    name = "custom"

    def __init__(self, shape: Shape, block_dims, func, name: str = "custom"):
        dims = tuple(check_int(n, "block dim") for n in block_dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ValueError("block dims must be positive")
        self._block_dims = dims
        self._func = func
        self.name = name
        super().__init__(shape, len(dims))

    def block_dim(self, mu: int) -> int:
        return self._block_dims[mu]

    def _evaluate_blocks(self, blocks) -> np.ndarray:
        out = np.asarray(self._func(list(blocks)), dtype=float).ravel()
        if out.size != self.shape.size:
            raise ValueError(
                f"custom map returned {out.size} values, expected {self.shape.size}"
            )
        return out


def evaluate(fmt: TensorFormat, p: ParamSystem) -> DenseTensor:
    """Dense tensor U(p)."""
    fmt.check_params(p)
    return DenseTensor(fmt.shape, fmt._evaluate_blocks([p[mu] for mu in range(len(p))]))


def check_block(fmt: TensorFormat, p: ParamSystem, mu: int):
    """Reject parameters that do not fit fmt, or a block index out of range."""
    fmt.check_params(p)
    if not 0 <= mu < fmt.num_blocks:
        raise ValueError(f"block index {mu} out of range [0, {fmt.num_blocks})")


def check_shapes(fmt: TensorFormat, b: DenseTensor, A: SpdOperator | None = None):
    """Reject a target, or an operator, on another tensor space than the format's.

    An equal entry count is not enough: an operator or a target on the
    permuted modes of the format's shape reads the same flat values as
    another system.
    """
    if b.shape.dims != fmt.shape.dims:
        raise ValueError(
            f"incompatible shapes: target on {b.shape.dims}, format on {fmt.shape.dims}"
        )
    if A is not None and A.shape.dims != fmt.shape.dims:
        raise ValueError(
            f"incompatible shapes: operator on {A.shape.dims}, format on {fmt.shape.dims}"
        )


def check_reference_factor(fmt: TensorFormat, reference_factor) -> np.ndarray:
    """The reference of a first-factor angle as a flat float vector, checked against fmt.

    A factor with a NaN or inf entry, or of norm 0, has no angle to measure.
    """
    if not (isinstance(fmt, CpFormat) and fmt.rank == 1):
        raise ValueError("factor angles need a rank-one cp format")
    reference_factor = np.asarray(reference_factor, dtype=float).ravel()
    if reference_factor.size != fmt.shape.dims[0]:
        raise ValueError("reference factor length must match mode-1 size")
    if not np.isfinite(reference_factor).all():
        raise ValueError("reference factor must be finite")
    if vector_norm(reference_factor) == 0.0:
        raise ValueError("reference factor must be nonzero")
    return reference_factor


def check_reference(reference: DenseTensor, shape: Shape):
    """Reject a reference tensor of another shape, or of norm 0 (no angle to measure)."""
    if reference.shape.dims != shape.dims:
        raise ValueError("incompatible shapes: reference vs target")
    if reference.norm() == 0.0:
        raise ValueError("reference must be nonzero")


def probe_map(fmt: TensorFormat, blocks, mu: int) -> np.ndarray:
    """The local map of block mu by probing: one evaluation per basis vector of the block.

    The local map of a format without unfolding factors, and the
    reference the assembled maps of the factored formats are checked
    against.
    """
    dim = fmt.block_dim(mu)
    blocks = list(blocks)
    W = np.empty((fmt.shape.size, dim))
    probe = np.zeros(dim)
    for j in range(dim):
        probe[j] = 1.0
        blocks[mu] = probe
        W[:, j] = fmt._evaluate_blocks(blocks)
        probe[j] = 0.0
    return W


def materialize_W(fmt: TensorFormat, p: ParamSystem, mu: int) -> np.ndarray:
    """Matrix of the linear map q -> U(..., p_{mu-1}, q, p_{mu+1}, ...).

    Shape is (N, block_dim(mu)).  Built by ``fmt.local_map``: a factored
    format assembles it from its unfolding factors, any other multilinear
    format probes the standard basis of block mu.
    """
    check_block(fmt, p, mu)
    return fmt.local_map(p.blocks, mu)


def params_to_json(fmt: TensorFormat, p: ParamSystem) -> str:
    """Serialize a CP or TT parameter system to a JSON document."""
    fmt.check_params(p)
    if isinstance(fmt, CpFormat):
        doc = {
            "format": "cp",
            "dims": list(fmt.shape.dims),
            "ranks": [fmt.rank],
        }
    elif isinstance(fmt, TtFormat):
        doc = {
            "format": "tt",
            "dims": list(fmt.shape.dims),
            "ranks": list(fmt.ranks[1:-1]),
        }
    else:
        raise ValueError(f"format {fmt.name!r} has no JSON form")
    doc["blocks"] = [p[mu].tolist() for mu in range(len(p))]
    return json.dumps(doc)


def format_from_doc(doc) -> TensorFormat:
    """CP or TT format from ``format``, ``dims`` and ``ranks`` (one for CP, d-1 for TT)."""
    kind = doc["format"]
    shape = Shape(tuple(doc["dims"]))
    ranks = list(doc["ranks"])
    if kind == "cp":
        if len(ranks) != 1:
            raise ValueError("cp document needs exactly one rank")
        return CpFormat(shape, ranks[0])
    if kind == "tt":
        return TtFormat(shape, ranks)
    raise ValueError(f"unknown format {kind!r}")


def params_from_json(text: str) -> tuple[TensorFormat, ParamSystem]:
    """Inverse of :func:`params_to_json`."""
    doc = json.loads(text)
    try:
        fmt = format_from_doc(doc)
        p = ParamSystem(check_numbers(doc["blocks"], "blocks"))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed parameter document: {exc}") from exc
    fmt.check_params(p)
    return fmt, p
