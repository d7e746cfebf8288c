"""Multilinear parameter formats: CP, tensor train, and custom maps.

A format is a map U(p_1, ..., p_L) from L flat parameter blocks into the
dense tensor space, linear in each block separately.  That multilinearity
is what the solver exploits: freezing all blocks but one leaves a linear
map W, returned by ``TensorFormat.local_map``.

A factored format declares its evaluation, its unfolding factors and the
layout of its blocks: block mu is a flat (a, m_mu, c) core in C order,
and ``block_axes(mu)`` gives (a, c), (r, 1) for CP and (r_{mu-1}, r_mu)
for TT.  The mode-mu unfolding of U(..., q, ...) is F Z^T, with
F = ``unfold(q, a, m_mu)`` and Z = ``kron_all(unfolding_factors)``.  The
factors are the ones the block has: the Khatri-Rao product of the other
CP factors; the interfaces P and Q^T of an interior TT core, and only Q^T
or P at the first or last core.  The base class derives the rest from
these, W included; the engine's structured solve uses the same factors
without forming W.  A format without unfolding factors gets W from
``probe_map``, one evaluation per basis vector of the block, which is
also the reference the assembled maps are checked against.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .tensors import DenseTensor, Shape, vector_norm


def _frozen_block(vec) -> np.ndarray:
    """Read-only flat float64 copy of vec; rejects NaN and inf."""
    arr = np.array(vec, dtype=float).ravel()
    if not np.isfinite(arr).all():
        raise ValueError("parameter entries must be finite")
    arr.flags.writeable = False
    return arr


def unfold(x: np.ndarray, a: int, m: int) -> np.ndarray:
    """x viewed as (a, m, rest), with the middle axis moved first: an m x (x.size / m) matrix.

    A block core (a, m_mu, c) unfolds to its F, with columns over (a, c);
    a flat tensor unfolds along mode mu with a = m_1 ... m_{mu-1}.
    """
    return x.reshape(a, m, -1).transpose(1, 0, 2).reshape(m, -1)


def fold(X: np.ndarray, a: int, m: int) -> np.ndarray:
    """Inverse of ``unfold``: the flat array whose unfolding is the m-row matrix X."""
    return X.reshape(m, a, -1).transpose(1, 0, 2).ravel()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its n-dimensional bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def kron_all(factors: list[np.ndarray]) -> np.ndarray:
    """Z, the Kronecker product of the unfolding factors, in order."""
    Z = factors[0]
    for factor in factors[1:]:
        Z = kron(Z, factor)
    return Z


class ParamSystem:
    """Tuple of flat parameter blocks (immutable float64 copies).

    The block norms are computed once, when a block enters the system,
    and carried: ``replace`` computes only the new block's norm.
    """

    __slots__ = ("blocks", "_norms")

    def __init__(self, blocks):
        blocks = tuple(_frozen_block(vec) for vec in blocks)
        with np.errstate(over="ignore"):  # construction measures, it does not warn
            norms = tuple(vector_norm(b) for b in blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_norms", norms)

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
        checked and measured.
        """
        blocks = list(self.blocks)
        norms = list(self._norms)
        blocks[mu] = block = _frozen_block(vec)
        norms[mu] = vector_norm(block)
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

    A factored format defines ``_evaluate_blocks``, ``block_axes`` and
    ``unfolding_factors``; a format without unfolding factors defines
    ``block_dim`` instead, and its local map is probed.
    """

    name = "abstract"
    shape: Shape
    num_blocks: int

    def block_axes(self, mu: int) -> tuple[int, int]:
        """(a, c): flat block mu is an (a, m_mu, c) core in C order."""
        raise NotImplementedError

    def block_dim(self, mu: int) -> int:
        """Length of flat parameter block mu (0-based)."""
        a, c = self.block_axes(mu)
        return a * self.shape.dims[mu] * c

    def _evaluate_blocks(self, blocks) -> np.ndarray:
        raise NotImplementedError

    def unfolding_factors(self, blocks, mu: int) -> list[np.ndarray] | None:
        """Small frozen factors of the local map of block mu; None if unknown.

        The mode-mu unfolding of U(..., q, ...) (m_mu rows; columns over
        the other modes, in order) is F Z^T, where F is block q as its
        m_mu x (a c) unfolding (``block_to_unfolding``) and Z the
        Kronecker product of the returned factors (``kron_all``), with
        rows over the other modes and columns over (a, c).  So
        W^T W = Z^T Z (x) I, and W is never needed to solve the block.
        """
        return None

    def block_to_unfolding(self, q: np.ndarray, mu: int) -> np.ndarray:
        """Flat block mu as its m_mu x (a c) unfolding matrix F."""
        return unfold(q, self.block_axes(mu)[0], self.shape.dims[mu])

    def block_from_unfolding(self, F: np.ndarray, mu: int) -> np.ndarray:
        """Inverse of ``block_to_unfolding``: flat block mu from its unfolding F."""
        return fold(F, self.block_axes(mu)[0], self.shape.dims[mu])

    def local_map(self, blocks, mu: int) -> np.ndarray:
        """Matrix (N, block_dim(mu)) of q -> U(..., blocks[mu-1], q, blocks[mu+1], ...).

        Z of the unfolding factors placed on the identity of mode mu: entry
        ((l, i, r), (a, i', c)) is Z[(l, r), (a, c)] if i == i', else 0,
        with l and r over the modes left and right of mu.  Z is written
        through ``np.einsum("lirkic->lirkc", W)``, a writable view of the
        diagonal over the two mode-mu axes.  A format without unfolding
        factors gets ``probe_map``.
        """
        factors = self.unfolding_factors(blocks, mu)
        if factors is None:
            return probe_map(self, blocks, mu)
        Z = kron_all(factors)
        dims = self.shape.dims
        m, left = dims[mu], math.prod(dims[:mu])
        a, c = self.block_axes(mu)
        W = np.zeros((left, m, Z.shape[0] // left, a, m, c))
        np.einsum("lirkic->lirkc", W)[...] = Z.reshape(left, 1, -1, a, c)
        return W.reshape(self.shape.size, a * m * c)

    def check_params(self, p: ParamSystem):
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
        rank = int(rank)
        if rank < 1:
            raise ValueError("cp rank must be >= 1")
        self.shape = shape
        self.rank = rank
        self.num_blocks = shape.ndim

    def block_axes(self, mu: int) -> tuple[int, int]:
        return self.rank, 1

    def factor_matrix(self, p: ParamSystem, mu: int) -> np.ndarray:
        """Block mu reshaped to (m_mu, rank)."""
        return p[mu].reshape((self.shape.dims[mu], self.rank), order="F")

    def _evaluate_blocks(self, blocks) -> np.ndarray:
        mats = [
            b.reshape((m, self.rank), order="F")
            for b, m in zip(blocks, self.shape.dims)
        ]
        out = np.zeros(self.shape.dims)
        for j in range(self.rank):
            t = mats[0][:, j]
            for mat in mats[1:]:
                t = np.multiply.outer(t, mat[:, j])
            out += t
        return out.ravel()

    def unfolding_factors(self, blocks, mu: int) -> list[np.ndarray]:
        """The Khatri-Rao product of the frozen factors, (N / m_mu) x r.

        The product runs left to right over the frozen modes, in the order
        of ``_evaluate_blocks``.
        """
        r = self.rank
        kr = None
        for nu, (b, m) in enumerate(zip(blocks, self.shape.dims)):
            if nu != mu:
                factor = b.reshape(r, m).T  # the (m, r) factor matrix, a view
                if kr is None:  # the product's first term, in the factor's layout
                    kr = factor.copy(order="K")
                else:
                    kr = (kr[:, None, :] * factor[None]).reshape(-1, r)
        return [np.ones((1, r)) if kr is None else kr]


class TtFormat(TensorFormat):
    """Tensor train: block mu is a core of shape (r_{mu-1}, m_mu, r_mu).

    Boundary ranks are fixed to r_0 = r_d = 1; cores are stored flat in
    C order of their three axes.
    """

    name = "tt"

    def __init__(self, shape: Shape, ranks):
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != shape.ndim - 1:
            raise ValueError(
                f"tt needs {shape.ndim - 1} internal ranks, got {len(ranks)}"
            )
        if any(r < 1 for r in ranks):
            raise ValueError("tt ranks must be >= 1")
        self.shape = shape
        self.ranks = (1,) + ranks + (1,)
        self.num_blocks = shape.ndim

    def block_axes(self, mu: int) -> tuple[int, int]:
        return self.ranks[mu], self.ranks[mu + 1]

    def core(self, p: ParamSystem, mu: int) -> np.ndarray:
        """Block mu reshaped to (r_{mu-1}, m_mu, r_mu)."""
        return p[mu].reshape(
            (self.ranks[mu], self.shape.dims[mu], self.ranks[mu + 1])
        )

    def _evaluate_blocks(self, blocks) -> np.ndarray:
        cores = [
            b.reshape((self.ranks[mu], self.shape.dims[mu], self.ranks[mu + 1]))
            for mu, b in enumerate(blocks)
        ]
        t = cores[0]  # shape (1, m_1, r_1)
        for core in cores[1:]:
            t = np.tensordot(t, core, axes=(t.ndim - 1, 0))
        return t.reshape(self.shape.dims).ravel()

    def unfolding_factors(self, blocks, mu: int) -> list[np.ndarray]:
        """The interfaces block mu has: [P, Q^T] inside, [Q^T] first, [P] last.

        P (L x r_{mu-1}) is the product of the cores left of mu, Q
        (r_mu x R) the product of the cores right of it.  An end core has
        no cores on its outer side, so it hands over one interface; a
        one-core train hands over the 1 x 1 factor P = [1].
        """
        ranks = self.ranks
        P = np.ones((1, 1))
        for nu in range(mu):
            P = P.reshape(-1, ranks[nu]) @ blocks[nu].reshape(ranks[nu], -1)
        P = P.reshape(-1, ranks[mu])
        if mu == self.num_blocks - 1:
            return [P]
        Q = np.ones((1, 1))
        for nu in range(self.num_blocks - 1, mu, -1):
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
        dims = tuple(int(n) for n in block_dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ValueError("block dims must be positive")
        self.shape = shape
        self._block_dims = dims
        self._func = func
        self.num_blocks = len(dims)
        self.name = name

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


def check_reference_factor(fmt: TensorFormat, reference_factor) -> np.ndarray:
    """The reference of a first-factor angle as a flat float vector, checked against fmt."""
    if not (isinstance(fmt, CpFormat) and fmt.rank == 1):
        raise ValueError("factor angles need a rank-one cp format")
    reference_factor = np.asarray(reference_factor, dtype=float).ravel()
    if reference_factor.size != fmt.shape.dims[0]:
        raise ValueError("reference factor length must match mode-1 size")
    return reference_factor


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
    shape = Shape(tuple(int(m) for m in doc["dims"]))
    ranks = [int(r) for r in doc["ranks"]]
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
        blocks = doc["blocks"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter document: {exc}") from exc
    p = ParamSystem(blocks)
    fmt.check_params(p)
    return fmt, p
