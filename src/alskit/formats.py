"""Multilinear parameter formats: CP, tensor train, and custom maps.

A format is a map U(p_1, ..., p_L) from L flat parameter blocks into the
dense tensor space, linear in each block separately.  That multilinearity
is what the solver exploits: freezing all blocks but one leaves a linear
map W, returned by ``TensorFormat.local_map``.  CP and TT build W from
their structure (a Khatri-Rao product, respectively the left and right
interface matrices, placed on the identity of the free mode); the generic
fallback, used by custom formats, probes the standard basis one column
at a time.
"""

from __future__ import annotations

import json

import numpy as np

from .tensors import DenseTensor, Shape


def _frozen_block(vec) -> np.ndarray:
    """Read-only flat float64 copy of vec; rejects NaN and inf."""
    arr = np.array(vec, dtype=float).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError("parameter entries must be finite")
    arr.flags.writeable = False
    return arr


class ParamSystem:
    """Tuple of flat parameter blocks (immutable float64 copies)."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(_frozen_block(vec) for vec in blocks))

    def __setattr__(self, name, value):
        raise AttributeError("ParamSystem is immutable")

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, mu: int) -> np.ndarray:
        return self.blocks[mu]

    def replace(self, mu: int, vec) -> "ParamSystem":
        """New system with block mu replaced.

        The other blocks are already frozen copies and are shared, not
        copied; only the new block is copied and checked.
        """
        blocks = list(self.blocks)
        blocks[mu] = _frozen_block(vec)
        new = object.__new__(type(self))
        object.__setattr__(new, "blocks", tuple(blocks))
        return new

    def norms(self) -> list[float]:
        return [float(np.linalg.norm(b)) for b in self.blocks]

    def max_norm(self) -> float:
        return max(self.norms())

    def __repr__(self):
        sizes = tuple(b.size for b in self.blocks)
        return f"ParamSystem(block_sizes={sizes})"


class TensorFormat:
    """Base class: a multilinear parameterization of dense tensors."""

    name = "abstract"
    shape: Shape
    num_blocks: int

    def block_dim(self, mu: int) -> int:
        """Length of flat parameter block mu (0-based)."""
        raise NotImplementedError

    def _evaluate_blocks(self, blocks) -> np.ndarray:
        raise NotImplementedError

    def local_map(self, blocks, mu: int) -> np.ndarray:
        """Matrix (N, block_dim(mu)) of q -> U(..., blocks[mu-1], q, blocks[mu+1], ...).

        Generic fallback: one evaluation per standard basis vector of
        block mu.  Formats with known structure override it; this probe is
        the reference their overrides are checked against.
        """
        dim = self.block_dim(mu)
        blocks = list(blocks)
        W = np.empty((self.shape.size, dim))
        probe = np.zeros(dim)
        for j in range(dim):
            probe[j] = 1.0
            blocks[mu] = probe
            W[:, j] = self._evaluate_blocks(blocks)
            probe[j] = 0.0
        return W

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

    Flat block layout is column-major: entries of term j are contiguous,
    so ``vec.reshape((m_mu, r), order="F")`` recovers the factor matrix.
    """

    name = "cp"

    def __init__(self, shape: Shape, rank: int):
        rank = int(rank)
        if rank < 1:
            raise ValueError("cp rank must be >= 1")
        self.shape = shape
        self.rank = rank
        self.num_blocks = shape.ndim

    def block_dim(self, mu: int) -> int:
        return self.shape.dims[mu] * self.rank

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

    def local_map(self, blocks, mu: int) -> np.ndarray:
        """Khatri-Rao product of the frozen factors placed on the identity.

        Column i + m_mu * j is the rank-one term j with its mode-mu factor
        replaced by e_i.  The product runs left to right over the frozen
        modes, in the order of ``_evaluate_blocks``, so W equals the probed
        matrix exactly.
        """
        dims = self.shape.dims
        r = self.rank
        kr = np.ones((1, r))
        for nu, (b, m) in enumerate(zip(blocks, dims)):
            if nu != mu:
                kr = (kr[:, None, :] * b.reshape((m, r), order="F")[None]).reshape(-1, r)
        m = dims[mu]
        left = int(np.prod(dims[:mu]))
        # W[(left, i, right), (j, i')] is kr[(left, right), j] if i == i', else 0
        W = np.zeros((left, m, kr.shape[0] // left, r, m))
        diag = np.arange(m)
        W[:, diag, :, :, diag] = kr.reshape(left, -1, r)
        return W.reshape(self.shape.size, self.block_dim(mu))


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

    def block_dim(self, mu: int) -> int:
        return self.ranks[mu] * self.shape.dims[mu] * self.ranks[mu + 1]

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

    def local_map(self, blocks, mu: int) -> np.ndarray:
        """Left interface (x) identity (x) right interface.

        Entry ((l, i, q), (a, i', c)) is P[l, a] * Q[c, q] if i == i', else
        0, with P the product of the cores left of mu (L x r_{mu-1}) and Q
        the product of the cores right of it (r_mu x R).
        """
        dims, ranks = self.shape.dims, self.ranks
        P = np.ones((1, 1))
        for nu in range(mu):
            P = P.reshape(-1, ranks[nu]) @ blocks[nu].reshape(ranks[nu], -1)
        P = P.reshape(-1, ranks[mu])
        Q = np.ones((1, 1))
        for nu in range(self.num_blocks - 1, mu, -1):
            Q = blocks[nu].reshape(-1, ranks[nu + 1]) @ Q.reshape(ranks[nu + 1], -1)
        Q = Q.reshape(ranks[mu + 1], -1)
        m = dims[mu]
        W = np.zeros((P.shape[0], m, Q.shape[1], ranks[mu], m, ranks[mu + 1]))
        diag = np.arange(m)
        W[:, diag, :, :, diag, :] = P[:, None, :, None] * Q.T[None, :, None, :]
        return W.reshape(self.shape.size, self.block_dim(mu))


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


def total_param_dim(fmt: TensorFormat) -> int:
    return sum(fmt.block_dim(mu) for mu in range(fmt.num_blocks))


def materialize_W(fmt: TensorFormat, p: ParamSystem, mu: int) -> np.ndarray:
    """Matrix of the linear map q -> U(..., p_{mu-1}, q, p_{mu+1}, ...).

    Shape is (N, block_dim(mu)).  Built by ``fmt.local_map``: CP and TT
    assemble it from their structure, any other multilinear format by
    probing the standard basis of block mu.
    """
    fmt.check_params(p)
    if not 0 <= mu < fmt.num_blocks:
        raise ValueError(f"block index {mu} out of range [0, {fmt.num_blocks})")
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
