"""Block-coordinate solver: exact one-block updates on an orthonormal basis.

Each micro-step freezes all parameter blocks but one and solves the
Galerkin system of the remaining linear map W.  ``local_solve`` takes one
of two routes to the same system.  The formed route materializes W,
orthonormalizes its range from the eigendecomposition of the Gram matrix
W^T W (Löwdin; LAPACK dsyevd, called directly like the other LAPACK
routines here) and forms G = V^T A V.  The structured route, for a
factored format (CP, TT, or any format that declares unfolding factors,
see ``formats``) with an operator that declares itself a Kronecker
product (``SpdOperator.mode_sides``: the identity and the mode-wise
operator do; the engine tests no operator type), never forms an N x k
array: it works on the thin SVDs of the small unfolding factors of W,
where W^T W = Z^T Z (x) I.  Its projected operator is the Kronecker
product G = S (x) K_mu, which it never forms either: S is the kept part
of a Kronecker product of one small block per unfolding factor (the two
interfaces of a TT core apart), and S Y K_mu = R is solved with one
Cholesky solve with S and the operator's ``mode_solve``.
It reads and writes a flat tensor only in its own (L, m_mu, R) layout,
through ``formats.contract`` (W^T x) and ``formats.expand`` (W q): GEMMs
with the factors, with no transposed copy and no Kronecker basis.  Such
an operator passes through a factored format,
A U(p) = U(K_1 p_1, ..., K_d p_d) (``RunState.at``), and the
structured route applies its factors on each side of mu to that
side's thin factor alone (``kron_apply``).
Either route returns, next to the solution and its image A V y (from the
A V its G is made of), the maps the system is made of: W, W^T and the
Gram and energy pseudo-inverses.  That record, ``LocalSolve``, and the
Löwdin basis, ``LowdinBasis``, are named tuples.
The transfer-map replay chains them with ``coupling``, the coupling of
two blocks against the target, which depends on (b, p) alone.  Both
routes solve their SPD systems with LAPACK's Cholesky routines
(potrf/potrs, which scipy's cho_factor/cho_solve wrap, called directly
to skip the wrappers' checks).  A micro-step maps one ``RunState`` (the
parameters, the iterate v, its image A v, the residual b - A v, the
objective and <b, b>) to the next: ``micro_step`` writes back the
minimum-norm block update, and wraps the solver's new iterate and its
image without re-scanning them: a non-finite entry in either makes the
new objective non-finite, and that one scalar is checked.  ``run`` is the
solver loop: each sweep calls ``micro_step`` on the blocks in order, and
sweeps repeat until ``StopRule.termination`` names a reason to stop.
The references passed to ``run`` choose the tracked tangent: a reference
factor, else a reference tensor, else none.  Each step takes the new
image from its solve, so no step applies the full operator, and the
parameter system carries its block norms, so a step measures only the
block it writes.
The first state comes from ``RunState.at``: for a Kronecker product on
a factored format (CP, TT) its image is an evaluation at the blocks with
the factors applied, otherwise one full apply.  For a verified
operator ``run`` also takes the energy distance between sweep iterates
from the two states' images, so a run with the identity or a mode-wise
operator on CP or TT makes no full apply, any other run applies A once
in all on either route, and an unverified operator once more per sweep.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack

from .diagnostics import (
    EPS_RANK_DEFAULT,
    MicroStepRecord,
    RunTrace,
    stable_tangent,
)
from .formats import (
    ParamSystem,
    TensorFormat,
    check_block,
    check_reference,
    check_reference_factor,
    check_shapes,
    contract,
    evaluate,
    expand,
    kron,
    materialize_W,
)
from .tensors import (
    DenseTensor,
    SpdOperator,
    a_norm,
    all_finite,
    check_int,
    inner,
    kron_apply,
    vector_norm,
)

# local_solve takes the structured route when the formed route's Gram work
# N * k^2 exceeds this.  It stays where it is because the route decides how
# a step rounds: moving it would change the gallery's outputs bit for bit.
STRUCTURED_MIN_GRAM_FLOPS = 1e5

_SMALLEST_NORMAL = sys.float_info.min  # 2^-1022


class LowdinBasis(NamedTuple):
    """Orthonormal basis V of range(W) with its back-transform.

    ``transform`` maps projected coordinates back to block parameters:
    V = W @ transform, and transform @ transform.T is the pseudo-inverse
    of the Gram matrix W^T W.  Its columns are the kept Gram eigenvectors,
    largest eigenvalue first, scaled by delta^-1/2 and stored in Fortran
    order (the layout of ``np.linalg.eigh``'s vectors after a column mask,
    so products with it are the same BLAS calls).  ``delta`` holds the
    retained Gram eigenvalues in descending order.  ``orth_defect``, the
    measured departure of V^T V from the identity (observed, not
    enforced), is computed from V on each read: the solver never reads
    it, so a micro-step does not pay its N * rank^2 product.
    """

    V: np.ndarray
    transform: np.ndarray
    delta: np.ndarray
    rank: int

    @property
    def orth_defect(self) -> float:
        if self.rank == 0:
            return 0.0
        return float(np.max(np.abs(self.V.T @ self.V - np.eye(self.rank))))


def check_eps_rank(eps_rank: float):
    """Reject a rank cut outside [0, 1): at 1 or above no eigenvalue is kept."""
    if not 0.0 <= eps_rank < 1.0:
        raise ValueError(f"eps_rank must be nonnegative and below 1, got {eps_rank!r}")


def lowdin_basis(W: np.ndarray, eps_rank: float = EPS_RANK_DEFAULT) -> LowdinBasis:
    """Orthonormalize the columns of W by the symmetric eigendecomposition.

    Gram eigenvalues delta_i <= eps_rank * delta_1 are discarded; if no
    positive eigenvalue remains (W numerically zero) the basis is empty,
    of rank 0: the step is degenerate.  The Gram matrix is decomposed by
    LAPACK dsyevd on its lower triangle, the routine and triangle that
    ``np.linalg.eigh`` uses, called directly to skip the wrapper.  A
    non-finite Gram matrix (finite parameters can overflow into W) raises
    numpy's LinAlgError("Eigenvalues did not converge") before LAPACK
    sees it.
    """
    W = np.asarray(W, dtype=float)
    check_eps_rank(eps_rank)
    n = W.shape[1]
    if n == 0:
        return _empty_basis(W.shape[0], n)
    H, finite = _gram(W)
    if not (finite or np.isfinite(H).all()):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    # H is exactly symmetric, so H.T is H in Fortran order: LAPACK works in
    # it in place, without the copy f2py would make of a C-ordered array
    vals, vecs, info = lapack.dsyevd(H.T, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    # ascending: the largest eigenvalue is last, the kept ones a suffix
    ascending = vals.tolist()
    if ascending[-1] <= 0.0:
        return _empty_basis(W.shape[0], n)
    rank = n - bisect.bisect_right(ascending, eps_rank * ascending[-1])
    vals = vals[::-1][:rank].copy()
    # Fortran order, as LowdinBasis says
    transform = np.divide(vecs[:, ::-1][:, :rank], np.sqrt(vals), order="F")
    return LowdinBasis(W @ transform, transform, vals, rank)


def _gram(X: np.ndarray) -> tuple[np.ndarray, bool]:
    """(H, finite): H = X^T X, bitwise 0.5 * (H + H^T), and whether H is known finite.

    numpy computes X.T @ X with BLAS syrk, whose result is exactly
    symmetric, so the symmetrization returns H unchanged unless an entry
    reaches half the double range, where it overflows to inf.  An entry
    of a Gram matrix is at most the mean of its two diagonal entries
    (Cauchy-Schwarz, up to a few rounding errors), so a doubled trace
    that is finite rules that out, and every NaN and inf entry with it:
    H is returned as computed, known finite.  Otherwise H is symmetrized,
    which turns such an entry into inf, and its entries are the caller's
    to scan.
    """
    H = X.T @ X
    trace = sum(H.diagonal().tolist())  # Python floats: an overflow is inf, not a warning
    if math.isfinite(trace + trace):
        return H, True
    return 0.5 * (H + H.T), False


def _empty_basis(N: int, n: int) -> LowdinBasis:
    return LowdinBasis(np.zeros((N, 0)), np.zeros((n, 0)), np.zeros(0), 0)


def _cholesky_solve(
    G: np.ndarray, rhs: np.ndarray, G_finite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Solve G y = rhs for SPD G through LAPACK potrf/potrs; returns (y, factor).

    The same calls, with the same arguments, as scipy's
    ``cho_factor(G, lower=True)`` and ``cho_solve``, so y is identical to
    theirs; ``factor`` holds the lower Cholesky factor for ``_cholesky_apply``.
    An unverified operator (above the SPD check cap) that is not positive
    definite surfaces here as a ValueError, and so does a non-finite entry
    in G or rhs (``all_finite``).  ``G_finite`` says that the caller
    already knows G to be finite (``_gram``), and then only rhs is scanned.
    """
    if not ((G_finite or all_finite(G)) and all_finite(rhs)):
        raise ValueError("array must not contain infs or NaNs")
    factor, info = lapack.dpotrf(G, lower=1, clean=0)
    if info != 0:
        raise ValueError("projected operator not positive definite")
    return _cholesky_apply(factor, rhs), factor


def _cholesky_apply(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G^-1 rhs from the lower Cholesky factor of G (LAPACK potrs)."""
    # potrs fails only on malformed arguments, which potrf has accepted
    return lapack.dpotrs(factor, rhs, lower=1)[0]


class LocalSolve(NamedTuple):
    """The solved Galerkin system of one block, and the maps it is made of.

    G y = V^T b with G = V^T A V on an orthonormal basis V = W T of
    range(W), of dimension ``rank``.  ``block`` is the minimum-norm new
    block T y, ``iterate`` the new flat tensor V y and ``image`` its image
    A V y, from the A V that G is made of; at rank 0 all three are None.
    The maps take a flat block-mu vector q or a flat tensor x:

    - ``forward(q)`` is W q and ``adjoint(x)`` is W^T x;
    - ``gram_pinv(q)`` is T T^T q, the pseudo-inverse of W^T W;
    - ``energy_pinv(q)`` is T G^-1 T^T q, the pseudo-inverse of W^T A W,
      from the solve's own Cholesky factors.

    The two pseudo-inverses are None at rank 0.  ``route`` is "formed" or
    "structured".  The formed route's maps are products with its W and
    Löwdin transform T.  The structured route's are ``contract`` and
    ``expand`` with the small factors.  The maps are closures over arrays
    the solve holds, so a micro-step that never applies them pays nothing
    for them.
    """

    rank: int
    block: np.ndarray | None
    iterate: np.ndarray | None
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    gram_pinv: Callable[[np.ndarray], np.ndarray] | None
    energy_pinv: Callable[[np.ndarray], np.ndarray] | None
    route: str
    image: np.ndarray | None = None


def coupling(
    fmt: TensorFormat, b: DenseTensor, p: ParamSystem, mu: int, nu: int, q: np.ndarray
) -> np.ndarray:
    """W_mu(p with block nu := q)^T b: the coupling of blocks (mu, nu) against b, applied to q.

    The coupling belongs to (b, p), not to a solve; the transfer-map
    replay applies it between two solves' maps, and
    ``diagnostics.materialize_M`` is its dense reference.  It is
    ``TensorFormat.local_adjoint`` of b at the modified system: a factored
    format ``contract``s b with its unfolding factors, any other format
    forms the modified W once.
    """
    check_block(fmt, p, nu)
    check_shapes(fmt, b)
    if nu == mu:
        raise ValueError("coupling needs two distinct blocks")
    system = p.replace(nu, q)
    check_block(fmt, system, mu)
    return fmt.local_adjoint(system.blocks, mu, b.values)


def _thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd(a, full_matrices=False) through LAPACK gesdd directly.

    The same LAPACK routine numpy's wrapper calls, without the wrapper's
    overhead; a NaN entry (gesdd's info = -4) or a failed convergence
    raises numpy's LinAlgError.
    """
    u, s, vt, info = lapack.dgesdd(a, full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, s, vt


def _kept_ratios(sigma: list[float], eps_rank: float) -> list[float]:
    """The squared ratios (sigma_i / sigma_1)^2 > eps_rank of descending singular values.

    In Python floats, which divide and multiply as numpy does, so each
    is bitwise an entry of ``(sigma / sigma[0]) ** 2``.  The ratios
    descend, so the kept ones are those before the first that is not
    above eps_rank; at sigma_1 = 0 (numpy's 0 / 0 is NaN) none is kept.
    """
    if sigma[0] == 0.0:
        return []
    ratios = []
    for x in sigma:
        r = x / sigma[0]
        r *= r
        if not r > eps_rank:
            break
        ratios.append(r)
    return ratios


def formed_solve(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem, mu: int, eps_rank: float
) -> LocalSolve:
    """The Galerkin system of block mu on the formed W and its Löwdin basis.

    G = V^T (A V) (symmetrized; for the identity the exactly symmetric
    ``_gram`` of V, whose finiteness ``_gram`` reports, so the solve scans
    only V^T b); the new block is basis.transform @ y, the iterate V y
    and its image (A V) y: the iterate itself for the identity.
    """
    check_shapes(fmt, b, A)
    W = materialize_W(fmt, p, mu)
    basis = lowdin_basis(W, eps_rank)
    maps = (W.__matmul__, W.T.__matmul__)
    if basis.rank == 0:
        return LocalSolve(0, None, None, *maps, None, None, "formed")
    V, T = basis.V, basis.transform
    AV = A.apply_matrix(V)
    if AV is V:
        G, G_finite = _gram(V)
    else:
        G = V.T @ AV
        G, G_finite = 0.5 * (G + G.T), False
    y, factor = _cholesky_solve(G, V.T @ b.values, G_finite)
    iterate = V @ y

    def gram_pinv(q):
        return T @ (T.T @ q)

    def energy_pinv(q):
        return T @ _cholesky_apply(factor, T.T @ q)

    image = iterate if AV is V else AV @ y
    return LocalSolve(basis.rank, T @ y, iterate, *maps, gram_pinv, energy_pinv, "formed", image)


def structured_solve(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem, mu: int, eps_rank: float
) -> LocalSolve | None:
    """The Galerkin system of block mu from the small frozen factors alone.

    W q is ``expand`` of the block through ``fmt.unfolding_factors``
    (the CP Khatri-Rao factor, or the TT interfaces a core has: P and Q^T,
    one of them at an end), and W^T x is ``contract``.  Each factor gets a
    thin SVD, and since W^T W = Z^T Z (x) I, Z the Kronecker product of the
    factors, one cut on the products of their squared singular-value
    ratios, sigma^2 > eps_rank * sigma_1^2, is the formed route's Gram cut.
    Each factor keeps the leading block of directions that some kept
    product uses: U_f of its left singular vectors, T_f = X_f Sigma_f^-1
    of its back-transform.  The kept basis V = U_k (x) I, U_k the kept
    columns of U_P (x) U_Q (or the one U_f), is never formed: the solve
    works on (p, m_mu, s) cores, p and s the factors' kept directions
    (s = 1 for one factor), with the kept products a mask on (p, s).
    G = S (x) K_mu, S = U_k^T A_{!=mu} U_k: for two factors the kept
    submatrix of (U_P^T K_L U_P) (x) (U_Q^T K_R U_Q), K_L and K_R the
    Kronecker products of the factors left and right of mu
    (``A.mode_sides``), each applied to its own U_f by ``kron_apply``
    (one factor gets both sides; an empty side applies nothing).
    V^T b is ``contract`` of b with the U_f; the iterate V y and its image
    A V y are ``expand`` of the solution core with the U_f and of K_mu Y
    with the A U_f, the image the iterate itself when ``A.mode_apply``
    returns its operand (the identity).  G y = V^T b is the matrix
    equation S Y K_mu = R, solved by a Cholesky solve with S and then by
    ``A.mode_solve`` (Van Loan 2000), at O(k^3 + m^2 k) in place of
    O(k^3 m^3); y is Y in (kept product, i) order.  The block and the
    pseudo-inverses go between a block and a core through the T_f the
    same way.  No array of
    N / m_mu rows is formed but a factor the format hands over (a CP
    factor, an end core's interface) and its products with the operator.

    A non-finite factor (finite parameters can overflow into one) raises
    numpy's LinAlgError("SVD did not converge") instead of reaching
    gesdd, which can fail to return on a matrix with an inf entry.
    Returns None when there is no structure to use: an operator that
    declares none (asked before any factor or SVD), or a format without
    unfolding factors.
    """
    check_eps_rank(eps_rank)
    check_block(fmt, p, mu)
    check_shapes(fmt, b, A)
    sides = A.mode_sides(mu)
    if sides is None:
        return None
    factors = fmt.unfolding_factors(p.blocks, mu)
    if factors is None:
        return None
    L, m, R = fmt.mode_view(mu)
    a, c = fmt.block_axes(mu)

    def forward(q):
        return expand(q.reshape(a, m, c), factors, L, R)

    def adjoint(x):
        return contract(x, factors, L, m, R, a, c).ravel()

    # the ratios descend, and no product of them exceeds a factor's own:
    # the directions some kept product uses are a leading block of each
    # factor, none of them a zero singular value (a tiny one, at an
    # eps_rank near 0, can still overflow its column of T_f)
    U, T, ratios = [], [], []
    for factor in factors:
        if not all_finite(factor):
            raise np.linalg.LinAlgError("SVD did not converge")
        Uf, sigma, Xt = _thin_svd(factor)
        s = sigma.tolist()
        if s[0] == 0.0:
            return LocalSolve(0, None, None, forward, adjoint, None, None, "structured")
        ratio = _kept_ratios(s, eps_rank)
        n = len(ratio)
        # the rows of X^T are orthonormal, so X^T / sigma overflows only
        # where sigma is subnormal, and only then are its warnings silenced
        if s[n - 1] < _SMALLEST_NORMAL:
            with np.errstate(over="ignore"):
                T.append(Xt[:n].T / sigma[:n])
        else:
            T.append(Xt[:n].T / sigma[:n])
        U.append(Uf[:, :n])
        ratios.append(ratio)
    if len(U) == 2:
        ps = (U[0].shape[1], U[1].shape[1])
        # every product is kept when that of the two smallest kept ratios is
        # (a factor whose sigma_1 overflows keeps none, and so no product)
        keep = None
        if ratios[0] and ratios[1] and not ratios[0][-1] * ratios[1][-1] > eps_rank:
            keep = np.outer(*ratios).ravel() > eps_rank
    else:  # gesdd's Fortran order; kron_apply and a batched matmul read C order
        U[0] = np.ascontiguousarray(U[0])
        ps, keep = (U[0].shape[1], 1), None
        sides = ((*sides[0], *sides[1]),)  # the one factor spans both sides

    def pack(core):
        """The kept products of a (p, m, s) core, as the rows of a (k', m) matrix."""
        X = core.transpose(0, 2, 1).reshape(-1, m)
        return X if keep is None else X[keep]

    def unpack(X):
        """Inverse of ``pack``: the (p, m, s) core with zeros on the dropped products."""
        if keep is not None:
            full = np.zeros((keep.size, m))
            full[keep] = X
            X = full
        return X.reshape(ps[0], ps[1], m).transpose(0, 2, 1)

    AU = [kron_apply(Ks, Uf) if Ks else Uf for Ks, Uf in zip(sides, U)]
    grams = [Uf.T @ AUf for Uf, AUf in zip(U, AU)]
    S = grams[0] if len(grams) == 1 else kron(*grams)
    if keep is not None:
        S = S[np.ix_(keep, keep)]
    SR, S_factor = _cholesky_solve(0.5 * (S + S.T), pack(contract(b.values, U, L, m, R, *ps)))
    # Y^T = K_mu^-1 (S^-1 R)^T: the operator's products take the mode axis first
    Yt = A.mode_solve(mu, SR.T)
    core = unpack(Yt.T)
    block = expand(core, T, a, c)
    iterate = expand(core, U, L, R)
    KYt = A.mode_apply(mu, Yt)
    image = iterate if KYt is Yt else expand(unpack(KYt.T), AU, L, R)

    def gram_pinv(q):
        return expand(unpack(pack(contract(q, T, a, m, c, *ps))), T, a, c)

    def energy_pinv(q):
        X = _cholesky_apply(S_factor, pack(contract(q, T, a, m, c, *ps)))
        return expand(unpack(A.mode_solve(mu, X.T).T), T, a, c)

    return LocalSolve(
        Yt.size, block, iterate, forward, adjoint, gram_pinv, energy_pinv, "structured", image,
    )


def local_solve(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem, mu: int, eps_rank: float
) -> LocalSolve:
    """Build and solve the Galerkin system of block mu on the cheaper route.

    The structured route is taken when the formed route's Gram work
    N * k^2 exceeds STRUCTURED_MIN_GRAM_FLOPS and ``structured_solve`` has
    structure to use (a factored format with an operator that declares
    its Kronecker structure); every other system is formed.  Either route
    returns the same maps (``LocalSolve``), so a caller that reads them,
    such as the transfer-map replay, works on both.
    """
    sizes = fmt._block_sizes
    if 0 <= mu < len(sizes) and fmt.shape.size * sizes[mu] ** 2 > STRUCTURED_MIN_GRAM_FLOPS:
        sol = structured_solve(A, b, fmt, p, mu, eps_rank)
        if sol is not None:
            return sol
    return formed_solve(A, b, fmt, p, mu, eps_rank)


class RunState(NamedTuple):
    """The solver's state at one iterate, the input and output of a micro-step.

    ``v`` is U(params), ``Av`` its image A v, ``resid`` the flat residual
    b - A v, ``f`` the objective and ``b2`` the target's squared norm
    <b, b>.  ``at`` is the one place a state is computed from parameters;
    ``micro_step`` makes each next state from its solve.
    """

    params: ParamSystem
    v: DenseTensor
    Av: DenseTensor
    resid: np.ndarray
    f: float
    b2: float

    @classmethod
    def at(cls, A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem) -> RunState:
        """The state at U(p).

        For a Kronecker product (``A.mode_sides``) on a factored format
        (one that declares unfolding factors), A v is an evaluation with
        no full apply: block nu holds mode nu and U is linear in each
        block, so A U(p) = U(K_1 p_1, ..., K_d p_d) (Kolda & Bader 2009),
        each K_nu applied to the mode axis of its (a, m_nu, c) core
        (``A.mode_apply``).  Any other operator or format is applied to
        v.  An operator or target on other modes than the format's, and
        a zero target, are rejected.  <b, b> is computed once, for the
        objective and the state.  The Kronecker path wraps its two
        evaluations unscanned, as ``micro_step`` wraps its solve's: a
        non-finite entry in either makes f non-finite, and then the
        entries are checked and ValueError("tensor entries must be
        finite") raised.
        """
        check_shapes(fmt, b, A)
        if (
            A.mode_sides(0) is not None  # a Kronecker product
            and type(fmt).unfolding_factors is not TensorFormat.unfolding_factors
        ):
            fmt.check_params(p)
            v = DenseTensor._wrap(fmt.shape, fmt._evaluate_blocks(p.blocks))
            blocks = [
                A.mode_apply(nu, q.reshape(fmt.block_axes(nu)[0], m, -1)).ravel()
                for nu, (m, q) in enumerate(zip(fmt.shape.dims, p.blocks))
            ]
            Av = DenseTensor._wrap(fmt.shape, fmt._evaluate_blocks(blocks))
        else:
            v = evaluate(fmt, p)
            Av = A.apply(v)
        b2 = inner(b, b)
        # the objective (<Av, v> / 2 - <b, v>) / <b, b>, as ``diagnostics.objective``
        f = (0.5 * inner(Av, v) - inner(b, v)) / b2 if b2 else math.nan
        if not math.isfinite(f):  # a non-finite entry, a zero target, or an overflow of f alone
            DenseTensor(fmt.shape, v.values)
            DenseTensor(fmt.shape, Av.values)
            if not b2:
                raise ValueError("objective undefined for zero target")
        return cls(p, v, Av, b.values - Av.values, f, b2)


def micro_step(
    A: SpdOperator,
    b: DenseTensor,
    fmt: TensorFormat,
    state: RunState,
    mu: int,
    eps_rank: float = EPS_RANK_DEFAULT,
    *,
    sweep: int = 0,
) -> tuple[RunState, MicroStepRecord]:
    """Exact update of block mu from ``state``; returns (the new state, the step's record).

    ``local_solve`` solves the projected SPD system V^T A V y = V^T b.
    The block written back is the minimum-norm representative, orthogonal
    to the kernel of W.  The gradient W^T (b - A v) reads ``state.resid``.
    A degenerate step (W = 0) returns ``state`` itself.  Otherwise the new
    iterate's image A v_new comes from the solve on either route, so the
    step applies no full operator, and b - A v_new, which the Galerkin
    residual W^T (b - A v_new) is measured on, is the new state's residual.
    The new iterate and image are wrapped unscanned; a non-finite entry
    in either makes f_new non-finite, and then the entries are checked
    and the usual ValueError("tensor entries must be finite") is raised.
    """
    sol = local_solve(A, b, fmt, state.params, mu, eps_rank)
    grad = vector_norm(sol.adjoint(state.resid))
    if sol.rank == 0:  # degenerate: keep the state
        new, resid_orth = state, grad
    else:
        p_new = state.params.replace(mu, sol.block)
        v_new = DenseTensor._wrap(b.shape, sol.iterate)
        # the identity's image is the iterate itself: one immutable tensor for both
        Av_new = v_new if sol.image is sol.iterate else DenseTensor._wrap(b.shape, sol.image)
        # inner's dots, on vectors whose shapes the solve has fixed
        x = v_new.values
        f_new = (0.5 * float(Av_new.values.dot(x)) - float(b.values.dot(x))) / state.b2
        if not math.isfinite(f_new):  # a non-finite entry, or an overflow of f alone
            DenseTensor(b.shape, v_new.values)
            DenseTensor(b.shape, Av_new.values)
        new = RunState(p_new, v_new, Av_new, b.values - Av_new.values, f_new, state.b2)
        resid_orth = vector_norm(sol.adjoint(new.resid))
    # sweep, mu, f, decrement, grad_norm, W_rank, resid_orth, param_norm_max
    record = MicroStepRecord(
        sweep, mu, new.f, new.f - state.f, grad / state.b2, sol.rank, resid_orth,
        new.params.max_norm(),
    )
    return new, record


def energy_distance(
    A: SpdOperator, v: DenseTensor, v_prev: DenseTensor, Av: DenseTensor, Av_prev: DenseTensor
) -> float:
    """||v - v_prev||_A, from the carried images Av = A v and Av_prev = A v_prev.

    For a verified operator the radicand is <Av - Av_prev, v - v_prev>,
    with no apply; a rounding-level difference can make it slightly
    negative, and it is clamped at 0.  An unverified operator is applied
    to v - v_prev by ``a_norm``, which raises if A is not PSD on it.
    """
    if not A.verified:
        return a_norm(A, v - v_prev)
    rad = float(np.dot(Av.values - Av_prev.values, v.values - v_prev.values))
    return math.sqrt(max(rad, 0.0))


@dataclass(frozen=True)
class StopRule:
    """Termination policy checked at the end of each sweep.

    ``f_tol`` and ``grad_tol`` are inclusive (<=) with default 0, i.e.
    they fire only on exact stalls unless widened.  ``angle_tol`` is a
    strict < test on the per-sweep tangent; None or a nonpositive value
    disables it.  A NaN tolerance, which would silently switch its test
    off, is rejected, and so is a ``max_sweeps`` that is not an integer.
    ``termination`` decides, after each sweep, whether the run stops and
    why, in the reason priority degenerate, angle_small, grad_small,
    f_stalled, max_sweeps.
    """

    max_sweeps: int
    f_tol: float = 0.0
    grad_tol: float = 0.0
    angle_tol: float | None = None

    def __post_init__(self):
        if check_int(self.max_sweeps, "max_sweeps") < 1:
            raise ValueError("max_sweeps must be >= 1")
        for name in ("f_tol", "grad_tol"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if self.angle_tol is not None and not self.angle_tol > 0:
            if np.isnan(self.angle_tol):
                raise ValueError("angle_tol must be a number, got nan")
            object.__setattr__(self, "angle_tol", None)

    def termination(self, sweep: int, records, tan: float | None, f_change: float) -> str | None:
        """The reason the run stops after this sweep, or None to go on.

        ``records`` are the sweep's micro-step records, ``tan`` its
        tangent (None when untracked or undefined) and ``f_change`` the
        objective change |f_k - f_{k-1}| over it.  The reasons are tested
        in priority order; an infinite or NaN tangent is never below
        ``angle_tol``.
        """
        if any(rec.degenerate for rec in records):
            return "degenerate"
        if self.angle_tol is not None and tan is not None and tan < self.angle_tol:
            return "angle_small"
        if max(rec.grad_norm for rec in records) <= self.grad_tol:
            return "grad_small"
        if f_change <= self.f_tol:
            return "f_stalled"
        if sweep >= self.max_sweeps:
            return "max_sweeps"
        return None


def run(
    A: SpdOperator,
    b: DenseTensor,
    fmt: TensorFormat,
    init: ParamSystem,
    stop: StopRule,
    eps_rank: float = EPS_RANK_DEFAULT,
    *,
    reference: DenseTensor | None = None,
    reference_factor=None,
    keep_params: bool = False,
) -> RunTrace:
    """The solver loop: sweeps of micro-steps until ``stop`` names a reason; returns the trace.

    The run carries one ``RunState``, from ``RunState.at(init)``: sweep k
    calls ``micro_step`` on each block in order, each on the state the
    step before returned; with ``keep_params`` the parameters are
    recorded before each step.  Per sweep the trace records the
    objective, the tangent of the angle to a reference and the
    energy-norm distance between consecutive sweep iterates
    (``energy_distance``).  The references given choose the
    tangent: ``reference_factor`` the angle of the first factor (a
    rank-one CP format only), else ``reference`` the angle of the full
    tensor, else none; ``RunTrace.angle_mode`` is "factor", "full" or
    "none" accordingly.  A reference with no angle to measure (see
    ``check_reference_factor`` and ``check_reference``) raises before the
    first step.
    """
    fmt.check_params(init)
    if reference_factor is not None:
        mode, ref = "factor", check_reference_factor(fmt, reference_factor)
    elif reference is not None:
        check_reference(reference, b.shape)
        mode, ref = "full", reference.values
    else:
        mode, ref = "none", None

    state = RunState.at(A, b, fmt, init)
    initial_f = state.f

    records: list[MicroStepRecord] = []
    snapshots: list[ParamSystem] | None = [] if keep_params else None
    sweep_f: list[float] = []
    sweep_tangent: list[float | None] = []
    dist_a: list[float] = []

    for k in range(1, stop.max_sweeps + 1):
        # the sweep's first iterate, image and objective, not its state:
        # holding its residual through the sweep as well took a CP 30^3
        # r8 run from ~350 to ~650 minor page faults, ~15% of its time
        v_prev, Av_prev, f_prev = state.v, state.Av, state.f
        recs = []
        for mu in range(fmt.num_blocks):
            if snapshots is not None:
                snapshots.append(state.params)
            state, rec = micro_step(A, b, fmt, state, mu, eps_rank, sweep=k)
            recs.append(rec)
        records.extend(recs)

        tan = None
        if ref is not None:
            x = state.params[0] if mode == "factor" else state.v.values
            if np.any(x):
                tan = stable_tangent(ref, x)
        sweep_f.append(state.f)
        sweep_tangent.append(tan)
        dist_a.append(energy_distance(A, state.v, v_prev, state.Av, Av_prev))

        termination = stop.termination(k, recs, tan, abs(state.f - f_prev))
        if termination is not None:
            break

    return RunTrace(
        records=records,
        termination=termination,
        sweeps=records[-1].sweep if records else 0,
        angle_mode=mode,
        initial_f=initial_f,
        initial_param_norm_max=init.max_norm(),
        sweep_f=sweep_f,
        sweep_tangent=sweep_tangent,
        dist_a=dist_a,
        final_params=state.params,
        final_v=state.v,
        param_snapshots=snapshots,
    )
