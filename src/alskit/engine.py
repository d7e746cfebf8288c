"""Block-coordinate solver: exact one-block updates on an orthonormal basis.

Each micro-step freezes all parameter blocks but one and solves the
Galerkin system of the remaining linear map W.  ``local_solve`` takes one
of two routes to the same system.  The formed route materializes W,
orthonormalizes its range from the eigendecomposition of the Gram matrix
W^T W (Löwdin; LAPACK dsyevd, called directly like the other LAPACK
routines here) and forms G = V^T A V.  The structured route, for a
factored format (CP, TT, or any format that declares unfolding factors,
see ``formats``) with an identity or mode-wise operator, never forms an
N x k array: it works on the thin SVDs of the small unfolding factors of
W, where W^T W = Z^T Z (x) I.  Its projected operator is the Kronecker
product G = S (x) K_mu, which it never forms either: it solves
S Y K_mu = R with one Cholesky solve per factor, and it gets A applied
to the new iterate from the same factors.
Either route returns, next to the solution, the maps the system is made
of (``LocalSolve``): W, W^T and the Gram and energy pseudo-inverses.
The transfer-map replay chains them with ``coupling``, the coupling of
two blocks against the target, which depends on (b, p) alone.  Both
routes solve their SPD systems with LAPACK's Cholesky routines
(potrf/potrs, which scipy's cho_factor/cho_solve wrap, called directly
to skip the wrappers' checks); ``micro_step`` writes back the
minimum-norm block update, and wraps the solver's new iterate and its
image without re-scanning them: a non-finite entry in either makes the
new objective non-finite, and that one scalar is checked.  ``run`` is the
solver loop: each sweep calls ``micro_step`` on the blocks in order, and
sweeps repeat until a stop rule fires.  The references passed to ``run``
choose the tracked tangent: a reference factor, else a reference tensor,
else none.  The iterate's image A v is handed from step to step, so a
structured step applies no full operator and a formed step applies one;
the target's squared norm <b, b> is handed on the same way, and the
parameter system carries its block norms, so a step measures only the
block it writes.
For a verified operator ``run`` also takes the energy distance between
sweep iterates from the two carried images, so a run above the route
threshold applies A once in all.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .diagnostics import (
    EPS_RANK_DEFAULT,
    MicroStepRecord,
    RunTrace,
    objective,
    stable_tangent,
)
from .formats import (
    CpFormat,
    ParamSystem,
    TensorFormat,
    check_block,
    evaluate,
    fold,
    kron,
    kron_all,
    materialize_W,
    unfold,
)
from .tensors import (
    DenseTensor,
    IdentityOperator,
    ModeWiseOperator,
    SpdOperator,
    a_norm,
    inner,
    kron_apply,
    vector_norm,
)

# local_solve takes the structured route when the formed route's Gram work
# N * k^2 exceeds this.  It stays where it is because the route decides how
# a step rounds: moving it would change the gallery's outputs bit for bit.
STRUCTURED_MIN_GRAM_FLOPS = 1e5


@dataclass(frozen=True)
class LowdinBasis:
    """Orthonormal basis V of range(W) with its back-transform.

    ``transform`` maps projected coordinates back to block parameters:
    V = W @ transform, and transform @ transform.T is the pseudo-inverse
    of the Gram matrix W^T W.  Its columns are the kept Gram eigenvectors,
    largest eigenvalue first, scaled by delta^-1/2 and stored in Fortran
    order (the layout of ``np.linalg.eigh``'s vectors after a column mask,
    so products with it are the same BLAS calls).  ``delta`` holds the
    retained Gram eigenvalues in descending order.  ``orth_defect``, the
    measured departure of V^T V from the identity (observed, not
    enforced), is computed from V on first read: the solver never reads
    it, so a micro-step does not pay its N * rank^2 product.
    """

    V: np.ndarray
    transform: np.ndarray
    delta: np.ndarray
    rank: int

    @cached_property
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
    H = W.T @ W
    H = 0.5 * (H + H.T)
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    vals, vecs, info = lapack.dsyevd(H, lower=1)
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


def _empty_basis(N: int, n: int) -> LowdinBasis:
    return LowdinBasis(np.zeros((N, 0)), np.zeros((n, 0)), np.zeros(0), 0)


def _cholesky_solve(G: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve G y = rhs for SPD G through LAPACK potrf/potrs; returns (y, factor).

    The same calls, with the same arguments, as scipy's
    ``cho_factor(G, lower=True)`` and ``cho_solve``, so y is identical to
    theirs; ``factor`` holds the lower Cholesky factor for ``_cholesky_apply``.
    An unverified operator (above the SPD check cap) that is not positive
    definite surfaces here as a ValueError.
    """
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    factor, info = lapack.dpotrf(G, lower=1, clean=0)
    if info != 0:
        raise ValueError("projected operator not positive definite")
    return _cholesky_apply(factor, rhs), factor


def _cholesky_apply(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G^-1 rhs from the lower Cholesky factor of G (LAPACK potrs)."""
    # potrs fails only on malformed arguments, which potrf has accepted
    return lapack.dpotrs(factor, rhs, lower=1)[0]


@dataclass(frozen=True)
class LocalSolve:
    """The solved Galerkin system of one block, and the maps it is made of.

    G y = V^T b with G = V^T A V on an orthonormal basis V = W T of
    range(W), of dimension ``rank``.  ``block`` is the minimum-norm new
    block T y and ``iterate`` the new flat tensor V y; at rank 0 both are
    None.  The maps take a flat block-mu vector q or a flat tensor x:

    - ``forward(q)`` is W q and ``adjoint(x)`` is W^T x;
    - ``gram_pinv(q)`` is T T^T q, the pseudo-inverse of W^T W;
    - ``energy_pinv(q)`` is T G^-1 T^T q, the pseudo-inverse of W^T A W,
      from the solve's own Cholesky factors.

    The two pseudo-inverses are None at rank 0.  ``route`` is "formed" or
    "structured".  The formed route's maps are products with its W and
    Löwdin transform T.  The structured route's are contractions of
    unfoldings with the small factors, and it also returns ``image``, the
    flat tensor A @ iterate, which the formed route leaves None.  The maps
    are closures over arrays the solve holds, so a micro-step that never
    applies them pays nothing for them.
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
    ``diagnostics.materialize_M`` is its dense reference.  A factored
    format contracts the unfolding of b with the unfolding factors of the
    modified system; any other format forms the modified W once.
    """
    check_block(fmt, p, nu)
    if nu == mu:
        raise ValueError("coupling needs two distinct blocks")
    system = p.replace(nu, q)
    check_block(fmt, system, mu)
    factors = fmt.unfolding_factors(system.blocks, mu)
    if factors is None:
        return materialize_W(fmt, system, mu).T @ b.values
    dims = fmt.shape.dims
    F = unfold(b.values, math.prod(dims[:mu]), dims[mu]) @ kron_all(factors)
    return fmt.block_from_unfolding(F, mu)


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


def formed_solve(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem, mu: int, eps_rank: float
) -> LocalSolve:
    """The Galerkin system of block mu on the formed W and its Löwdin basis.

    G = V^T A V (symmetrized); the new block is basis.transform @ y.
    """
    W = materialize_W(fmt, p, mu)
    basis = lowdin_basis(W, eps_rank)
    maps = (W.__matmul__, W.T.__matmul__)
    if basis.rank == 0:
        return LocalSolve(0, None, None, *maps, None, None, "formed")
    V, T = basis.V, basis.transform
    G = V.T @ A.apply_matrix(V)
    G = 0.5 * (G + G.T)
    y, factor = _cholesky_solve(G, V.T @ b.values)

    def gram_pinv(q):
        return T @ (T.T @ q)

    def energy_pinv(q):
        return T @ _cholesky_apply(factor, T.T @ q)

    return LocalSolve(
        basis.rank, T @ y, V @ y, *maps, gram_pinv, energy_pinv, "formed"
    )


def structured_solve(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem, mu: int, eps_rank: float
) -> LocalSolve | None:
    """The Galerkin system of block mu from the small frozen factors alone.

    The mode-mu unfolding of the block's image is F Z^T, Z the Kronecker
    product of ``fmt.unfolding_factors`` (the CP Khatri-Rao factor, or
    the TT interfaces P and Q^T).  Each factor gets a thin SVD; since
    W^T W = Z^T Z (x) I, keeping the products of singular values with
    sigma^2 > eps_rank * sigma_1^2 is the formed route's Gram cut.  The
    kept left singular vectors U_k give V = U_k (x) I, so that
    G = S (x) K_mu with S = U_k^T (K_L (x) K_R) U_k from a mode-wise apply
    on U_k, and V^T b and W^T x are contractions of the unfolding with U_k
    and Z.  G y = V^T b is solved as the matrix equation S Y K_mu = R,
    R = U_k^T unfold(b)^T, by a Cholesky solve with S and then one with
    K_mu (Van Loan 2000), at O(k^3 + m^3) in place of O(k^3 m^3); y is Y
    in (kept column, i) order.  The minimum-norm block is Y T_k^T with
    Z T_k = U_k, and the new iterate's image A V y is
    fold(K_mu Y^T ((K_L (x) K_R) U_k)^T), from the same mode-wise apply.
    The maps of ``LocalSolve`` act on a block through its unfolding F:
    W q = fold(F Z^T), and the pseudo-inverses multiply F by T_k, solve
    with the two Cholesky factors (energy only) and multiply by T_k^T.

    A non-finite factor (finite parameters can overflow into one) raises
    numpy's LinAlgError("SVD did not converge") instead of reaching
    gesdd, which can fail to return on a matrix with an inf entry.
    Returns None when there is no structure to use: an operator other
    than identity or mode-wise, or a format without unfolding factors.
    """
    check_eps_rank(eps_rank)
    check_block(fmt, p, mu)
    if type(A) not in (IdentityOperator, ModeWiseOperator):
        return None
    factors = fmt.unfolding_factors(p.blocks, mu)
    if factors is None:
        return None
    dims = fmt.shape.dims
    m, left = dims[mu], math.prod(dims[:mu])
    Z = kron_all(factors)

    def to_block(F):
        return fmt.block_from_unfolding(F, mu)

    def forward(q):
        return fold(fmt.block_to_unfolding(q, mu) @ Z.T, left, m)

    def adjoint(x):
        return to_block(unfold(x, left, m) @ Z)

    kept = []
    for factor in factors:
        if not np.isfinite(factor).all():
            raise np.linalg.LinAlgError("SVD did not converge")
        Uf, sigma, Xt = _thin_svd(factor)
        if sigma[0] == 0.0:
            return LocalSolve(0, None, None, forward, adjoint, None, None, "structured")
        # a factor's direction that fails the cut on its own fails it in every product
        ratio_f = (sigma / sigma[0]) ** 2
        cut = ratio_f > eps_rank
        kept.append((Uf[:, cut], Xt[cut].T / sigma[cut], ratio_f[cut]))
    U, T, ratio = kept[0]
    for Uf, Tf, ratio_f in kept[1:]:
        U, T, ratio = kron(U, Uf), kron(T, Tf), np.outer(ratio, ratio_f).ravel()
    keep = ratio > eps_rank
    U, T = U[:, keep], T[:, keep]

    K_mu = K_factor = None  # the identity
    AU = U
    if type(A) is ModeWiseOperator:
        K_mu = A.factors[mu]
        others = A.factors[:mu] + A.factors[mu + 1:]
        if others:
            AU = kron_apply(others, U)
    S = U.T @ AU
    Y, S_factor = _cholesky_solve(0.5 * (S + S.T), U.T @ unfold(b.values, left, m).T)
    if K_mu is not None:
        Y, K_factor = _cholesky_solve(0.5 * (K_mu + K_mu.T), Y.T)
        Y = Y.T
    block = to_block((T @ Y).T)
    iterate = fold(Y.T @ U.T, left, m)
    image = iterate if K_mu is None else fold((K_mu @ Y.T) @ AU.T, left, m)

    def gram_pinv(q):
        FT = fmt.block_to_unfolding(q, mu) @ T
        return to_block(FT @ T.T)

    def energy_pinv(q):
        X = _cholesky_apply(S_factor, (fmt.block_to_unfolding(q, mu) @ T).T)
        if K_factor is not None:
            X = _cholesky_apply(K_factor, X.T).T
        return to_block((T @ X).T)

    return LocalSolve(
        Y.size, block, iterate, forward, adjoint, gram_pinv, energy_pinv, "structured", image,
    )


def local_solve(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem, mu: int, eps_rank: float
) -> LocalSolve:
    """Build and solve the Galerkin system of block mu on the cheaper route.

    The structured route is taken when the formed route's Gram work
    N * k^2 exceeds STRUCTURED_MIN_GRAM_FLOPS and ``structured_solve`` has
    structure to use (a factored format with an identity or mode-wise
    operator); every other system is formed.  Either route returns the same maps
    (``LocalSolve``), so a caller that reads them, such as the
    transfer-map replay, works on both.
    """
    if (
        0 <= mu < fmt.num_blocks
        and fmt.shape.size * fmt.block_dim(mu) ** 2 > STRUCTURED_MIN_GRAM_FLOPS
    ):
        sol = structured_solve(A, b, fmt, p, mu, eps_rank)
        if sol is not None:
            return sol
    return formed_solve(A, b, fmt, p, mu, eps_rank)


def micro_step(
    A: SpdOperator,
    b: DenseTensor,
    fmt: TensorFormat,
    p: ParamSystem,
    mu: int,
    eps_rank: float = EPS_RANK_DEFAULT,
    *,
    sweep: int = 0,
    v_old: DenseTensor | None = None,
    f_old: float | None = None,
    Av_old: DenseTensor | None = None,
    b2: float | None = None,
) -> tuple[ParamSystem, DenseTensor, DenseTensor, MicroStepRecord]:
    """Exact update of block mu; returns (new params, new iterate, its image, record).

    ``local_solve`` solves the projected SPD system V^T A V y = V^T b.
    The block written back is the minimum-norm representative, orthogonal
    to the kernel of W.  A degenerate step (W = 0) leaves the parameters
    unchanged.  The incoming iterate v_old, its objective, its image
    ``Av_old`` = A v_old and the target's squared norm ``b2`` = <b, b> are
    computed when not given.  The new iterate's image A v_new comes from
    the structured solve, or from one apply on the formed route; ``run``
    hands it to the next step as ``Av_old``.
    The new iterate and image are wrapped unscanned; a non-finite entry
    in either makes f_new non-finite, and then the entries are checked
    and the usual ValueError("tensor entries must be finite") is raised.
    """
    if b2 is None:
        b2 = inner(b, b)
    if b2 == 0.0:
        raise ValueError("objective undefined for zero target")
    if v_old is None:
        v_old = evaluate(fmt, p)
    if Av_old is None:
        Av_old = A.apply(v_old)
    if f_old is None:
        f_old = objective(A, b, v_old, Av_old)

    resid_old = b.values - Av_old.values
    sol = local_solve(A, b, fmt, p, mu, eps_rank)
    grad = vector_norm(sol.adjoint(resid_old))
    if sol.rank == 0:  # degenerate: keep p, v, A v and f
        p_new, v_new, Av_new, f_new, resid_orth = p, v_old, Av_old, f_old, grad
    else:
        p_new = p.replace(mu, sol.block)
        v_new = DenseTensor._wrap(b.shape, sol.iterate)
        Av_new = A.apply(v_new) if sol.image is None else DenseTensor._wrap(b.shape, sol.image)
        f_new = (0.5 * inner(Av_new, v_new) - inner(b, v_new)) / b2
        if not math.isfinite(f_new):  # a non-finite entry, or an overflow of f alone
            DenseTensor(b.shape, v_new.values)
            DenseTensor(b.shape, Av_new.values)
        resid_orth = vector_norm(sol.adjoint(b.values - Av_new.values))
    record = MicroStepRecord(
        sweep=sweep,
        mu=mu,
        f=f_new,
        decrement=f_new - f_old,
        grad_norm=grad / b2,
        W_rank=sol.rank,
        resid_orth=resid_orth,
        param_norm_max=p_new.max_norm(),
    )
    return p_new, v_new, Av_new, record


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
    off, is rejected.  Reason priority: degenerate, angle_small,
    grad_small, f_stalled, max_sweeps.
    """

    max_sweeps: int
    f_tol: float = 0.0
    grad_tol: float = 0.0
    angle_tol: float | None = None

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        for name in ("f_tol", "grad_tol"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if self.angle_tol is not None and not self.angle_tol > 0:
            if np.isnan(self.angle_tol):
                raise ValueError("angle_tol must be a number, got nan")
            object.__setattr__(self, "angle_tol", None)


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
    """The solver loop: sweeps of micro-steps until a stop rule fires; returns the trace.

    Sweep k calls ``micro_step`` on each block in order and hands it the
    carried iterate, its image A v, its objective and <b, b>; with
    ``keep_params`` the parameters are recorded before each step.  Per
    sweep the trace records the objective, the tangent of the angle to a
    reference and the energy-norm distance between consecutive sweep
    iterates (``energy_distance``).  The references given choose the
    tangent: ``reference_factor`` the angle of the first factor (a
    rank-one CP format only), else ``reference`` the angle of the full
    tensor, else none; ``RunTrace.angle_mode`` is "factor", "full" or
    "none" accordingly.
    """
    fmt.check_params(init)
    if reference_factor is not None:
        if not (isinstance(fmt, CpFormat) and fmt.rank == 1):
            raise ValueError("factor angles need a rank-one cp format")
        reference_factor = np.asarray(reference_factor, dtype=float).ravel()
        if reference_factor.size != fmt.shape.dims[0]:
            raise ValueError("reference factor length must match mode-1 size")
        mode, ref = "factor", reference_factor
    elif reference is not None:
        mode, ref = "full", reference.values
    else:
        mode, ref = "none", None

    p = init
    v = evaluate(fmt, p)
    Av = A.apply(v)
    f = objective(A, b, v, Av)
    b2 = inner(b, b)
    initial_f = f
    initial_pmax = p.max_norm()

    records: list[MicroStepRecord] = []
    snapshots: list[ParamSystem] | None = [] if keep_params else None
    sweep_f: list[float] = []
    sweep_tangent: list[float | None] = []
    dist_a: list[float] = []
    termination = "max_sweeps"

    for k in range(1, stop.max_sweeps + 1):
        v_prev, Av_prev, f_prev = v, Av, f
        recs = []
        for mu in range(fmt.num_blocks):
            if snapshots is not None:
                snapshots.append(p)
            p, v, Av, rec = micro_step(
                A, b, fmt, p, mu, eps_rank, sweep=k, v_old=v, f_old=f, Av_old=Av, b2=b2
            )
            f = rec.f
            recs.append(rec)
        records.extend(recs)

        tan = None
        if ref is not None:
            x = p[0] if mode == "factor" else v.values
            if np.any(x):
                tan = stable_tangent(ref, x)
        sweep_f.append(f)
        sweep_tangent.append(tan)
        dist_a.append(energy_distance(A, v, v_prev, Av, Av_prev))

        if any(r.degenerate for r in recs):
            termination = "degenerate"
            break
        if (
            stop.angle_tol is not None
            and tan is not None
            and np.isfinite(tan)
            and tan < stop.angle_tol
        ):
            termination = "angle_small"
            break
        if max(r.grad_norm for r in recs) <= stop.grad_tol:
            termination = "grad_small"
            break
        if abs(f - f_prev) <= stop.f_tol:
            termination = "f_stalled"
            break

    return RunTrace(
        records=records,
        termination=termination,
        sweeps=records[-1].sweep if records else 0,
        angle_mode=mode,
        initial_f=initial_f,
        initial_param_norm_max=initial_pmax,
        sweep_f=sweep_f,
        sweep_tangent=sweep_tangent,
        dist_a=dist_a,
        final_params=p,
        final_v=v,
        param_snapshots=snapshots,
    )
