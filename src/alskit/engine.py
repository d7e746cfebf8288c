"""Block-coordinate solver: exact one-block updates through a Löwdin basis.

Each micro-step freezes all parameter blocks but one, materializes the
resulting linear map W, orthonormalizes its range from the eigenvalue
decomposition of the Gram matrix W^T W, solves the projected SPD system
with LAPACK's Cholesky routines (potrf/potrs, the ones scipy's
cho_factor/cho_solve wrap, called directly to skip the wrappers' checks),
and writes back the minimum-norm block update.  A sweep visits the
blocks in order; the driver repeats sweeps until a stop rule fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .diagnostics import (
    EPS_RANK_DEFAULT,
    MicroStepRecord,
    RunTrace,
    objective,
    stable_tangent,
)
from .formats import CpFormat, ParamSystem, TensorFormat, evaluate, materialize_W
from .tensors import DenseTensor, SpdOperator, a_norm, inner

ANGLE_MODES = ("auto", "factor", "full", "none")


@dataclass(frozen=True)
class LowdinBasis:
    """Orthonormal basis V of range(W) with its back-transform.

    ``transform`` maps projected coordinates back to block parameters:
    V = W @ transform, and transform @ transform.T is the pseudo-inverse
    of the Gram matrix W^T W.  ``delta`` holds the retained Gram
    eigenvalues in descending order.  ``orth_defect``, the measured
    departure of V^T V from the identity (observed, not enforced), is
    computed from V on first read: the solver never reads it, so a
    micro-step does not pay its N * rank^2 product.
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
    of rank 0: the step is degenerate.
    """
    W = np.asarray(W, dtype=float)
    check_eps_rank(eps_rank)
    n = W.shape[1]
    H = W.T @ W
    H = 0.5 * (H + H.T)
    vals, vecs = np.linalg.eigh(H)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if n == 0 or vals[0] <= 0.0:
        empty = np.zeros((W.shape[0], 0))
        return LowdinBasis(empty, np.zeros((n, 0)), np.zeros(0), 0)
    keep = vals > eps_rank * vals[0]
    vals = np.ascontiguousarray(vals[keep])
    vecs = vecs[:, keep]
    transform = vecs / np.sqrt(vals)
    return LowdinBasis(W @ transform, transform, vals, int(vals.size))


def _cholesky_solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G y = rhs for SPD G through LAPACK potrf/potrs (lower factor).

    The same calls, with the same arguments, as scipy's
    ``cho_factor(G, lower=True)`` and ``cho_solve``, so the result is
    identical to theirs.  An unverified operator (above the SPD check
    cap) that is not positive definite surfaces here as a ValueError.
    """
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    factor, info = lapack.dpotrf(G, lower=1, clean=0)
    if info != 0:
        raise ValueError("projected operator not positive definite")
    # potrs fails only on malformed arguments, which potrf has accepted
    return lapack.dpotrs(factor, rhs, lower=1)[0]


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
) -> tuple[ParamSystem, DenseTensor, MicroStepRecord]:
    """Exact update of block mu; returns (new params, new iterate, record).

    The projected system V^T A V y = V^T b is SPD of size W_rank and is
    solved by Cholesky factorization.  The block written back is the
    minimum-norm representative transform @ y, orthogonal to the kernel
    of W.  A degenerate step (W = 0) leaves the parameters unchanged.
    """
    b2 = inner(b, b)
    if b2 == 0.0:
        raise ValueError("objective undefined for zero target")
    if v_old is None:
        v_old = evaluate(fmt, p)
    if f_old is None:
        f_old = objective(A, b, v_old)

    W = materialize_W(fmt, p, mu)
    resid_old = b.values - A.apply(v_old).values
    grad = float(np.linalg.norm(W.T @ resid_old))

    basis = lowdin_basis(W, eps_rank)
    if basis.rank == 0:  # degenerate: keep p, v and f
        p_new, v_new, f_new, resid_orth = p, v_old, f_old, grad
    else:
        V = basis.V
        AV = A.apply_matrix(V)
        G = V.T @ AV
        G = 0.5 * (G + G.T)
        y = _cholesky_solve(G, V.T @ b.values)

        p_new = p.replace(mu, basis.transform @ y)
        v_new = DenseTensor(b.shape, V @ y)
        Av_new = A.apply(v_new)
        f_new = (0.5 * inner(Av_new, v_new) - inner(b, v_new)) / b2
        resid_orth = float(np.linalg.norm(W.T @ (b.values - Av_new.values)))
    record = MicroStepRecord(
        sweep=sweep,
        mu=mu,
        f=f_new,
        decrement=f_new - f_old,
        grad_norm=grad / b2,
        W_rank=basis.rank,
        resid_orth=resid_orth,
        param_norm_max=p_new.max_norm(),
    )
    return p_new, v_new, record


def sweep(
    A: SpdOperator,
    b: DenseTensor,
    fmt: TensorFormat,
    p: ParamSystem,
    eps_rank: float = EPS_RANK_DEFAULT,
    *,
    sweep_index: int = 0,
    v: DenseTensor | None = None,
    f: float | None = None,
    snapshots: list | None = None,
) -> tuple[ParamSystem, DenseTensor, list[MicroStepRecord]]:
    """One pass over all blocks in order; returns (params, iterate, records)."""
    if v is None:
        v = evaluate(fmt, p)
    if f is None:
        f = objective(A, b, v)
    records = []
    for mu in range(fmt.num_blocks):
        if snapshots is not None:
            snapshots.append(p)
        p, v, rec = micro_step(
            A, b, fmt, p, mu, eps_rank, sweep=sweep_index, v_old=v, f_old=f
        )
        f = rec.f
        records.append(rec)
    return p, v, records


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


def _resolve_angle_mode(
    angle_mode: str,
    fmt: TensorFormat,
    reference: DenseTensor | None,
    reference_factor,
) -> str:
    if angle_mode not in ANGLE_MODES:
        raise ValueError(f"unknown angle mode {angle_mode!r}")
    if angle_mode == "auto":
        if reference_factor is not None:
            angle_mode = "factor"
        elif reference is not None:
            angle_mode = "full"
        else:
            return "none"
    if angle_mode == "factor":
        if reference_factor is None:
            raise ValueError("angle mode 'factor' needs a reference factor")
        if not (isinstance(fmt, CpFormat) and fmt.rank == 1):
            raise ValueError("factor angles need a rank-one cp format")
    if angle_mode == "full" and reference is None:
        raise ValueError("angle mode 'full' needs a reference tensor")
    return angle_mode


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
    angle_mode: str = "auto",
    keep_params: bool = False,
) -> RunTrace:
    """Sweep until a stop rule fires; returns the full trace.

    Per sweep the trace records the objective, the tangent of the angle
    to the reference (factor or full-tensor, per ``angle_mode``), and the
    energy-norm distance between consecutive sweep iterates.
    """
    fmt.check_params(init)
    mode = _resolve_angle_mode(angle_mode, fmt, reference, reference_factor)
    if reference_factor is not None:
        reference_factor = np.asarray(reference_factor, dtype=float).ravel()
        if mode == "factor" and reference_factor.size != fmt.shape.dims[0]:
            raise ValueError("reference factor length must match mode-1 size")

    p = init
    v = evaluate(fmt, p)
    f = objective(A, b, v)
    initial_f = f
    initial_pmax = p.max_norm()

    records: list[MicroStepRecord] = []
    snapshots: list[ParamSystem] | None = [] if keep_params else None
    sweep_f: list[float] = []
    sweep_tangent: list[float | None] = []
    dist_a: list[float] = []
    termination = "max_sweeps"

    def current_tangent() -> float | None:
        if mode == "factor":
            p1 = p[0]
            if not np.any(p1):
                return None
            return stable_tangent(reference_factor, p1)
        if mode == "full":
            if not np.any(v.values):
                return None
            return stable_tangent(reference.values, v.values)
        return None

    for k in range(1, stop.max_sweeps + 1):
        v_prev = v
        f_prev = f
        p, v, recs = sweep(
            A, b, fmt, p, eps_rank, sweep_index=k, v=v, f=f, snapshots=snapshots
        )
        f = recs[-1].f
        records.extend(recs)

        tan = current_tangent()
        sweep_f.append(f)
        sweep_tangent.append(tan)
        dist_a.append(a_norm(A, v - v_prev))

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
