"""Convergence diagnostics: objective, gradients, angles, rates, monitors.

Everything here observes a solve; nothing steers it.  The normalized
objective is f(v) = (<Av,v>/2 - <b,v>) / <b,b>, so targets of different
scale produce comparable traces.  Rate classification follows the
tangent-ratio taxonomy: superlinear (ratio -> 0), linear (ratio settles
in (0,1)), sublinear (ratio -> 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formats import ParamSystem, TensorFormat, check_block, check_shapes, evaluate, materialize_W
from .tensors import DenseTensor, SpdOperator, inner, vector_norm

# defaults shared by the solver, the diagnostics and the CLI
EPS_RANK_DEFAULT = 1e-12  # relative Gram eigenvalue cut of the Löwdin basis
RATE_WINDOW_DEFAULT = 10
GROWTH_THRESHOLD_DEFAULT = 1e6

COS_CUTOFF = 1e-14
# Tangents at or below this are at the rounding floor of a double-precision
# iterate; ratios between them measure noise, not the iteration.
TANGENT_FLOOR = 1e-14


def objective(
    A: SpdOperator, b: DenseTensor, v: DenseTensor, Av: DenseTensor | None = None
) -> float:
    """Normalized quadratic objective (<Av,v>/2 - <b,v>) / <b,b>.

    ``Av``, when the caller already has it, is A v and spares the apply.
    """
    b2 = inner(b, b)
    if b2 == 0.0:
        raise ValueError("objective undefined for zero target")
    if Av is None:
        Av = A.apply(v)
    return (0.5 * inner(Av, v) - inner(b, v)) / b2


def _residual(A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem):
    """(b - A U(p), <b, b>), what every block gradient at p reads; a zero target raises."""
    check_shapes(fmt, b, A)
    b2 = inner(b, b)
    if b2 == 0.0:
        raise ValueError("objective undefined for zero target")
    return b.values - A.apply(evaluate(fmt, p)).values, b2


def gradient_block(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem, mu: int
) -> np.ndarray:
    """Partial gradient of f(U(p)) with respect to block mu: -W^T(b - Av)/<b,b>.

    W^T is ``TensorFormat.local_adjoint``: a factored format contracts
    the residual with its unfolding factors and forms no W.
    """
    resid, b2 = _residual(A, b, fmt, p)
    check_block(fmt, p, mu)
    return -fmt.local_adjoint(p.blocks, mu, resid) / b2


def full_gradient(
    A: SpdOperator, b: DenseTensor, fmt: TensorFormat, p: ParamSystem
) -> np.ndarray:
    """All block gradients concatenated in block order, from one U(p), A U(p) and <b, b>.

    Each block is ``gradient_block``'s, through ``TensorFormat.local_adjoint``.
    """
    resid, b2 = _residual(A, b, fmt, p)
    return np.concatenate(
        [-fmt.local_adjoint(p.blocks, mu, resid) / b2 for mu in range(fmt.num_blocks)]
    )


def stable_tangent(reference, vec) -> float:
    """tan angle via the orthogonal split v = c*ref_hat + s, stable near 0.

    Operates on flat arrays; use it for factor vectors or ``.values`` of
    dense tensors.  Returns ``inf`` when |c| <= COS_CUTOFF * |v| (v
    numerically orthogonal to the reference).  The cosine formula would
    saturate near sqrt(machine eps); the split does not.
    """
    ref = np.asarray(reference, dtype=float).ravel()
    v = np.asarray(vec, dtype=float).ravel()
    nref = vector_norm(ref)
    nv = vector_norm(v)
    if nref == 0.0 or nv == 0.0:
        raise ValueError("tangent angle undefined for a zero vector")
    c, s = _split(ref / nref, v)
    if abs(c) <= COS_CUTOFF * nv:
        return float("inf")
    return s / abs(c)


def _split(ref_hat: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(c, s): v = c * ref_hat + (a part of norm s orthogonal to the unit vector ref_hat)."""
    c = float(ref_hat @ v)
    return c, vector_norm(v - c * ref_hat)


@dataclass(slots=True)
class MicroStepRecord:
    """One row of a solve trace.

    ``f``, ``decrement`` and ``grad_norm`` are in normalized-objective
    units; ``grad_norm`` is measured before the update, ``resid_orth`` is
    the unnormalized Galerkin residual norm after it.  ``W_rank`` is 0
    exactly for degenerate steps (parameters left unchanged).
    """

    sweep: int
    mu: int
    f: float
    decrement: float
    grad_norm: float
    W_rank: int
    resid_orth: float
    param_norm_max: float

    @property
    def degenerate(self) -> bool:
        return self.W_rank == 0


@dataclass
class RunTrace:
    """Complete record of a solve: per-micro-step rows plus per-sweep series."""

    records: list[MicroStepRecord]
    termination: str
    sweeps: int
    angle_mode: str
    initial_f: float
    initial_param_norm_max: float
    sweep_f: list[float]
    sweep_tangent: list[float | None]
    dist_a: list[float]
    final_params: ParamSystem
    final_v: DenseTensor
    param_snapshots: list[ParamSystem] | None = None

    def tangent_series(self) -> list[float]:
        return [t for t in self.sweep_tangent if t is not None]

    def tangent_ratios(self) -> list[float | None]:
        """Per-sweep ratio tan_k / tan_{k-1}; None where undefined."""
        out: list[float | None] = [None]
        for prev, cur in zip(self.sweep_tangent, self.sweep_tangent[1:]):
            ok = (
                prev is not None
                and cur is not None
                and np.isfinite(prev)
                and np.isfinite(cur)
                and prev > 0.0
            )
            out.append(cur / prev if ok else None)
        return out


@dataclass(frozen=True)
class RateEstimate:
    """Terminal convergence-rate estimate from a tangent series."""

    q_hat: float
    classification: str
    ratios: tuple[float, ...]
    window: int
    converged_exactly: bool = False


def effective_window(n_tangents: int, window: int = RATE_WINDOW_DEFAULT) -> int:
    """Largest usable window for a series of n_tangents entries (>= 1)."""
    return max(1, min(window, n_tangents - 1))


def rate_estimate(tangents, window: int = RATE_WINDOW_DEFAULT) -> RateEstimate:
    """Classify terminal convergence from a positive tangent series.

    The estimate q_hat is the median of the last ``window`` successive
    ratios.  Classification: "superlinear" when q_hat < 0.01 and the
    window ratios are strictly decreasing; "sublinear" when q_hat > 0.99;
    "linear" when q_hat is in [0.01, 0.99] with window spread < 0.05;
    otherwise "inconclusive".  An exact zero truncates the series and
    marks finite-step convergence, which counts as superlinear when the
    remaining prefix is too short to classify on its own.

    A positive entry at or below ``TANGENT_FLOOR`` ends the resolved part:
    the series is cut after it, and when the cut leaves fewer ratios than
    ``window``, the window shrinks to the ratios left.  A series whose
    only such entry is its last is used whole.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ts = [float(t) for t in tangents]
    if any(not np.isfinite(t) or t < 0.0 for t in ts):
        raise ValueError("tangent series must be finite and nonnegative")
    converged = False
    for i, t in enumerate(ts):
        if t == 0.0:
            ts = ts[:i]
            converged = True
            break
        if t <= TANGENT_FLOOR:
            if i + 1 < len(ts):
                ts = ts[: i + 1]  # i resolved ratios remain
                window = max(1, min(window, i))
            break
    ratios = tuple(ts[i + 1] / ts[i] for i in range(len(ts) - 1))
    if len(ratios) < window:
        if converged:
            return RateEstimate(0.0, "superlinear", ratios, window, True)
        raise ValueError(
            f"tangent series too short: need {window + 1} positive entries, got {len(ts)}"
        )
    w = ratios[-window:]
    q_hat = float(np.median(w))
    decreasing = all(b < a for a, b in zip(w, w[1:]))
    spread = max(w) - min(w)
    if q_hat < 0.01 and decreasing:
        label = "superlinear"
    elif q_hat > 0.99:
        label = "sublinear"
    elif spread < 0.05:
        label = "linear"
    else:
        label = "inconclusive"
    return RateEstimate(q_hat, label, ratios, window, converged)


@dataclass(frozen=True)
class MonitorReport:
    """Boundedness (A1) and rank-stability (A2) monitors over a trace."""

    growth_ratio: float
    unbounded_suspect: bool
    rank_sequences: dict[int, tuple[int, ...]]
    flags: tuple[str, ...]


def assumption_monitors(
    trace: RunTrace, growth_threshold: float = GROWTH_THRESHOLD_DEFAULT
) -> MonitorReport:
    """Evaluate the boundedness and rank-stability assumptions on a trace."""
    init = trace.initial_param_norm_max
    peak = max([init] + [rec.param_norm_max for rec in trace.records])
    if init > 0.0:
        growth = peak / init
    else:
        growth = float("inf") if peak > 0.0 else 1.0
    suspect = growth > growth_threshold

    ranks: dict[int, tuple[int, ...]] = {}
    for mu in sorted({rec.mu for rec in trace.records}):
        ranks[mu] = tuple(rec.W_rank for rec in trace.records if rec.mu == mu)
    flags = []
    if suspect:
        flags.append("unbounded-suspect")
    if any(len(set(seq)) > 1 for seq in ranks.values()):
        flags.append("rank-drift")
    return MonitorReport(
        growth_ratio=growth,
        unbounded_suspect=suspect,
        rank_sequences=ranks,
        flags=tuple(flags),
    )


def materialize_M(
    fmt: TensorFormat, b: DenseTensor, p: ParamSystem, mu: int, nu: int
) -> np.ndarray:
    """Coupling matrix between blocks mu and nu against the target b.

    Entry (i, j) is <U(p with block mu := e_i, block nu := e_j), b>; the
    matrix is multilinear in the remaining blocks and satisfies
    M(mu, nu) = M(nu, mu)^T.  Built by probing, one column per basis
    vector of block nu.  The replay applies M without forming it
    (``engine.coupling``); this probe is its dense reference.
    """
    check_block(fmt, p, nu)  # materialize_W checks mu
    check_shapes(fmt, b)
    if mu == nu:
        raise ValueError("coupling needs two distinct blocks")
    dim_nu = fmt.block_dim(nu)
    cols = []
    probe = np.zeros(dim_nu)
    for j in range(dim_nu):
        probe[j] = 1.0
        W_mu = materialize_W(fmt, p.replace(nu, probe), mu)
        cols.append(W_mu.T @ b.values)
        probe[j] = 0.0
    return np.column_stack(cols)


@dataclass(frozen=True)
class RecursionContext:
    """Parameters entering micro-step (sweep, mu-1), for replaying a step pair."""

    sweep: int
    mu: int
    params: ParamSystem

    def __post_init__(self):
        if self.sweep < 2:
            raise ValueError("recursion context needs sweep >= 2")
        if self.mu < 1:
            raise ValueError("recursion context needs a predecessor block (mu >= 1)")


@dataclass(frozen=True)
class TransferOperator:
    """A matrix-free N x N transfer map: ``transfer @ v`` and ``shape``.

    ``matvec`` applies the map to a flat tensor; ``transfer @ v`` takes
    exactly shape (N,) and rejects any other.  With ``shape``,
    ``matvec`` and ``dtype`` the map is what
    ``scipy.sparse.linalg.aslinearoperator`` takes.
    """

    shape: tuple[int, int]
    matvec: Callable[[np.ndarray], np.ndarray]
    dtype = np.dtype(float)

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != self.shape[1:]:
            raise ValueError(f"transfer map takes shape ({self.shape[1]},), got shape {v.shape}")
        return self.matvec(v)


@dataclass(frozen=True)
class RecursionReport:
    """Replay of one micro-step pair against its transfer map."""

    defect: float
    transfer: TransferOperator
    v_mid: DenseTensor
    v_next: DenseTensor


def recursion_check(
    A: SpdOperator,
    b: DenseTensor,
    fmt: TensorFormat,
    ctx: RecursionContext,
    eps_rank: float = EPS_RANK_DEFAULT,
) -> RecursionReport:
    """Verify one micro-step pair against its one-step transfer map.

    Starting from the parameters entering micro-step (sweep, mu-1), the
    updates of blocks mu-1 and mu are replayed by two ``engine.local_solve``
    calls, and the second iterate is compared with N v_mid where

        N = W_mu G^+ M H^+ W_{mu-1}^T,

    G^+ the energy pseudo-inverse at block mu and H^+ the Gram
    pseudo-inverse at block mu-1, maps of the same two solves
    (``engine.LocalSolve``), and M the coupling of blocks (mu, mu-1)
    against b (``engine.coupling``).  N is applied
    matrix-free, on whichever route each solve takes: the replay forms no
    N x N array and probes no coupling.  The relative defect should sit
    at rounding level.
    """
    from . import engine  # local import: engine depends on this module

    mu = ctx.mu
    prev = engine.local_solve(A, b, fmt, ctx.params, mu - 1, eps_rank)
    if prev.rank == 0:
        raise ValueError("degenerate micro-step in recursion context")
    p1 = ctx.params.replace(mu - 1, prev.block)
    cur = engine.local_solve(A, b, fmt, p1, mu, eps_rank)
    if cur.rank == 0:
        raise ValueError("degenerate micro-step in recursion context")
    v_mid = DenseTensor(b.shape, prev.iterate)
    v_next = DenseTensor(b.shape, cur.iterate)

    def matvec(v):
        x = prev.gram_pinv(prev.adjoint(v))
        return cur.forward(cur.energy_pinv(engine.coupling(fmt, b, p1, mu, mu - 1, x)))

    n = fmt.shape.size
    transfer = TransferOperator((n, n), matvec)
    denom = v_next.norm()
    if denom == 0.0:
        raise ValueError("recursion check needs a nonzero post-step iterate")
    defect = float(np.linalg.norm(v_next.values - transfer @ v_mid.values)) / denom
    return RecursionReport(defect, transfer, v_mid, v_next)


def recursion_contexts(trace: RunTrace):
    """Yield every replayable step-pair context from a keep-params trace."""
    if trace.param_snapshots is None:
        raise ValueError("trace was recorded without parameter snapshots")
    recs = trace.records
    for i in range(len(recs) - 1):
        a, nxt = recs[i], recs[i + 1]
        if a.sweep >= 2 and nxt.sweep == a.sweep and nxt.mu == a.mu + 1:
            yield RecursionContext(a.sweep, nxt.mu, trace.param_snapshots[i])


@dataclass(frozen=True)
class TangentRecursion:
    """Angle propagation of one transfer-map application."""

    tan_in: float
    tan_out: float
    tan_predicted: float
    q_s: float
    q_c: float


def tangent_recursion(
    transfer: TransferOperator | np.ndarray, reference, v_mid
) -> TangentRecursion:
    """Propagate the tangent through a transfer map and factor the rate.

    ``transfer`` is anything applied as ``transfer @ v``: the matrix-free
    ``RecursionReport.transfer``, or a dense matrix.  With v split into
    its coordinate c along the reference and the norm s of its orthogonal
    complement part, the image tangent factors as
    (q_s / q_c) * tan_in where q_s and q_c are the complement and axis
    amplification factors.  A zero or non-finite reference, which has no
    angle to split along, raises ValueError.
    """
    ref = np.asarray(reference, dtype=float).ravel()
    v = np.asarray(v_mid, dtype=float).ravel()
    if not np.isfinite(ref).all():
        raise ValueError("tangent recursion needs a finite reference")
    nref = vector_norm(ref)
    if nref == 0.0:
        raise ValueError("tangent angle undefined for a zero vector")
    ref_hat = ref / nref
    c, s = _split(ref_hat, v)
    if c == 0.0 or s == 0.0:
        raise ValueError("tangent recursion needs nonzero axis and complement parts")
    tan_in = s / abs(c)
    c_out, s_out = _split(ref_hat, transfer @ v)
    if c_out == 0.0:
        raise ValueError("transfer image orthogonal to the reference")
    tan_out = s_out / abs(c_out)
    q_s = s_out / s
    q_c = abs(c_out) / abs(c)
    return TangentRecursion(
        tan_in=tan_in,
        tan_out=tan_out,
        tan_predicted=(q_s / q_c) * tan_in,
        q_s=q_s,
        q_c=q_c,
    )
