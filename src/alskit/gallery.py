"""Ready-made problem instances with known convergence behavior.

Each constructor returns a ProblemInstance bundling the operator, the
target, the format, a starting point, and (where one exists) the known
limit for angle tracking.  Seeded constructors are deterministic.

``SPECS`` is the gallery: one entry per label, in listing order, holding
the constructor, the names of the arguments it takes, a one-line summary
and the ``describe`` text.  The defaults are the constructors' own.
``get_instance`` builds a label from it, and the CLI takes its labels,
argument checks, listing and help from it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .formats import CpFormat, MultilinearFormat, ParamSystem, TensorFormat, check_reference_factor
from .tensors import DenseTensor, IdentityOperator, Shape, SpdOperator, rank_one_sum

@dataclass
class ProblemInstance:
    """A solvable problem plus the metadata the diagnostics need."""

    label: str
    A: SpdOperator
    b: DenseTensor
    fmt: TensorFormat
    init: ParamSystem
    reference: DenseTensor | None = None
    reference_factor: np.ndarray | None = None
    flags: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.A.shape.dims != self.b.shape.dims:
            raise ValueError("incompatible shapes: operator vs target")
        if self.fmt.shape.dims != self.b.shape.dims:
            raise ValueError("incompatible shapes: format vs target")
        if self.b.norm() == 0.0:
            raise ValueError("target must be nonzero")
        self.fmt.check_params(self.init)
        if self.reference is not None and self.reference.shape.dims != self.b.shape.dims:
            raise ValueError("incompatible shapes: reference vs target")
        if self.reference_factor is not None:
            self.reference_factor = check_reference_factor(self.fmt, self.reference_factor)


def mohlenkamp_example(tau: float = 0.4) -> ProblemInstance:
    """Weighted two-term orthogonal target 2 e1^(x3) + e2^(x3), init (tau, 1)^(x3).

    For tau < 1/2 the iteration converges superlinearly to the e2 branch
    (the start dominates there); for tau > 1/2 to the e1 branch.  At
    tau = 1/2 the start sits on the basin boundary and no reference is
    designated.
    """
    tau = float(tau)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    shape = Shape((2, 2, 2))
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    b = rank_one_sum(shape, [(2.0, [e1, e1, e1]), (1.0, [e2, e2, e2])])
    start = np.array([tau, 1.0])
    init = ParamSystem([start, start, start])
    if tau < 0.5:
        ref_vec, ref_weight = e2, 1.0
    elif tau > 0.5:
        ref_vec, ref_weight = e1, 2.0
    else:
        ref_vec = None
    reference = None
    reference_factor = None
    if ref_vec is not None:
        reference = rank_one_sum(shape, [(ref_weight, [ref_vec, ref_vec, ref_vec])])
        reference_factor = ref_vec
    return ProblemInstance(
        label="mohlenkamp",
        A=IdentityOperator(shape),
        b=b,
        fmt=CpFormat(shape, 1),
        init=init,
        reference=reference,
        reference_factor=reference_factor,
    )


def blambda_example(lam: float = 0.46, n: int = 8, seed: int = 7) -> ProblemInstance:
    """Three-term coupling family with tunable rate.

    Target p^(x3) + lam * (p,q,q)-symmetrized over orthonormal p, q.  For
    lam in [0, 1/2) the rank-one iteration is Q-linear with a closed-form
    rate (see oracle.q_lambda_formula); lam = 1/2 is the sublinear
    boundary.  Outside [0, 1/2] the instance is still built, but the
    best-approximation reference is no longer known, so none is attached
    and the instance is flagged.
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if n < 2:
        raise ValueError("need n >= 2 for two orthonormal directions")
    shape = Shape((n, n, n))
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    p, q = Q[:, 0].copy(), Q[:, 1].copy()
    b = rank_one_sum(
        shape,
        [(1.0, [p, p, p]), (lam, [p, q, q]), (lam, [q, p, q]), (lam, [q, q, p])],
    )
    start = p + 0.3 * q
    start /= np.linalg.norm(start)
    init = ParamSystem([start, start, start])
    in_range = lam <= 0.5
    return ProblemInstance(
        label="blambda",
        A=IdentityOperator(shape),
        b=b,
        fmt=CpFormat(shape, 1),
        init=init,
        reference=rank_one_sum(shape, [(1.0, [p, p, p])]) if in_range else None,
        reference_factor=p if in_range else None,
        flags=() if in_range else ("reference-outside-range",),
        extra={"p": p, "q": q},
    )


def totally_orthogonal(r: int = 2, dims=(4, 4, 4), seed: int = 0) -> ProblemInstance:
    """Sum of r rank-one terms with per-mode orthonormal factors.

    The weights are (r, r-1, ..., 1): positive, descending, distinct.  The
    factors are seeded random orthonormal columns.  The start is biased
    toward the dominant term, whose factor is the angle reference.
    """
    shape = Shape(tuple(int(m) for m in dims))
    r = int(r)
    if r < 1:
        raise ValueError("need at least one term")
    if r > min(shape.dims):
        raise ValueError(
            f"r too large for dims: {r} terms need every mode size >= {r}"
        )
    weights = np.arange(r, 0, -1, dtype=float)
    rng = np.random.default_rng(seed)
    factors = []
    for m in shape.dims:
        Q, _ = np.linalg.qr(rng.standard_normal((m, r)))
        factors.append(Q)
    terms = [
        (float(weights[j]), [factors[mu][:, j] for mu in range(shape.ndim)])
        for j in range(r)
    ]
    b = rank_one_sum(shape, terms)
    init_vecs = []
    for mu in range(shape.ndim):
        vec = factors[mu][:, 0].copy()
        if r > 1:
            vec = vec + 0.3 * factors[mu][:, 1:].sum(axis=1)
        init_vecs.append(vec / np.linalg.norm(vec))
    reference = rank_one_sum(
        shape, [(float(weights[0]), [factors[mu][:, 0] for mu in range(shape.ndim)])]
    )
    return ProblemInstance(
        label="totally_orthogonal",
        A=IdentityOperator(shape),
        b=b,
        fmt=CpFormat(shape, 1),
        init=ParamSystem(init_vecs),
        reference=reference,
        reference_factor=factors[0][:, 0].copy(),
        extra={"weights": weights, "factors": factors},
    )


def desilva_lim(n: int = 2) -> ProblemInstance:
    """Border-rank pathology: no best rank-2 approximation exists.

    Target x(x)x(x)y + x(x)y(x)x + y(x)x(x)x with x = e1, y = e2.  The
    objective keeps decreasing while the representation blows up; the
    start is the first element of the classic diverging sequence,
    (x+y)^(x3) - x^(x3), split over two rank-one columns.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    shape = Shape((n, n, n))
    x = np.zeros(n)
    x[0] = 1.0
    y = np.zeros(n)
    y[1] = 1.0
    b = rank_one_sum(shape, [(1.0, [x, x, y]), (1.0, [x, y, x]), (1.0, [y, x, x])])
    fmt = CpFormat(shape, 2)
    blocks = [
        np.column_stack([x + y, x]).ravel(order="F"),
        np.column_stack([x + y, x]).ravel(order="F"),
        np.column_stack([x + y, -x]).ravel(order="F"),
    ]
    return ProblemInstance(
        label="desilva_lim",
        A=IdentityOperator(shape),
        b=b,
        fmt=fmt,
        init=ParamSystem(blocks),
    )


def counterexample_bilinear():
    """Bilinear format where stationarity depends on the representative.

    U(x, y) = (x1 y1 + x2 y1, x1 y1 + x2 y1, x1 y2, x2 y2) on R^2 x R^2,
    target b = (1, 1, 0, 1), identity operator.  The parameter systems
    (e1, e1) and (e2, e1) represent the same tensor, yet only the first
    is a stationary point of the parameterized objective.

    Returns (instance, stationary_params, nonstationary_params); the
    instance's init is the non-stationary representative.
    """
    shape = Shape((2, 2))

    def bilinear(blocks):
        x, y = blocks
        top = x[0] * y[0] + x[1] * y[0]
        return np.array([top, top, x[0] * y[1], x[1] * y[1]])

    fmt = MultilinearFormat(shape, (2, 2), bilinear, name="paired-bilinear")
    b = DenseTensor(shape, [1.0, 1.0, 0.0, 1.0])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    stationary = ParamSystem([e1, e1])
    nonstationary = ParamSystem([e2, e1])
    instance = ProblemInstance(
        label="counterexample",
        A=IdentityOperator(shape),
        b=b,
        fmt=fmt,
        init=nonstationary,
    )
    return instance, stationary, nonstationary


def tucker_target(core: DenseTensor, factors) -> ProblemInstance:
    """Rank-one approximation of a target given in orthonormal-factor form.

    b = sum_i core[i] * (x)_mu B_mu[:, i_mu] with B_mu^T B_mu = I within
    1e-10.  The start is the normalized column sum of each factor, which
    overlaps every term.
    """
    factors = [np.asarray(B, dtype=float) for B in factors]
    t_dims = core.shape.dims
    if len(factors) != len(t_dims):
        raise ValueError("need one factor matrix per core mode")
    for mu, B in enumerate(factors):
        if B.ndim != 2 or B.shape[1] != t_dims[mu]:
            raise ValueError(
                f"factor {mu} must have {t_dims[mu]} columns, got {B.shape}"
            )
        if np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) > 1e-10:
            raise ValueError("non-orthonormal factors")
    shape = Shape(tuple(B.shape[0] for B in factors))
    t = core.as_array()
    for mu, B in enumerate(factors):
        t = np.moveaxis(np.tensordot(B, t, axes=(1, mu)), 0, mu)
    b = DenseTensor(shape, t.ravel())
    init_vecs = []
    for B in factors:
        vec = B.sum(axis=1)
        init_vecs.append(vec / np.linalg.norm(vec))
    return ProblemInstance(
        label="tucker",
        A=IdentityOperator(shape),
        b=b,
        fmt=CpFormat(shape, 1),
        init=ParamSystem(init_vecs),
        extra={"core": core, "factors": factors},
    )


def tucker_coupling_closed_form(instance: ProblemInstance, p: ParamSystem) -> np.ndarray:
    """Predicted coupling matrix between the first and last blocks.

    Evaluates B_1 Gamma B_d^T scaled by the product of the middle block
    norms, where Gamma contracts the core with the normalized middle
    blocks; matches the probed coupling matrix at any rank-one iterate.
    """
    core = instance.extra["core"]
    factors = instance.extra["factors"]
    d = len(factors)
    if d < 2:
        raise ValueError("closed form needs at least two modes")
    t = core.as_array()
    scale = 1.0
    # contract middle modes with normalized block vectors
    for mu in range(1, d - 1):
        vec = p[mu]
        nv = np.linalg.norm(vec)
        if nv == 0.0:
            raise ValueError("closed form undefined at a zero middle block")
        coeff = factors[mu].T @ (vec / nv)
        t = np.tensordot(t, coeff, axes=(1, 0))
        scale *= nv
    return scale * (factors[0] @ t @ factors[d - 1].T)


def default_tucker_args(dims, t_dims, seed: int):
    """Seeded super-diagonal core plus random orthonormal factors."""
    dims = tuple(int(m) for m in dims)
    t_dims = tuple(int(t) for t in t_dims)
    if len(t_dims) != len(dims):
        raise ValueError("core order must match mode count")
    if any(t > m for t, m in zip(t_dims, dims)):
        raise ValueError("core mode sizes cannot exceed tensor mode sizes")
    r = min(t_dims)
    core_arr = np.zeros(t_dims)
    for j in range(r):
        core_arr[(j,) * len(t_dims)] = float(r - j)
    rng = np.random.default_rng(seed)
    factors = []
    for m, t in zip(dims, t_dims):
        Q, _ = np.linalg.qr(rng.standard_normal((m, t)))
        factors.append(Q)
    return DenseTensor.from_array(core_arr), factors


def tucker_example(dims=(4, 4, 4), t_dims=(2, 2, 2), seed: int = 0) -> ProblemInstance:
    """The ``tucker`` label: :func:`tucker_target` of :func:`default_tucker_args`."""
    return tucker_target(*default_tucker_args(dims, t_dims, seed))


@dataclass(frozen=True)
class GallerySpec:
    """One gallery label: its constructor, arguments, summary and description."""

    build: Callable[..., ProblemInstance]
    args: tuple[str, ...]  # argument names, in documented order
    summary: str
    details: str


SPECS = {
    "mohlenkamp": GallerySpec(
        mohlenkamp_example,
        ("tau",),
        "weighted two-term orthogonal target; superlinear rank-one iteration",
        """\
mohlenkamp: 2 * e1^(x3) + e2^(x3) on (2,2,2), rank-one format, identity operator.
  --tau X        start (tau, 1) in every mode (default 0.4, tau >= 0).
                 tau < 1/2 converges to the e2 branch, tau > 1/2 to e1;
                 tau = 1/2 sits on the basin boundary (no reference).
  Expected: superlinear; factor tangent hits 1e-12 within a few sweeps.""",
    ),
    "blambda": GallerySpec(
        blambda_example,
        ("lam", "n", "seed"),
        "three-term coupling family with closed-form Q-linear rate",
        """\
blambda: p^(x3) + lambda * (p(x)q(x)q + q(x)p(x)q + q(x)q(x)p) over seeded
orthonormal p, q; rank-one format, identity operator.
  --lambda X     coupling strength; meaningful range [0, 1/2] (default 0.46).
                 lambda < 1/2: Q-linear with rate q_lambda_formula(lambda);
                 lambda = 1/2: sublinear boundary (rate 1). Outside [0, 1/2]
                 the instance is built without a reference and flagged.
  --n N          mode size (default 8).
  --seed S       direction seed (default 7).""",
    ),
    "totally_orthogonal": GallerySpec(
        totally_orthogonal,
        ("r", "dims", "seed"),
        "r-term per-mode-orthonormal target; superlinear",
        """\
totally_orthogonal: sum of r rank-one terms with per-mode orthonormal factors
and weights (r, ..., 1); rank-one format, identity operator.
  --r R          number of terms (default 2; needs every mode size >= R).
  --dims A,B,..  mode sizes (default 4,4,4).
  --seed S       factor seed (default 0).
  Expected: superlinear convergence toward the dominant term.""",
    ),
    "desilva_lim": GallerySpec(
        desilva_lim,
        ("n",),
        "border-rank pathology: descent with unbounded parameters",
        """\
desilva_lim: x(x)x(x)y + x(x)y(x)x + y(x)x(x)x with x = e1, y = e2; rank-two
format, identity operator. No best rank-2 approximation exists: the objective
keeps falling while parameter norms grow. Run with the boundedness monitor.
  --n N          mode size (default 2).
  The peak block norm grows only like sweeps^(1/12): 1.82x its start at 1e4
  sweeps, 2.67x at 1e6. The default --growth-threshold of 1e6 is out of reach
  of any feasible run; pass a small one (e.g. 1.5, crossed near sweep 900) to
  see exit code 3.""",
    ),
    "counterexample": GallerySpec(
        lambda: counterexample_bilinear()[0],
        (),
        "bilinear format where stationarity depends on the representative",
        """\
counterexample: custom bilinear format U(x,y) = (x1 y1 + x2 y1, x1 y1 + x2 y1,
x1 y2, x2 y2) on R^2 x R^2 with target (1,1,0,1). The parameter systems
(e1,e1) and (e2,e1) represent the same tensor but only the first is
stationary; runs start at the non-stationary one. Takes no arguments.""",
    ),
    "tucker": GallerySpec(
        tucker_example,
        ("dims", "t_dims", "seed"),
        "orthonormal-factor target for the transfer-matrix closed form",
        """\
tucker: target assembled from a super-diagonal core and seeded orthonormal
factor matrices; rank-one format, identity operator.
  --dims A,B,..  tensor mode sizes (default 4,4,4).
  --t-dims A,..  core mode sizes (default 2,2,2).
  --seed S       factor seed (default 0).
  Used by the transfer-matrix (coupling closed form) diagnostics.""",
    ),
}

LABELS = tuple(SPECS)


def get_instance(label: str, **kwargs) -> ProblemInstance:
    """Construct a gallery instance by label; omitted arguments take their defaults."""
    if label not in SPECS:
        raise ValueError(f"unknown label {label!r}")
    spec = SPECS[label]
    unknown = set(kwargs) - set(spec.args)
    if unknown:
        takes = ", ".join(spec.args) or "no arguments"
        raise ValueError(
            f"unknown arguments: {label} does not take {sorted(unknown)} (it takes {takes})"
        )
    return spec.build(**kwargs)
