"""The solver core: Löwdin bases, micro-steps, sweeps, stop rules, run traces."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from alskit import engine
from alskit.diagnostics import objective, recursion_check, recursion_contexts
from alskit.engine import StopRule, lowdin_basis, micro_step, run
from alskit.formats import (
    CpFormat,
    MultilinearFormat,
    ParamSystem,
    TensorFormat,
    TtFormat,
    evaluate,
    kron,
    materialize_W,
    probe_map,
    unfold,
)
from alskit.gallery import mohlenkamp_example
from alskit.oracle import brute_least_squares
from alskit.tensors import (
    SPD_VERIFY_CAP,
    DenseOperator,
    DenseTensor,
    IdentityOperator,
    ModeWiseOperator,
    Shape,
    a_norm,
    inner,
)
from alskit.verification import ROUTE_CASES, sized_problem

TOL = 1e-12


def spd(rng, m):
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * rng.uniform(0.5, 2.0, size=m)) @ Q.T


# ---------------------------------------------------------------------------
# lowdin_basis


def test_lowdin_single_scaled_column():
    # W = 2 e1: Gram eigenvalue 4, back-transform 1/2, basis e1
    basis = lowdin_basis(np.array([[2.0], [0.0]]))
    assert basis.rank == 1
    assert np.array_equal(basis.delta, [4.0])
    assert np.array_equal(basis.transform, [[0.5]])
    assert np.array_equal(basis.V.ravel(), [1.0, 0.0])
    assert basis.orth_defect == 0.0


def test_lowdin_orthonormal_input_is_fixed_point():
    rng = np.random.default_rng(31)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    basis = lowdin_basis(Q)
    assert basis.rank == 3
    # V spans the same space with orthonormal columns
    assert np.max(np.abs(basis.V.T @ basis.V - np.eye(3))) < 1e-12
    assert np.max(np.abs(basis.V @ (basis.V.T @ Q) - Q)) < 1e-12


def test_lowdin_drops_duplicate_column():
    rng = np.random.default_rng(32)
    W = rng.standard_normal((5, 3))
    W[:, 2] = W[:, 0]
    basis = lowdin_basis(W)
    assert basis.rank == 2
    # transform @ transform.T equals the Gram pseudo-inverse
    want = np.linalg.pinv(W.T @ W, rcond=1e-10)
    assert np.max(np.abs(basis.transform @ basis.transform.T - want)) < 1e-8


def test_lowdin_zero_matrix_is_degenerate():
    basis = lowdin_basis(np.zeros((4, 2)))
    assert basis.rank == 0
    assert basis.V.shape == (4, 0)
    assert basis.transform.shape == (2, 0)


def test_lowdin_rejects_negative_threshold():
    with pytest.raises(ValueError, match="nonnegative"):
        lowdin_basis(np.eye(2), eps_rank=-1.0)


@pytest.mark.parametrize("eps_rank", [1.0, 2.0, float("nan"), float("inf")])
def test_lowdin_rejects_eps_rank_outside_unit_interval(eps_rank):
    # at eps_rank >= 1 no eigenvalue survives the cut of a nonzero W
    with pytest.raises(ValueError, match="below 1"):
        lowdin_basis(np.eye(2), eps_rank=eps_rank)
    assert lowdin_basis(np.diag([1.0, 0.5]), eps_rank=np.nextafter(1.0, 0.0)).rank == 1


def test_lowdin_orth_defect_is_the_eager_formula_read_lazily():
    rng = np.random.default_rng(37)
    W = rng.standard_normal((7, 4))
    W[:, 3] = W[:, 1]
    basis = lowdin_basis(W)
    assert "orth_defect" not in vars(basis)  # not computed by the step
    want = float(np.max(np.abs(basis.V.T @ basis.V - np.eye(basis.rank))))
    assert basis.orth_defect == want
    assert vars(basis)["orth_defect"] == want  # cached after the first read
    assert lowdin_basis(np.zeros((3, 2))).orth_defect == 0.0


def _eigh_lowdin(W, eps_rank):
    """The Löwdin basis through np.linalg.eigh and a boolean mask, the reference."""
    n = W.shape[1]
    H = W.T @ W
    H = 0.5 * (H + H.T)
    vals, vecs = np.linalg.eigh(H)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if n == 0 or vals[0] <= 0.0:
        return np.zeros((W.shape[0], 0)), np.zeros((n, 0)), np.zeros(0), 0
    keep = vals > eps_rank * vals[0]
    vals = np.ascontiguousarray(vals[keep])
    vecs = vecs[:, keep]
    transform = vecs / np.sqrt(vals)
    return W @ transform, transform, vals, int(vals.size)


@settings(deadline=None, max_examples=60)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(0, 9),
    kind=st.sampled_from(["random", "zero", "duplicated", "graded"]),
    eps_rank=st.sampled_from([0.0, 1e-12, 1e-3]),
    seed=st.integers(0, 2**16),
)
def test_lowdin_basis_is_bitwise_the_eigh_reference(rows, cols, kind, eps_rank, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((rows, cols))
    if kind == "zero":
        W[:] = 0.0
    elif kind == "duplicated" and cols > 1:
        W[:, -1] = W[:, 0]
    elif kind == "graded":
        W *= np.logspace(0, -9, cols)
    for cut in (W, W[:, :1]):  # and its single column
        basis = lowdin_basis(cut, eps_rank)
        V, transform, delta, rank = _eigh_lowdin(cut, eps_rank)
        assert basis.rank == rank
        assert basis.V.shape == V.shape and np.array_equal(basis.V, V)
        assert basis.transform.shape == transform.shape
        assert np.array_equal(basis.transform, transform)
        assert np.array_equal(basis.delta, delta)
        # the same layout, so the products a step takes with it agree bit for bit
        y = rng.standard_normal(rank)
        assert np.array_equal(basis.transform @ y, transform @ y)
        assert np.array_equal(basis.V @ y, V @ y)


def _overflowing_gram_problem():
    """Finite CP parameters below the route threshold whose W overflows.

    U(p) multiplies in another order and stays finite; the Gram matrix
    of W at block 0 holds inf and NaN entries.
    """
    A, b, fmt, p = sized_problem(44, "cp", (4, 4, 4), 3, "identity")
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    blocks[0][:4] *= 1e-300  # column 0 of the mode-0 factor
    blocks[1][0] = blocks[2][0] = 1e200
    return A, b, fmt, ParamSystem(blocks)


def test_non_finite_gram_fails_before_the_eigensolver(monkeypatch):
    A, b, fmt, p = _overflowing_gram_problem()
    real = engine.lapack.dsyevd

    def finite_only(a, *args, **kwargs):
        assert np.isfinite(a).all(), "non-finite matrix handed to the eigensolver"
        return real(a, *args, **kwargs)

    monkeypatch.setattr(engine.lapack, "dsyevd", finite_only)
    with np.errstate(all="ignore"):
        assert np.isfinite(evaluate(fmt, p).values).all()
        W = materialize_W(fmt, p, 0)
        assert not np.isfinite(W).all()
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            lowdin_basis(W)
        # the outcome np.linalg.eigh gave on this Gram matrix
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            run(A, b, fmt, p, StopRule(max_sweeps=1))


# ---------------------------------------------------------------------------
# micro_step


def test_micro_step_single_block_reaches_target():
    # a one-block format spans the whole space, so one step lands on b
    shape = Shape((2,))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([[1.0, 1.0]])
    b = DenseTensor(shape, [3.0, -1.0])
    p_new, v_new, _, rec = micro_step(IdentityOperator(shape), b, fmt, p, 0)
    assert np.allclose(p_new[0], [3.0, -1.0], atol=TOL)
    assert np.allclose(v_new.values, b.values, atol=TOL)
    assert rec.f == pytest.approx(-0.5, abs=TOL)
    assert rec.decrement == pytest.approx(-0.4, abs=TOL)
    assert rec.W_rank == 2
    assert rec.resid_orth < 1e-12
    assert not rec.degenerate


def test_micro_step_first_block_closed_form():
    # rank-one symmetric start (tau,1)^(x3): the block-0 update is
    # (2 tau^2, 1) / (tau^2 + 1)^2, derived by hand from the normal equations
    tau = 0.4
    instance = mohlenkamp_example(tau)
    p_new, _, _, rec = micro_step(instance.A, instance.b, instance.fmt, instance.init, 0)
    want = np.array([2.0 * tau**2, 1.0]) / (tau**2 + 1.0) ** 2
    assert np.allclose(p_new[0], want, atol=1e-14)
    assert rec.sweep == 0 and rec.mu == 0
    assert rec.decrement < 0.0


def test_micro_step_agrees_with_brute_oracle():
    rng = np.random.default_rng(33)
    shape = Shape((2, 3, 2))
    fmt = CpFormat(shape, 2)
    A = ModeWiseOperator([spd(rng, m) for m in shape.dims])
    b = DenseTensor(shape, rng.standard_normal(shape.size))
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    for mu in range(3):
        W = materialize_W(fmt, p, mu)
        p_new, _, _, _ = micro_step(A, b, fmt, p, mu)
        want = brute_least_squares(A, b, W)
        assert np.linalg.norm(p_new[mu] - want) < 1e-10


def test_micro_step_minimum_norm_on_rank_deficient_block():
    rng = np.random.default_rng(34)
    shape = Shape((3, 2))
    fmt = CpFormat(shape, 2)
    mat0 = rng.standard_normal((3, 2))
    mat1 = rng.standard_normal((2, 2))
    mat1[:, 1] = mat1[:, 0]  # duplicate column makes W_0 rank deficient
    p = ParamSystem([mat0.ravel(order="F"), mat1.ravel(order="F")])
    b = DenseTensor(shape, rng.standard_normal(6))
    W = materialize_W(fmt, p, 0)
    p_new, _, _, rec = micro_step(IdentityOperator(shape), b, fmt, p, 0)
    assert rec.W_rank < fmt.block_dim(0)
    _, svals, vt = np.linalg.svd(W)
    null = vt[(svals > 1e-10 * svals[0]).sum():]
    assert np.max(np.abs(null @ p_new[0])) < 1e-10


def test_micro_step_degenerate_leaves_params_unchanged():
    # zero companion blocks zero out W entirely
    shape = Shape((2, 2, 2))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    b = DenseTensor(shape, np.ones(8))
    A = IdentityOperator(shape)
    p_new, v_new, _, rec = micro_step(A, b, fmt, p, 0)
    assert rec.degenerate
    assert rec.W_rank == 0
    assert rec.decrement == 0.0
    for mu in range(3):
        assert np.array_equal(p_new[mu], p[mu])
    assert v_new.norm() == 0.0
    # the record carries the pre-step values
    v = evaluate(fmt, p)
    W_resid = materialize_W(fmt, p, 0).T @ (b.values - A.apply(v).values)
    assert rec.f == objective(A, b, v)
    assert rec.grad_norm == float(np.linalg.norm(W_resid)) / inner(b, b)
    assert rec.resid_orth == float(np.linalg.norm(W_resid))
    assert rec.param_norm_max == max(float(np.linalg.norm(p[mu])) for mu in range(3))


def test_micro_step_rejects_zero_target():
    shape = Shape((2,))
    fmt = CpFormat(shape, 1)
    with pytest.raises(ValueError, match="zero target"):
        micro_step(
            IdentityOperator(shape),
            DenseTensor.zeros(shape),
            fmt,
            ParamSystem([[1.0, 0.0]]),
            0,
        )


def test_micro_step_grad_norm_is_pre_update():
    # at a non-stationary point the pre-update residual is nonzero even
    # though the post-update one vanishes
    rng = np.random.default_rng(35)
    shape = Shape((2, 2))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([rng.standard_normal(2), rng.standard_normal(2)])
    b = DenseTensor(shape, rng.standard_normal(4))
    W = materialize_W(fmt, p, 0)
    v = evaluate(fmt, p)
    want = np.linalg.norm(W.T @ (b.values - v.values)) / inner(b, b)
    _, _, _, rec = micro_step(IdentityOperator(shape), b, fmt, p, 0)
    assert rec.grad_norm == pytest.approx(want, rel=1e-12)
    assert rec.grad_norm > 1e-3
    assert rec.resid_orth < 1e-12


def _textbook_step(A, b, fmt, p, mu, eps_rank=1e-12):
    """The micro-step written plainly: eager V^T V and scipy's Cholesky.

    The new image is (A V) y, from the A V that G is made of.
    """
    b2 = inner(b, b)
    v_old = evaluate(fmt, p)
    f_old = objective(A, b, v_old)
    W = materialize_W(fmt, p, mu)
    resid_old = b.values - A.apply(v_old).values
    grad_norm = float(np.linalg.norm(W.T @ resid_old)) / b2
    H = W.T @ W
    H = 0.5 * (H + H.T)
    vals, vecs = np.linalg.eigh(H)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > eps_rank * vals[0]
    vals = np.ascontiguousarray(vals[keep])
    transform = vecs[:, keep] / np.sqrt(vals)
    V = W @ transform
    assert np.max(np.abs(V.T @ V - np.eye(vals.size))) < 1e-10
    AV = A.apply_matrix(V)
    G = V.T @ AV
    G = 0.5 * (G + G.T)
    y = cho_solve(cho_factor(G, lower=True), V.T @ b.values)
    block = transform @ y
    v_new = DenseTensor(b.shape, V @ y)
    Av_new = DenseTensor(b.shape, AV @ y)
    f_new = (0.5 * inner(Av_new, v_new) - inner(b, v_new)) / b2
    resid_orth = float(np.linalg.norm(W.T @ (b.values - Av_new.values)))
    pmax = max(float(np.linalg.norm(q)) for q in (*p.blocks[:mu], block, *p.blocks[mu + 1:]))
    record = (f_new, f_new - f_old, grad_norm, int(vals.size), resid_orth, pmax)
    return block, v_new.values, record


LEAN_KINDS = ["cp", "tt", "custom", "cp-deficient"]
LEAN_OPERATORS = ["identity", "dense", "modewise"]


def _lean_step_case(kind: str, operator: str):
    rng = np.random.default_rng([38, LEAN_KINDS.index(kind), LEAN_OPERATORS.index(operator)])
    if kind == "custom":
        # the y block acts through a 4 x 5 matrix, so its W has rank 4 < 5
        shape = Shape((3, 4))
        C = rng.standard_normal((4, 5))
        fmt = MultilinearFormat(shape, (3, 5), lambda bl: np.outer(bl[0], C @ bl[1]).ravel())
    elif kind == "tt":
        shape = Shape((3, 2, 4))
        fmt = TtFormat(shape, (2, 3))
    else:
        shape = Shape((3, 4, 2))
        fmt = CpFormat(shape, 2)
    blocks = [rng.standard_normal(fmt.block_dim(mu)) for mu in range(fmt.num_blocks)]
    if kind == "cp-deficient":
        # equal columns in the frozen factors: every W repeats a column block
        for mu, m in enumerate(shape.dims):
            mat = blocks[mu].reshape((m, 2), order="F")
            mat[:, 1] = mat[:, 0]
    p = ParamSystem(blocks)
    b = DenseTensor(shape, rng.standard_normal(shape.size))
    if operator == "identity":
        A = IdentityOperator(shape)
    elif operator == "dense":
        A = DenseOperator(shape, np.kron(spd(rng, 3), spd(rng, shape.size // 3)))
    else:
        A = ModeWiseOperator([spd(rng, m) for m in shape.dims])
    return A, b, fmt, p


@pytest.mark.parametrize("operator", LEAN_OPERATORS)
@pytest.mark.parametrize("kind", LEAN_KINDS)
def test_micro_step_is_bitwise_the_textbook_step(kind, operator):
    A, b, fmt, p = _lean_step_case(kind, operator)
    deficient = 0
    for mu in range(fmt.num_blocks):
        p_new, v_new, _, rec = micro_step(A, b, fmt, p, mu)
        block, v_want, want = _textbook_step(A, b, fmt, p, mu)
        assert np.array_equal(p_new[mu], block)
        assert np.array_equal(v_new.values, v_want)
        got = (rec.f, rec.decrement, rec.grad_norm, rec.W_rank, rec.resid_orth, rec.param_norm_max)
        assert got == want
        deficient += rec.W_rank < fmt.block_dim(mu)
        p = p_new
    if kind in ("custom", "cp-deficient"):
        assert deficient > 0


def _rel(got, want):
    return float(np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want))


@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_default_route_above_thresholds_matches_the_textbook_step(case):
    A, b, fmt, p = sized_problem(39, *case)
    for mu in range(fmt.num_blocks):
        assert engine.local_solve(A, b, fmt, p, mu, 1e-12).route == "structured"
        p_new, v_new, _, rec = micro_step(A, b, fmt, p, mu)
        block, v_want, want = _textbook_step(A, b, fmt, p, mu)
        f, decrement, grad_norm, rank, resid_orth, pmax = want
        assert rec.W_rank == rank
        assert _rel(p_new[mu], block) <= TOL
        assert _rel(v_new.values, v_want) <= TOL
        assert rec.f == pytest.approx(f, rel=TOL)
        assert rec.decrement == pytest.approx(decrement, abs=TOL * abs(f))
        assert rec.grad_norm == pytest.approx(grad_norm, rel=TOL)
        assert rec.param_norm_max == pytest.approx(pmax, rel=TOL)
        assert max(rec.resid_orth, resid_orth) <= 1e-12 * b.norm()
        if case[-1]:  # duplicated CP columns: a kernel in every W
            assert rank < fmt.block_dim(mu)
        p = p_new


def _count_formed_layers(monkeypatch):
    calls = {"materialize_W": 0, "lowdin_basis": 0}
    for name in calls:
        real = getattr(engine, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    return calls


def _custom_outer_problem():
    # no unfolding factors: the formed route whatever the size
    rng = np.random.default_rng(40)
    shape = Shape((24, 24))
    fmt = MultilinearFormat(shape, (24, 24), lambda bl: np.outer(bl[0], bl[1]).ravel())
    b = DenseTensor(shape, rng.standard_normal(shape.size))
    return IdentityOperator(shape), b, fmt, ParamSystem([rng.standard_normal(24) for _ in range(2)])


def _dense_problem():
    rng = np.random.default_rng(41)
    _, b, fmt, p = sized_problem(42, "cp", (8, 8, 8), 3)
    return DenseOperator(fmt.shape, np.kron(spd(rng, 8), spd(rng, 64))), b, fmt, p


BELOW_THRESHOLDS = {
    "small": lambda: _lean_step_case("tt", "modewise"),
    # N = 512, but N k^2 = 3.3e4 <= STRUCTURED_MIN_GRAM_FLOPS: the gallery's blambda size
    "narrow": lambda: sized_problem(43, "cp", (8, 8, 8), 1, "identity"),
    "dense": _dense_problem,
    "custom": _custom_outer_problem,
}


@pytest.mark.parametrize("name", list(BELOW_THRESHOLDS))
def test_below_thresholds_each_step_forms_W_and_its_basis_once(monkeypatch, name):
    A, b, fmt, p = BELOW_THRESHOLDS[name]()
    calls = _count_formed_layers(monkeypatch)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=2))
    steps = len(trace.records)
    assert steps == 2 * fmt.num_blocks
    assert calls == {"materialize_W": steps, "lowdin_basis": steps}


@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_above_thresholds_no_step_forms_W(monkeypatch, case):
    A, b, fmt, p = sized_problem(43, *case)
    want = run(A, b, fmt, p, StopRule(max_sweeps=2))

    def refuse(*args, **kwargs):
        raise AssertionError("formed route taken")

    monkeypatch.setattr(engine, "materialize_W", refuse)
    monkeypatch.setattr(engine, "lowdin_basis", refuse)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=2))
    assert [r.f for r in trace.records] == [r.f for r in want.records]
    assert trace.records[-1].f < trace.initial_f


def _count_applies(monkeypatch, cls=ModeWiseOperator):
    calls = []
    real = cls.apply

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(cls, "apply", counted)
    return calls


@pytest.mark.parametrize(
    "case", [c for c in ROUTE_CASES if c[3] == "modewise"], ids=lambda c: "-".join(map(str, c))
)
def test_above_thresholds_a_run_applies_A_once(monkeypatch, case):
    # one apply for the initial iterate, whose image serves its objective
    # and the first step; each structured step gets A v_new from its
    # solve, and dist_a comes from the carried images
    A, b, fmt, p = sized_problem(47, *case)
    calls = _count_applies(monkeypatch)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3))
    assert trace.sweeps == 3
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["small", "narrow"])
def test_below_thresholds_a_run_applies_A_once(monkeypatch, name):
    # the formed steps take A v_new from the A V of their solve as well,
    # so a run below the thresholds applies A once in all
    if name == "small":
        A, b, fmt, p = _lean_step_case("tt", "modewise")
    else:
        A, b, fmt, p = sized_problem(47, "cp", (8, 8, 8), 1, "modewise")
    calls = _count_applies(monkeypatch)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3))
    assert trace.sweeps == 3 and not any(r.degenerate for r in trace.records)
    assert len(calls) == 1


def _unverified_dense_problem():
    rng = np.random.default_rng(49)
    _, b, fmt, p = sized_problem(49, "cp", (8, 8, 9), 2)
    A = DenseOperator(fmt.shape, np.kron(spd(rng, 8), spd(rng, 72)))
    assert fmt.shape.size > SPD_VERIFY_CAP and not A.verified
    return A, b, fmt, p


def test_unverified_dense_run_applies_A_once_plus_once_per_sweep(monkeypatch):
    # an unverified operator may be indefinite, so dist_a applies it to
    # v - v_prev and checks the radicand; the steps apply it nowhere
    A, b, fmt, p = _unverified_dense_problem()
    calls = _count_applies(monkeypatch, DenseOperator)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3))
    assert trace.sweeps == 3 and not any(r.degenerate for r in trace.records)
    assert len(calls) == 1 + trace.sweeps


def _apply_count_problem(operator):
    if operator == "dense":
        return _dense_problem()
    if operator == "dense-unverified":
        return _unverified_dense_problem()
    return sized_problem(47, "tt", (7, 8, 6), (3, 4), operator)


@pytest.mark.parametrize(
    "operator, route",
    [
        ("identity", "formed"),
        ("identity", "structured"),
        ("modewise", "formed"),
        ("modewise", "structured"),
        ("dense", "formed"),
        ("dense-unverified", "formed"),
    ],
)
def test_a_run_applies_A_once_plus_once_per_sweep_if_unverified(monkeypatch, operator, route):
    # the initial iterate's image serves its objective and the first
    # step; every step takes A v_new from its solve, on either route, and
    # only an unverified operator is applied again, to v - v_prev, per sweep
    A, b, fmt, p = _apply_count_problem(operator)
    if route == "formed":
        _formed_route(monkeypatch)
    real, routes = engine.local_solve, set()

    def recorded(*args):
        sol = real(*args)
        routes.add(sol.route)
        return sol

    monkeypatch.setattr(engine, "local_solve", recorded)
    calls = _count_applies(monkeypatch, type(A))
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3))
    assert routes == {route}
    assert trace.sweeps == 3 and not any(r.degenerate for r in trace.records)
    assert len(calls) == 1 + (0 if A.verified else trace.sweeps)


@pytest.mark.parametrize("operator", LEAN_OPERATORS)
@pytest.mark.parametrize("kind", LEAN_KINDS)
def test_formed_image_is_a_full_apply_to_the_iterate(kind, operator):
    # the bound of verify's structured-vs-probe check on the formed route
    A, b, fmt, p = _lean_step_case(kind, operator)
    for mu in range(fmt.num_blocks):
        sol = engine.formed_solve(A, b, fmt, p, mu, 1e-12)
        want = A.apply(DenseTensor(b.shape, sol.iterate)).values
        assert _rel(sol.image, want) <= 1e-12
        if operator == "identity":
            assert sol.image is sol.iterate


def _sweep_iterates(fmt, trace):
    params = trace.param_snapshots[:: fmt.num_blocks] + [trace.final_params]
    return [evaluate(fmt, q) for q in params]


@pytest.mark.parametrize("route", ["structured", "formed"])
@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_dist_a_from_the_images_is_the_energy_norm_of_the_step(monkeypatch, case, route):
    A, b, fmt, p = sized_problem(50, *case)
    if route == "formed":
        _formed_route(monkeypatch)
    assert engine.local_solve(A, b, fmt, p, 0, 1e-12).route == route
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3), keep_params=True)
    assert trace.sweeps == 3
    vs = _sweep_iterates(fmt, trace)
    want = [a_norm(A, v - v_prev) for v_prev, v in zip(vs, vs[1:])]
    assert trace.dist_a == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("route", ["structured", "formed"])
@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_dist_a_of_a_rounding_level_sweep_is_finite_and_nonnegative(monkeypatch, case, route):
    # b = A v: the initial parameters are optimal, so each sweep moves v
    # by rounding alone and the image radicand may fall below 0
    A, _, fmt, p = sized_problem(51, *case)
    if route == "formed":
        _formed_route(monkeypatch)
    b = A.apply(evaluate(fmt, p))
    trace = run(A, b, fmt, p, StopRule(max_sweeps=2))
    scale = a_norm(A, trace.final_v)
    assert all(np.isfinite(d) and 0.0 <= d <= 1e-12 * scale for d in trace.dist_a)


def test_energy_distance_clamps_a_negative_image_radicand():
    A = IdentityOperator(Shape((2,)))
    v_prev = DenseTensor(A.shape, [1.0, 0.0])
    v = DenseTensor(A.shape, [1.0 + 2.0**-52, 0.0])
    Av = DenseTensor(A.shape, [1.0 - 2.0**-53, 0.0])  # rounded the other way
    assert engine.energy_distance(A, v, v_prev, Av, v_prev) == 0.0
    assert engine.energy_distance(A, v, v_prev, v, v_prev) == 2.0**-52


def test_energy_distance_on_an_unverified_indefinite_operator_raises():
    shape = Shape((9, 8, 8))
    A = DenseOperator(shape, np.diag(np.linspace(-1.0, 1.0, shape.size)))
    assert shape.size > SPD_VERIFY_CAP and not A.verified
    v_prev = DenseTensor.zeros(shape)
    v = DenseTensor(shape, np.eye(shape.size)[0])  # on the eigenvalue -1
    # the images are not read: an unverified operator is applied to v - v_prev
    zero = DenseTensor.zeros(shape)
    with pytest.raises(ValueError, match="operator not PSD on this vector"):
        engine.energy_distance(A, v, v_prev, zero, zero)


@pytest.mark.parametrize("zero_block", [False, True], ids=["regular", "zero-block"])
@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_run_carrying_A_v_matches_standalone_micro_steps(case, zero_block):
    # standalone calls evaluate the iterate and apply A to it themselves
    A, b, fmt, p = sized_problem(48, *case)
    if zero_block:
        # the first step is degenerate; its iterate, and so its image, is zero
        p = p.replace(1, np.zeros(fmt.block_dim(1)))
    trace = run(A, b, fmt, p, StopRule(max_sweeps=2))
    assert trace.records[0].degenerate == zero_block
    assert trace.sweeps == (1 if zero_block else 2)
    want = []
    for k in range(1, trace.sweeps + 1):
        for mu in range(fmt.num_blocks):
            assert engine.local_solve(A, b, fmt, p, mu, 1e-12).route == "structured"
            p, _, _, rec = micro_step(A, b, fmt, p, mu, sweep=k)
            want.append(rec)
    assert len(trace.records) == len(want)
    for got, rec in zip(trace.records, want):
        assert (got.sweep, got.mu, got.W_rank) == (rec.sweep, rec.mu, rec.W_rank)
        for name in ("f", "decrement", "grad_norm", "resid_orth", "param_norm_max"):
            assert getattr(got, name) == pytest.approx(getattr(rec, name), rel=TOL)
    assert all(np.array_equal(trace.final_params[mu], p[mu]) for mu in range(fmt.num_blocks))


def _formed_route(monkeypatch):
    monkeypatch.setattr(engine, "STRUCTURED_MIN_GRAM_FLOPS", float("inf"))


def _record_fields(rec):
    return (rec.f, rec.decrement, rec.grad_norm, rec.W_rank, rec.resid_orth, rec.param_norm_max)


@pytest.mark.parametrize("kind, rank", [("cp", 3), ("tt", (3, 3))])
def test_degenerate_step_above_thresholds_matches_the_formed_route(monkeypatch, kind, rank):
    A, b, fmt, p = sized_problem(44, kind, (8, 8, 8), rank)
    p = p.replace(1, np.zeros(fmt.block_dim(1)))  # W of blocks 0 and 2 vanishes
    assert engine.local_solve(A, b, fmt, p, 0, 1e-12).route == "structured"
    structured = micro_step(A, b, fmt, p, 0)
    traced = run(A, b, fmt, p, StopRule(max_sweeps=5))
    _formed_route(monkeypatch)
    formed = micro_step(A, b, fmt, p, 0)
    assert structured[3].W_rank == 0
    assert np.array_equal(structured[1].values, formed[1].values)
    assert all(np.array_equal(structured[0][mu], p[mu]) for mu in range(3))
    assert _record_fields(structured[3]) == _record_fields(formed[3])
    assert traced.termination == "degenerate" and traced.sweeps == 1
    assert run(A, b, fmt, p, StopRule(max_sweeps=5)).termination == "degenerate"


@pytest.mark.parametrize("route", ["structured", "formed"])
def test_bad_targets_above_thresholds_raise_the_same_errors(monkeypatch, route):
    A, b, fmt, p = sized_problem(45, "cp", (8, 8, 8), 3)
    if route == "formed":
        _formed_route(monkeypatch)
    assert engine.local_solve(A, b, fmt, p, 0, 1e-12).route == route
    with pytest.raises(ValueError, match="objective undefined for zero target"):
        micro_step(A, DenseTensor.zeros(b.shape), fmt, p, 0)
    values = b.values.copy()
    values[7] = np.nan
    object.__setattr__(b, "values", values)  # past the constructor's finiteness check
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        micro_step(A, b, fmt, p, 0)


@pytest.mark.parametrize(
    "route, field",
    [("structured", "iterate"), ("structured", "image"), ("formed", "iterate"), ("formed", "image")],
)
def test_micro_step_rejects_a_non_finite_solver_output(monkeypatch, route, field):
    # the new iterate and image are wrapped unscanned; the finiteness of
    # f_new stands in for the constructor's scan
    A, b, fmt, p = sized_problem(45, "cp", (8, 8, 8), 3)
    if route == "formed":
        _formed_route(monkeypatch)
    real = engine.local_solve

    def broken(*args):
        sol = real(*args)
        values = getattr(sol, field).copy()
        values[5] = np.inf
        return dataclasses.replace(sol, **{field: values})

    monkeypatch.setattr(engine, "local_solve", broken)
    assert real(A, b, fmt, p, 0, 1e-12).route == route
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        micro_step(A, b, fmt, p, 0)


def _numpy_thin_svd(a):
    return np.linalg.svd(a, full_matrices=False)


def test_thin_svd_is_numpys_thin_svd():
    rng = np.random.default_rng(52)
    for shape in [(64, 3), (900, 8), (8, 3), (3, 8), (1, 4), (5, 1)]:
        a = rng.standard_normal(shape)
        for got, want in zip(engine._thin_svd(a), _numpy_thin_svd(a)):
            assert np.array_equal(got, want)


def _structured_outcome(A, b, fmt, p, mu):
    try:
        sol = engine.structured_solve(A, b, fmt, p, mu, 1e-12)
    except (ValueError, np.linalg.LinAlgError) as err:
        return type(err), str(err)
    return sol.rank, sol.block.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind, rank", [("cp", 3), ("tt", (3, 3))])
def test_non_finite_unfolding_factor_fails_as_with_numpys_svd(monkeypatch, kind, rank, value):
    # finite parameters can still overflow into a factor; an inf entry
    # placed here is one that gesdd returns from (at others it can hang,
    # with numpy's wrapper as well)
    A, b, fmt, p = sized_problem(44, kind, (8, 8, 8), rank)
    real = fmt.unfolding_factors

    def poisoned(blocks, mu):
        factors = [f.copy() for f in real(blocks, mu)]
        factors[0][2, 1] = value
        return factors

    monkeypatch.setattr(fmt, "unfolding_factors", poisoned)
    got = _structured_outcome(A, b, fmt, p, 1)
    monkeypatch.setattr(engine, "_thin_svd", _numpy_thin_svd)
    assert got == _structured_outcome(A, b, fmt, p, 1)
    if value != value:  # NaN: gesdd reports an illegal argument, numpy a non-convergence
        assert got == (np.linalg.LinAlgError, "SVD did not converge")


def _overflowing_factor_problem():
    """Finite CP parameters whose mode-0 unfolding factor overflows to one inf entry.

    U(p) multiplies in another order and stays finite.  LAPACK gesdd
    never returned on this factor.
    """
    A, b, fmt, p = sized_problem(44, "cp", (8, 8, 8), 3)
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    blocks[0][:8] *= 1e-300  # column 0 of the mode-0 factor
    blocks[1][0] = blocks[2][0] = 1e200
    return A, b, fmt, ParamSystem(blocks)


def test_overflowing_unfolding_factor_fails_before_the_svd(monkeypatch):
    A, b, fmt, p = _overflowing_factor_problem()
    real = engine._thin_svd

    def finite_only(a):
        # fails instead of handing gesdd a matrix it may never return from
        assert np.isfinite(a).all(), "non-finite matrix handed to the SVD"
        return real(a)

    monkeypatch.setattr(engine, "_thin_svd", finite_only)
    with np.errstate(over="ignore"):
        assert np.isfinite(evaluate(fmt, p).values).all()
        assert not np.isfinite(fmt.unfolding_factors(p.blocks, 0)[0]).all()
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            run(A, b, fmt, p, StopRule(max_sweeps=1))


def _mp_min_norm_block(mp, A, b, fmt, p, mu):
    """Minimum-norm minimizing block from W, A and b at 50 digits."""
    dims = fmt.shape.dims
    k = fmt.block_dim(mu)
    cols = []
    for j in range(k):
        blocks = [mp.matrix(list(p[nu])) for nu in range(fmt.num_blocks)]
        blocks[mu] = mp.matrix([1 if i == j else 0 for i in range(k)])
        cores = [
            [
                mp.matrix(
                    [[blk[(a * m + i) * fmt.ranks[nu + 1] + c] for c in range(fmt.ranks[nu + 1])]
                     for a in range(fmt.ranks[nu])]
                )
                for i in range(m)
            ]
            for nu, (blk, m) in enumerate(zip(blocks, dims))
        ]
        col = []
        for index in np.ndindex(*dims):
            t = cores[0][index[0]]
            for nu in range(1, len(dims)):
                t = t * cores[nu][index[nu]]
            col.append(t[0, 0])
        cols.append(col)
    W = mp.matrix(fmt.shape.size, k)
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            W[i, j] = x
    K = mp.matrix([[1]])
    for factor in A.factors:
        F = mp.matrix(factor.tolist())
        K2 = mp.matrix(K.rows * F.rows, K.cols * F.cols)
        for i in range(K.rows):
            for j in range(K.cols):
                for r in range(F.rows):
                    for c in range(F.cols):
                        K2[i * F.rows + r, j * F.cols + c] = K[i, j] * F[r, c]
        K = K2
    # the solver's G is symmetrized: it solves with the symmetric part of A
    G = W.T * ((K + K.T) / 2) * W
    rhs = W.T * mp.matrix(list(b.values))
    vals, vecs = mp.eigsy(G)
    top = max(vals)
    q = mp.matrix(k, 1)
    for i in range(k):
        if vals[i] > mp.mpf("1e-30") * top:
            v = vecs[:, i]
            q += v * ((v.T * rhs)[0, 0] / vals[i])
    return np.array([float(x) for x in q])


def test_structured_block_on_non_minimal_tt_ranks_is_the_minimum_norm_block():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.MPContext()
    mp.dps = 50
    # ranks (3, 4) on modes (2, 3, 4): the middle core's left interface is
    # 2 x 3, so its W has a kernel that the minimum-norm update must avoid
    A, b, fmt, p = sized_problem(46, "tt", (2, 3, 4), (3, 4))
    for mu in range(fmt.num_blocks):
        sol = engine.structured_solve(A, b, fmt, p, mu, 1e-12)
        want = _mp_min_norm_block(mp, A, b, fmt, p, mu)
        assert _rel(sol.block, want) <= 1e-13
    assert engine.structured_solve(A, b, fmt, p, 1, 1e-12).rank < fmt.block_dim(1)


def _precut_basis(factors, eps_rank):
    """(U, T) of the structured route with a cut on each factor before the cut on the products."""
    kept = []
    for factor in factors:
        Uf, sigma, Xt = engine._thin_svd(factor)
        ratio = (sigma / sigma[0]) ** 2
        cut = ratio > eps_rank
        kept.append((Uf[:, cut], Xt[cut].T / sigma[cut], ratio[cut]))
    U, T, ratio = kept[0]
    for Uf, Tf, ratio_f in kept[1:]:
        U, T, ratio = kron(U, Uf), kron(T, Tf), np.outer(ratio, ratio_f).ravel()
    keep = ratio > eps_rank
    return U[:, keep], T[:, keep]


def _kept_directions(factor, eps_rank=1e-12):
    sigma = engine._thin_svd(factor)[1]
    return int(np.count_nonzero((sigma / sigma[0]) ** 2 > eps_rank))


def _tt_with_left_slice(seed, dims, value):
    """Mode-wise TT problem, ranks (3, 3), whose core 0 has its third rank slice set by value(core)."""
    A, b, fmt, p = sized_problem(seed, "tt", dims, (3, 3))
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    core = blocks[0].reshape(1, dims[0], 3)
    core[..., 2] = value(core)
    return A, b, fmt, ParamSystem(blocks)


def _both_routes(monkeypatch, A, b, fmt, p, mu):
    structured = micro_step(A, b, fmt, p, mu)
    with monkeypatch.context() as patch:
        _formed_route(patch)
        formed = micro_step(A, b, fmt, p, mu)
    return structured, formed


def test_one_cut_on_two_interfaces_keeps_the_precut_columns(monkeypatch):
    # core 0's third rank slice copies its first, so at mu = 1 the left
    # interface P keeps 2 of its 3 directions and Q^T all 3: the two
    # factors are cut together
    A, b, fmt, p = _tt_with_left_slice(47, (4, 5, 4), lambda core: core[..., 0])
    factors = fmt.unfolding_factors(p.blocks, 1)
    assert [_kept_directions(f) for f in factors] == [2, 3]
    U, T = _precut_basis(factors, 1e-12)
    rhs = []
    real = engine._cholesky_solve

    def spy(G, r):
        rhs.append(r)
        return real(G, r)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_cholesky_solve", spy)
        sol = engine.structured_solve(A, b, fmt, p, 1, 1e-12)
    # the kept columns of U through the right-hand side U^T unfold(b)^T,
    # those of T through the Gram pseudo-inverse T T^T
    assert np.array_equal(rhs[0], U.T @ unfold(b.values, 4, 5).T)
    q = np.random.default_rng(47).standard_normal(fmt.block_dim(1))
    F = fmt.block_to_unfolding(q, 1)
    assert np.array_equal(sol.gram_pinv(q), fmt.block_from_unfolding((F @ T) @ T.T, 1))
    structured, formed = _both_routes(monkeypatch, A, b, fmt, p, 1)
    assert engine.local_solve(A, b, fmt, p, 1, 1e-12).route == "structured"
    assert structured[3].W_rank == formed[3].W_rank == sol.rank == 30
    assert _rel(structured[0][1], formed[0][1]) <= TOL
    assert _rel(structured[1].values, formed[1].values) <= TOL
    assert structured[3].f == pytest.approx(formed[3].f, rel=TOL)


def test_a_zero_singular_value_is_cut_without_a_warning(monkeypatch):
    # a zero rank slice gives P an exactly zero singular value; the cut on
    # the products drops it, and the division by it warns about nothing
    A, b, fmt, p = _tt_with_left_slice(48, (6, 7, 6), lambda core: 0.0)
    P, _ = fmt.unfolding_factors(p.blocks, 1)
    assert engine._thin_svd(P)[1][-1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        structured, formed = _both_routes(monkeypatch, A, b, fmt, p, 1)
    assert structured[3].W_rank == formed[3].W_rank == 2 * 3 * 7
    assert _rel(structured[0][1], formed[0][1]) <= TOL
    assert _rel(structured[1].values, formed[1].values) <= TOL
    assert structured[3].f == pytest.approx(formed[3].f, rel=TOL)


def test_micro_step_non_spd_operator_above_verify_cap_raises():
    # above the cap DenseOperator trusts its matrix; -I is not definite
    shape = Shape((9, 8, 8))
    assert shape.size > SPD_VERIFY_CAP
    A = DenseOperator(shape, -np.eye(shape.size))
    assert not A.verified
    fmt = CpFormat(shape, 1)
    p = ParamSystem([np.ones(m) for m in shape.dims])
    b = DenseTensor(shape, np.ones(shape.size))
    with pytest.raises(ValueError, match="projected operator not positive definite"):
        micro_step(A, b, fmt, p, 0)


def test_micro_step_rejects_non_finite_projected_system():
    class BrokenBlockApply(IdentityOperator):
        def apply_matrix(self, M):
            return np.full(np.shape(M), np.nan)

    shape = Shape((2, 3))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([np.ones(2), np.ones(3)])
    b = DenseTensor(shape, np.arange(1.0, 7.0))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        micro_step(BrokenBlockApply(shape), b, fmt, p, 0)


# ---------------------------------------------------------------------------
# one sweep of run


def test_sweep_visits_blocks_in_order_and_chains_f():
    rng = np.random.default_rng(36)
    shape = Shape((2, 2, 2))
    fmt = CpFormat(shape, 2)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    b = DenseTensor(shape, rng.standard_normal(8))
    A = IdentityOperator(shape)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=1), keep_params=True)
    recs = trace.records
    assert [rec.mu for rec in recs] == [0, 1, 2]
    assert all(rec.sweep == 1 for rec in recs)
    assert recs[-1].f == pytest.approx(objective(A, b, trace.final_v), abs=TOL)
    # each step starts from the objective the step before it ended on
    starts = [trace.initial_f] + [rec.f for rec in recs[:-1]]
    assert [rec.decrement for rec in recs] == [rec.f - f0 for rec, f0 in zip(recs, starts)]
    assert all(rec.decrement <= TOL for rec in recs)
    # step mu writes block mu and nothing else
    after = trace.param_snapshots[1:] + [trace.final_params]
    for mu, (before, written) in enumerate(zip(trace.param_snapshots, after)):
        assert all(written[nu] is before[nu] for nu in range(3) if nu != mu)


def test_sweep_collects_snapshots_before_each_step():
    instance = mohlenkamp_example(0.4)
    args = (instance.A, instance.b, instance.fmt, instance.init, StopRule(max_sweeps=1))
    snaps = run(*args, keep_params=True).param_snapshots
    assert len(snaps) == 3
    for mu in range(3):
        assert np.array_equal(snaps[0][mu], instance.init[mu])


# ---------------------------------------------------------------------------
# StopRule


def test_stop_rule_validation():
    with pytest.raises(ValueError, match="max_sweeps"):
        StopRule(max_sweeps=0)
    with pytest.raises(ValueError, match="nonnegative"):
        StopRule(max_sweeps=1, f_tol=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        StopRule(max_sweeps=1, grad_tol=-1.0)
    # a NaN tolerance would switch its stop test off without a word
    for name in ("f_tol", "grad_tol", "angle_tol"):
        with pytest.raises(ValueError, match=f"{name} must be"):
            StopRule(max_sweeps=1, **{name: float("nan")})


def test_stop_rule_nonpositive_angle_tol_disables():
    assert StopRule(max_sweeps=1, angle_tol=-5.0).angle_tol is None
    assert StopRule(max_sweeps=1, angle_tol=0.0).angle_tol is None
    assert StopRule(max_sweeps=1, angle_tol=1e-10).angle_tol == 1e-10
    assert StopRule(max_sweeps=1).angle_tol is None


# ---------------------------------------------------------------------------
# run


def test_run_max_sweeps_termination():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=2),
        reference_factor=instance.reference_factor,
    )
    assert trace.termination == "max_sweeps"
    assert trace.sweeps == 2
    assert len(trace.records) == 6
    assert len(trace.sweep_f) == len(trace.sweep_tangent) == len(trace.dist_a) == 2
    assert trace.initial_f == pytest.approx(
        objective(instance.A, instance.b, evaluate(instance.fmt, instance.init))
    )


def test_run_angle_termination():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=50, angle_tol=1e-12),
        reference=instance.reference,
        reference_factor=instance.reference_factor,
    )
    assert trace.termination == "angle_small"
    assert trace.sweeps == 4
    assert trace.sweep_tangent[-1] < 1e-12


def test_run_f_stall_termination():
    # superlinear convergence reaches an exact floating-point stall quickly
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=50),
        reference_factor=instance.reference_factor,
    )
    assert trace.termination == "f_stalled"
    assert trace.sweeps == 5


def test_run_grad_termination():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=50, grad_tol=1e10),
        reference_factor=instance.reference_factor,
    )
    assert trace.termination == "grad_small"
    assert trace.sweeps == 1


def test_run_degenerate_termination():
    shape = Shape((2, 2, 2))
    fmt = CpFormat(shape, 1)
    init = ParamSystem([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    b = DenseTensor(shape, np.ones(8))
    trace = run(IdentityOperator(shape), b, fmt, init, StopRule(max_sweeps=10))
    assert trace.termination == "degenerate"
    assert trace.sweeps == 1
    assert trace.records[0].degenerate


def test_run_tangent_series_is_the_pinned_sequence():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=4),
        reference_factor=instance.reference_factor,
    )
    # tangent after sweep 1 equals the hand-derived block ratio:
    # block 0 becomes (2 tau^2, 1)/(tau^2+1)^2, later sweeps update it again,
    # so only pin the measured, frozen series here
    want = [0.32000000000000006, 0.08388608000000007, 0.0002535301200456468]
    got = trace.tangent_series()[:3]
    assert np.allclose(got, want, rtol=1e-12)
    assert trace.angle_mode == "factor"


def test_run_full_angle_mode():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=3),
        reference=instance.reference,
    )
    assert trace.angle_mode == "full"
    series = trace.tangent_series()
    assert len(series) == 3
    assert series[0] == pytest.approx(0.4541, abs=1e-3)


def test_run_auto_mode_without_references_tracks_nothing():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A, instance.b, instance.fmt, instance.init, StopRule(max_sweeps=3)
    )
    assert trace.angle_mode == "none"
    assert trace.sweep_tangent == [None, None, None]
    assert trace.tangent_series() == []


def test_run_angle_mode_errors():
    instance = mohlenkamp_example(0.4)
    args = (instance.A, instance.b, instance.fmt, instance.init, StopRule(max_sweeps=1))
    with pytest.raises(ValueError, match="reference factor length must match mode-1 size"):
        run(*args, reference_factor=[1.0, 0.0, 0.0])
    rank2 = CpFormat(Shape((2, 2)), 2)
    p2 = ParamSystem([np.ones(4), np.ones(4)])
    b2 = DenseTensor(Shape((2, 2)), np.ones(4))
    with pytest.raises(ValueError, match="rank-one cp"):
        run(
            IdentityOperator(Shape((2, 2))),
            b2,
            rank2,
            p2,
            StopRule(max_sweeps=1),
            reference_factor=[1.0, 0.0],
        )


def test_run_keep_params_enables_replay():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=4),
        reference_factor=instance.reference_factor,
        keep_params=True,
    )
    assert len(trace.param_snapshots) == 3 * trace.sweeps
    contexts = list(recursion_contexts(trace))
    # two replayable (mu-1, mu) pairs per sweep from sweep 2 on
    assert [(c.sweep, c.mu) for c in contexts[:2]] == [(2, 1), (2, 2)]
    assert len(contexts) == 2 * (trace.sweeps - 1)


def test_run_without_keep_params_has_no_snapshots():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A, instance.b, instance.fmt, instance.init, StopRule(max_sweeps=2)
    )
    assert trace.param_snapshots is None
    with pytest.raises(ValueError, match="without parameter snapshots"):
        list(recursion_contexts(trace))


def test_run_energy_distance_series_is_positive_then_shrinks():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=4),
        reference_factor=instance.reference_factor,
    )
    assert all(d >= 0.0 for d in trace.dist_a)
    assert trace.dist_a[0] > trace.dist_a[-1]


def test_run_rejects_mismatched_init():
    instance = mohlenkamp_example(0.4)
    bad = ParamSystem([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="blocks"):
        run(instance.A, instance.b, instance.fmt, bad, StopRule(max_sweeps=1))


def test_run_custom_format_counterexample_no_angle():
    # the custom bilinear instance solves fine without any reference
    shape = Shape((2, 2))

    def bilinear(blocks):
        x, y = blocks
        top = x[0] * y[0] + x[1] * y[0]
        return np.array([top, top, x[0] * y[1], x[1] * y[1]])

    fmt = MultilinearFormat(shape, (2, 2), bilinear)
    b = DenseTensor(shape, [1.0, 1.0, 0.0, 1.0])
    init = ParamSystem([[0.0, 1.0], [1.0, 0.0]])
    trace = run(IdentityOperator(shape), b, fmt, init, StopRule(max_sweeps=20))
    assert trace.sweep_f[-1] <= trace.initial_f + TOL
    assert trace.termination in ("f_stalled", "grad_small", "max_sweeps")


# ---------------------------------------------------------------------------
# a factored format declared by the contract alone


class FixedCoreTucker(TensorFormat):
    """A fixed core times one factor matrix per mode, each factor a block.

    It declares only what a factored format needs: its evaluation, the
    block axes (block mu is the m_mu x t_mu factor stored row-major, the
    (1, m_mu, t_mu) core) and the unfolding factors.  Its one factor is
    the evaluation with the identity for block mu, unfolded along mode mu,
    so the contractions run in the order of the evaluation.
    """

    def __init__(self, core, dims):
        self.core = np.asarray(core, dtype=float)
        self.shape = Shape(tuple(dims))
        self.num_blocks = self.shape.ndim

    def block_axes(self, mu):
        return 1, self.core.shape[mu]

    def _contract(self, mats):
        t = self.core
        for mat in mats:
            t = np.tensordot(t, mat, axes=(0, 1))
        return t

    def _matrices(self, blocks):
        return [b.reshape(m, -1) for b, m in zip(blocks, self.shape.dims)]

    def _evaluate_blocks(self, blocks):
        return self._contract(self._matrices(blocks)).ravel()

    def unfolding_factors(self, blocks, mu):
        mats = self._matrices(blocks)
        mats[mu] = np.eye(self.core.shape[mu])
        t = np.moveaxis(self._contract(mats), mu, -1)
        return [t.reshape(-1, self.core.shape[mu])]


def _tucker_problem(seed, dims, core_dims):
    rng = np.random.default_rng(seed)
    fmt = FixedCoreTucker(rng.standard_normal(core_dims), dims)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(fmt.num_blocks)])
    A = ModeWiseOperator([spd(rng, m) for m in dims])
    return A, DenseTensor(fmt.shape, rng.standard_normal(fmt.shape.size)), fmt, p


@settings(deadline=None, max_examples=40)
@given(
    dims=st.lists(st.integers(2, 6), min_size=2, max_size=4),
    core_size=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_contract_only_format_assembles_the_probed_map_exactly(dims, core_size, seed):
    # sizes from 2 up: a mode or core of size 1 turns numpy's products
    # into matrix-vector ones, which round the probe differently
    _, _, fmt, p = _tucker_problem(seed, dims, [core_size] * len(dims))
    for mu in range(fmt.num_blocks):
        got = materialize_W(fmt, p, mu)
        assert got.shape == (fmt.shape.size, dims[mu] * core_size)
        assert np.array_equal(got, probe_map(fmt, p.blocks, mu))


def test_contract_only_format_solves_on_the_structured_route():
    A, b, fmt, p = _tucker_problem(5, (8, 8, 8), (3, 3, 3))
    for mu in range(fmt.num_blocks):
        assert fmt.shape.size * fmt.block_dim(mu) ** 2 > engine.STRUCTURED_MIN_GRAM_FLOPS
        structured = engine.local_solve(A, b, fmt, p, mu, 1e-12)
        formed = engine.formed_solve(A, b, fmt, p, mu, 1e-12)
        assert structured.route == "structured" and structured.rank == formed.rank
        assert np.linalg.norm(structured.block - formed.block) <= 1e-12 * np.linalg.norm(formed.block)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3), keep_params=True)
    contexts = list(recursion_contexts(trace))
    assert len(contexts) == 4
    for ctx in contexts:
        assert recursion_check(A, b, fmt, ctx).defect <= 1e-10
