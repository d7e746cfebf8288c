"""The solver core: Löwdin bases, micro-steps, sweeps, stop rules, run traces."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from alskit.diagnostics import objective, recursion_contexts
from alskit.engine import StopRule, lowdin_basis, micro_step, run, sweep
from alskit.formats import (
    CpFormat,
    MultilinearFormat,
    ParamSystem,
    TtFormat,
    evaluate,
    materialize_W,
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
    inner,
)

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


# ---------------------------------------------------------------------------
# micro_step


def test_micro_step_single_block_reaches_target():
    # a one-block format spans the whole space, so one step lands on b
    shape = Shape((2,))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([[1.0, 1.0]])
    b = DenseTensor(shape, [3.0, -1.0])
    p_new, v_new, rec = micro_step(IdentityOperator(shape), b, fmt, p, 0)
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
    p_new, _, rec = micro_step(instance.A, instance.b, instance.fmt, instance.init, 0)
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
        p_new, _, _ = micro_step(A, b, fmt, p, mu)
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
    p_new, _, rec = micro_step(IdentityOperator(shape), b, fmt, p, 0)
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
    p_new, v_new, rec = micro_step(A, b, fmt, p, 0)
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
    _, _, rec = micro_step(IdentityOperator(shape), b, fmt, p, 0)
    assert rec.grad_norm == pytest.approx(want, rel=1e-12)
    assert rec.grad_norm > 1e-3
    assert rec.resid_orth < 1e-12


def _textbook_step(A, b, fmt, p, mu, eps_rank=1e-12):
    """The micro-step as first written: eager V^T V and scipy's Cholesky."""
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
    G = V.T @ A.apply_matrix(V)
    G = 0.5 * (G + G.T)
    y = cho_solve(cho_factor(G, lower=True), V.T @ b.values)
    block = transform @ y
    v_new = DenseTensor(b.shape, V @ y)
    Av_new = A.apply(v_new)
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
        p_new, v_new, rec = micro_step(A, b, fmt, p, mu)
        block, v_want, want = _textbook_step(A, b, fmt, p, mu)
        assert np.array_equal(p_new[mu], block)
        assert np.array_equal(v_new.values, v_want)
        got = (rec.f, rec.decrement, rec.grad_norm, rec.W_rank, rec.resid_orth, rec.param_norm_max)
        assert got == want
        deficient += rec.W_rank < fmt.block_dim(mu)
        p = p_new
    if kind in ("custom", "cp-deficient"):
        assert deficient > 0


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
# sweep


def test_sweep_visits_blocks_in_order_and_chains_f():
    rng = np.random.default_rng(36)
    shape = Shape((2, 2, 2))
    fmt = CpFormat(shape, 2)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    b = DenseTensor(shape, rng.standard_normal(8))
    A = IdentityOperator(shape)
    p1, v1, recs = sweep(A, b, fmt, p, sweep_index=7)
    assert [rec.mu for rec in recs] == [0, 1, 2]
    assert all(rec.sweep == 7 for rec in recs)
    fs = [objective(A, b, v1)]
    assert recs[-1].f == pytest.approx(fs[0], abs=TOL)
    decs = [rec.decrement for rec in recs]
    assert all(d <= TOL for d in decs)


def test_sweep_collects_snapshots_before_each_step():
    instance = mohlenkamp_example(0.4)
    snaps = []
    sweep(instance.A, instance.b, instance.fmt, instance.init, snapshots=snaps)
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
        angle_mode="full",
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
    with pytest.raises(ValueError, match="needs a reference factor"):
        run(*args, angle_mode="factor")
    with pytest.raises(ValueError, match="needs a reference tensor"):
        run(*args, angle_mode="full")
    with pytest.raises(ValueError, match="unknown angle mode"):
        run(*args, angle_mode="sideways")
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
            angle_mode="factor",
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
