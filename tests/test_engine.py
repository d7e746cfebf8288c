"""The solver core: Löwdin bases, micro-steps, sweeps, stop rules, run traces."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from alskit import engine, formats, tensors
from alskit.diagnostics import (
    EPS_RANK_DEFAULT,
    MicroStepRecord,
    RecursionContext,
    full_gradient,
    gradient_block,
    materialize_M,
    objective,
    recursion_check,
    recursion_contexts,
)
from alskit.engine import RunState, StopRule, lowdin_basis, micro_step, run
from alskit.formats import (
    CpFormat,
    MultilinearFormat,
    ParamSystem,
    TensorFormat,
    TtFormat,
    contract,
    evaluate,
    expand,
    kron,
    materialize_W,
    probe_map,
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
    SpdOperator,
    a_norm,
    inner,
    kron_apply,
)
from alskit.verification import ROUTE_CASES, sized_problem
from alskit.verification import random_spd_matrix as spd
from reference_kernels import fold, gram_cut, kron_all, unfold

TOL = 1e-12


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


def test_lowdin_orth_defect_is_computed_from_V_on_each_read():
    rng = np.random.default_rng(37)
    W = rng.standard_normal((7, 4))
    W[:, 3] = W[:, 1]
    basis = lowdin_basis(W)
    assert basis._fields == ("V", "transform", "delta", "rank")  # no stored defect
    want = float(np.max(np.abs(basis.V.T @ basis.V - np.eye(basis.rank))))
    assert basis.orth_defect == want
    doubled = basis._replace(V=2.0 * basis.V)  # read from the V it holds
    assert doubled.orth_defect == float(np.max(np.abs(4.0 * (basis.V.T @ basis.V) - np.eye(3))))
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
# each check once: a scalar first, the full scan only when it is not finite

BAD_ENTRIES = st.sampled_from(
    [np.nan, np.inf, -np.inf, 1e308, -1e308, 8.9e307, 9.0e307, 1e200, 1.0]
)


def _spoiled(rng, x, entries):
    """x with the given entries written at random places."""
    flat = x.reshape(-1)
    for entry in entries:
        flat[rng.integers(flat.size)] = entry
    return x


@settings(deadline=None, max_examples=120)
@given(
    k=st.integers(1, 5),
    cols=st.integers(1, 3),
    g_entries=st.lists(BAD_ENTRIES, max_size=3),
    rhs_entries=st.lists(BAD_ENTRIES, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_cholesky_solve_rejects_exactly_the_non_finite_systems(
    k, cols, g_entries, rhs_entries, seed
):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k, k))
    G = _spoiled(rng, X @ X.T + k * np.eye(k), g_entries)
    rhs = _spoiled(rng, rng.standard_normal((k, cols) if cols > 1 else k), rhs_entries)
    finite = np.isfinite(G).all() and np.isfinite(rhs).all()
    with np.errstate(all="ignore"):
        try:
            engine._cholesky_solve(G, rhs)
        except ValueError as exc:
            assert (str(exc) == "array must not contain infs or NaNs") == (not finite)
        else:
            assert finite


@settings(deadline=None, max_examples=150)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 5),
    entries=st.lists(
        st.sampled_from([np.nan, np.inf, -np.inf, 1e160, 1e154, 9.5e153, 6e153, -6e153, 3e153]),
        max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
def test_lowdin_basis_rejects_exactly_the_grams_the_symmetrization_overflows(
    rows, cols, entries, seed
):
    # symmetrizing H = W^T W turns an entry at or above half the double
    # range into inf: such a Gram matrix raises like a non-finite one
    rng = np.random.default_rng(seed)
    W = _spoiled(rng, rng.standard_normal((rows, cols)), entries)
    with np.errstate(all="ignore"):
        H = W.T @ W
        H = 0.5 * (H + H.T)
        try:
            basis = lowdin_basis(W)
        except np.linalg.LinAlgError as exc:
            assert str(exc) == "Eigenvalues did not converge"
            assert not np.isfinite(H).all()
        else:
            assert np.isfinite(H).all()
            V, transform, delta, rank = _eigh_lowdin(W, EPS_RANK_DEFAULT)
            assert basis.rank == rank
            assert np.array_equal(basis.transform, transform)
            assert np.array_equal(basis.V, V)


def test_a_gram_entry_above_half_the_double_range_still_fails_to_converge():
    # H = [[a^2, -a^2], [-a^2, a^2]] sums to 0, yet 2 a^2 overflows
    a = 9.5e153
    for W in (np.array([[a, -a]]), np.array([[a, 1.0], [0.0, 1.0]])):
        H = W.T @ W
        assert np.isfinite(H).all() and np.abs(H).max() > np.finfo(float).max / 2
        with np.errstate(all="ignore"), pytest.raises(
            np.linalg.LinAlgError, match="^Eigenvalues did not converge$"
        ):
            lowdin_basis(W)
    # below half the range, with a trace that overflows when doubled: no error
    b = 6e153
    basis = lowdin_basis(np.diag([b, b, b]))
    assert basis.rank == 3 and np.array_equal(basis.delta, [b * b] * 3)


@settings(deadline=None, max_examples=60)
@given(rows=st.integers(1, 400), cols=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_gram_products_are_exactly_symmetric(rows, cols, seed):
    # numpy computes X.T @ X with BLAS syrk; the solver relies on H == H.T bit for bit
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((rows, cols)) * np.logspace(0, -6, cols)
    for X in (W, np.asfortranarray(W), W[::2, ::2]):
        H = X.T @ X
        assert np.array_equal(H, H.T)
    H = W.T @ W
    V = lowdin_basis(W, 0.0).V
    G = V.T @ V
    assert np.array_equal(G, G.T)
    gram, finite = engine._gram(W)
    assert finite and np.array_equal(gram, H)


@settings(deadline=None, max_examples=80)
@given(
    exponents=st.lists(st.integers(-40, 0), min_size=1, max_size=7),
    zeros=st.integers(0, 2),
    eps_exponent=st.one_of(st.none(), st.integers(-80, -1)),
    seed=st.integers(0, 2**16),
)
def test_rank_cut_keeps_the_eigenvalues_strictly_above_the_threshold(
    exponents, zeros, eps_exponent, seed
):
    # powers of two on a diagonal: exact Gram eigenvalues, some exactly at
    # the threshold eps_rank * delta_1, which are dropped
    rng = np.random.default_rng(seed)
    diag = [2.0 ** e for e in exponents] + [0.0] * zeros
    W = np.diag(rng.permutation(diag))
    eps_rank = 0.0 if eps_exponent is None else 2.0 ** eps_exponent
    basis = lowdin_basis(W, eps_rank)
    vals = engine.lapack.dsyevd(W.T @ W, lower=1)[0]
    assert basis.rank == int(np.count_nonzero(vals > eps_rank * vals[-1]))
    assert basis.rank == sum(d * d > eps_rank * max(diag) ** 2 for d in diag)


def test_rank_cut_drops_an_eigenvalue_exactly_at_the_threshold():
    W = np.diag([1.0, 2.0**-5, 2.0**-6])
    assert lowdin_basis(W, 2.0**-10).rank == 1  # 2^-10 is the threshold itself
    assert lowdin_basis(W, 2.0**-11).rank == 2
    assert lowdin_basis(W, 0.0).rank == 3
    assert lowdin_basis(np.diag([1.0, 0.0]), 0.0).rank == 1


# ---------------------------------------------------------------------------
# micro_step


def _step(A, b, fmt, p, mu, **kwargs):
    """One micro-step from the state at p: (new state, record)."""
    return micro_step(A, b, fmt, RunState.at(A, b, fmt, p), mu, **kwargs)


def test_micro_step_single_block_reaches_target():
    # a one-block format spans the whole space, so one step lands on b
    shape = Shape((2,))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([[1.0, 1.0]])
    b = DenseTensor(shape, [3.0, -1.0])
    state, rec = _step(IdentityOperator(shape), b, fmt, p, 0)
    assert np.allclose(state.params[0], [3.0, -1.0], atol=TOL)
    assert np.allclose(state.v.values, b.values, atol=TOL)
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
    state, rec = _step(instance.A, instance.b, instance.fmt, instance.init, 0)
    want = np.array([2.0 * tau**2, 1.0]) / (tau**2 + 1.0) ** 2
    assert np.allclose(state.params[0], want, atol=1e-14)
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
        state, _ = _step(A, b, fmt, p, mu)
        want = brute_least_squares(A, b, W)
        assert np.linalg.norm(state.params[mu] - want) < 1e-10


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
    state, rec = _step(IdentityOperator(shape), b, fmt, p, 0)
    assert rec.W_rank < fmt.block_dim(0)
    _, svals, vt = np.linalg.svd(W)
    null = vt[(svals > 1e-10 * svals[0]).sum():]
    assert np.max(np.abs(null @ state.params[0])) < 1e-10


def test_micro_step_degenerate_leaves_params_unchanged():
    # zero companion blocks zero out W entirely
    shape = Shape((2, 2, 2))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    b = DenseTensor(shape, np.ones(8))
    A = IdentityOperator(shape)
    state = RunState.at(A, b, fmt, p)
    new, rec = micro_step(A, b, fmt, state, 0)
    assert new is state and new.params is p
    assert rec.degenerate
    assert rec.W_rank == 0
    assert rec.decrement == 0.0
    assert new.v.norm() == 0.0
    # the record carries the pre-step values
    v = evaluate(fmt, p)
    W_resid = materialize_W(fmt, p, 0).T @ (b.values - A.apply(v).values)
    assert rec.f == objective(A, b, v)
    assert rec.grad_norm == float(np.linalg.norm(W_resid)) / inner(b, b)
    assert rec.resid_orth == float(np.linalg.norm(W_resid))
    assert rec.param_norm_max == max(float(np.linalg.norm(p[mu])) for mu in range(3))


@pytest.mark.parametrize("kind, rank", [("cp", 2), ("tt", (2, 3))])
def test_run_state_at_takes_b_b_once_and_wraps_the_kronecker_evaluations(monkeypatch, kind, rank):
    # for a Kronecker product on a factored format neither evaluation is
    # scanned (f stands in for the scan), and <b, b> is computed once
    A, b, fmt, p = sized_problem(3, kind, (5, 6, 4), rank, "modewise")
    pairs, scans = [], []
    real_inner, real_init = engine.inner, tensors.DenseTensor.__init__
    monkeypatch.setattr(engine, "inner", lambda u, v: pairs.append((u, v)) or real_inner(u, v))
    monkeypatch.setattr(
        tensors.DenseTensor, "__init__", lambda self, *args: scans.append(1) or real_init(self, *args)
    )
    state = RunState.at(A, b, fmt, p)
    assert sum(u is b and v is b for u, v in pairs) == 1 and scans == []
    monkeypatch.undo()
    v = evaluate(fmt, p)
    assert state.v.values.tobytes() == v.values.tobytes()
    assert state.b2 == inner(b, b) and state.f == objective(A, b, v, state.Av)


@pytest.mark.parametrize("operator", ["identity", "modewise"])
def test_run_state_at_rejects_non_finite_evaluations_before_a_zero_target(operator):
    A, b, fmt, p = sized_problem(44, "cp", (4, 4, 4), 2, operator)
    zero = DenseTensor.zeros(b.shape)
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    blocks[0] *= 1e200
    blocks[1] *= 1e200
    huge = ParamSystem(blocks)  # finite blocks, v overflows
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(fmt._evaluate_blocks(huge.blocks)).all()
        for target in (b, zero):
            with pytest.raises(ValueError, match="^tensor entries must be finite$"):
                RunState.at(A, target, fmt, huge)
    with pytest.raises(ValueError, match="^objective undefined for zero target$"):
        RunState.at(A, zero, fmt, p)
    # an image that overflows where v does not
    if operator == "modewise":
        loud = ModeWiseOperator([K * 1e150 for K in A.factors])
        blocks = [p[mu] * 1e10 for mu in range(fmt.num_blocks)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^tensor entries must be finite$"):
                RunState.at(loud, b, fmt, ParamSystem(blocks))
    # f alone overflows: the state is kept, with objective's non-finite f
    big = ParamSystem([p[mu] * 1e54 for mu in range(fmt.num_blocks)])
    with np.errstate(over="ignore", invalid="ignore"):
        state = RunState.at(A, b, fmt, big)
        want = objective(A, b, state.v, state.Av)
    assert np.isfinite(state.v.values).all() and np.isfinite(state.Av.values).all()
    assert not math.isfinite(state.f) and np.float64(state.f).tobytes() == np.float64(want).tobytes()


def test_micro_step_rejects_zero_target():
    shape = Shape((2,))
    fmt = CpFormat(shape, 1)
    with pytest.raises(ValueError, match="zero target"):
        _step(IdentityOperator(shape), DenseTensor.zeros(shape), fmt, ParamSystem([[1.0, 0.0]]), 0)


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
    _, rec = _step(IdentityOperator(shape), b, fmt, p, 0)
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


def _textbook_state(A, b, fmt, p):
    """The start state written plainly: A applied to the iterate."""
    v = evaluate(fmt, p)
    Av = A.apply(v)
    return RunState(p, v, Av, b.values - Av.values, objective(A, b, v), inner(b, b))


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
        state, rec = micro_step(A, b, fmt, _textbook_state(A, b, fmt, p), mu)
        block, v_want, want = _textbook_step(A, b, fmt, p, mu)
        assert np.array_equal(state.params[mu], block)
        assert np.array_equal(state.v.values, v_want)
        assert _record_fields(rec) == want
        deficient += rec.W_rank < fmt.block_dim(mu)
        p = state.params
    if kind in ("custom", "cp-deficient"):
        assert deficient > 0


def _rel(got, want):
    return float(np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want))


@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_default_route_above_thresholds_matches_the_textbook_step(case):
    A, b, fmt, p = sized_problem(39, *case)
    for mu in range(fmt.num_blocks):
        assert engine.local_solve(A, b, fmt, p, mu, 1e-12).route == "structured"
        state, rec = micro_step(A, b, fmt, _textbook_state(A, b, fmt, p), mu)
        block, v_want, want = _textbook_step(A, b, fmt, p, mu)
        f, decrement, grad_norm, rank, resid_orth, pmax = want
        assert rec.W_rank == rank
        assert _rel(state.params[mu], block) <= TOL
        assert _rel(state.v.values, v_want) <= TOL
        assert rec.f == pytest.approx(f, rel=TOL)
        assert rec.decrement == pytest.approx(decrement, abs=TOL * abs(f))
        assert rec.grad_norm == pytest.approx(grad_norm, rel=TOL)
        assert rec.param_norm_max == pytest.approx(pmax, rel=TOL)
        assert max(rec.resid_orth, resid_orth) <= 1e-12 * b.norm()
        if case[-1]:  # duplicated CP columns: a kernel in every W
            assert rank < fmt.block_dim(mu)
        p = state.params


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
def test_above_thresholds_a_modewise_run_makes_no_full_apply(monkeypatch, case):
    # the initial image is the evaluation at the blocks with the mode
    # factors applied; each structured step gets A v_new from its solve,
    # and dist_a comes from the carried images
    A, b, fmt, p = sized_problem(47, *case)
    calls = _count_applies(monkeypatch)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3))
    assert trace.sweeps == 3
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["small", "narrow"])
def test_below_thresholds_a_modewise_run_makes_no_full_apply(monkeypatch, name):
    # the formed steps take A v_new from the A V of their solve as well
    if name == "small":
        A, b, fmt, p = _lean_step_case("tt", "modewise")
    else:
        A, b, fmt, p = sized_problem(47, "cp", (8, 8, 8), 1, "modewise")
    calls = _count_applies(monkeypatch)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=3))
    assert trace.sweeps == 3 and not any(r.degenerate for r in trace.records)
    assert len(calls) == 0


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
    if operator == "modewise-custom":
        _, b, fmt, p = _custom_outer_problem()
        return ModeWiseOperator([spd(np.random.default_rng(48), 24) for _ in range(2)]), b, fmt, p
    return sized_problem(47, "tt", (7, 8, 6), (3, 4), operator)


@pytest.mark.parametrize(
    "operator, route",
    [
        ("identity", "formed"),
        ("identity", "structured"),
        ("modewise", "formed"),
        ("modewise", "structured"),
        ("modewise-custom", "formed"),
        ("dense", "formed"),
        ("dense-unverified", "formed"),
    ],
)
def test_a_run_applies_A_once_plus_once_per_sweep_if_unverified(monkeypatch, operator, route):
    # the initial iterate's image serves its objective and the first
    # step; every step takes A v_new from its solve, on either route, and
    # only an unverified operator is applied again, to v - v_prev, per sweep.
    # An operator that declares its Kronecker structure (the identity, a
    # mode-wise operator) takes that first image on a factored format from
    # the blocks, with no full apply; on a custom format it applies A.
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
    first = 0 if operator in ("identity", "modewise") else 1
    assert len(calls) == first + (0 if A.verified else trace.sweeps)


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


def _micro_step_chain(A, b, fmt, p, sweeps):
    """``sweeps`` sweeps chained from RunState.at by hand: (records, sweep_f, dist_a, state)."""
    state = RunState.at(A, b, fmt, p)
    records, sweep_f, dist_a = [], [], []
    for k in range(1, sweeps + 1):
        prev = state
        for mu in range(fmt.num_blocks):
            new, rec = micro_step(A, b, fmt, state, mu, sweep=k)
            # the carried residual is the new image's; a degenerate step keeps the state
            assert np.array_equal(new.resid, b.values - new.Av.values)
            assert (new is state) == rec.degenerate
            state = new
            records.append(rec)
        sweep_f.append(state.f)
        dist_a.append(engine.energy_distance(A, state.v, prev.v, state.Av, prev.Av))
    return records, sweep_f, dist_a, state


def _assert_run_is_the_chain(A, b, fmt, p):
    trace = run(A, b, fmt, p, StopRule(max_sweeps=2))
    records, sweep_f, dist_a, state = _micro_step_chain(A, b, fmt, p, trace.sweeps)
    assert trace.records == records
    assert trace.sweep_f == sweep_f and trace.dist_a == dist_a
    assert all(np.array_equal(x, y) for x, y in zip(trace.final_params.blocks, state.params.blocks))
    assert np.array_equal(trace.final_v.values, state.v.values)
    return trace


@pytest.mark.parametrize("zero_block", [False, True], ids=["regular", "zero-block"])
@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_run_carrying_A_v_matches_standalone_micro_steps(case, zero_block):
    A, b, fmt, p = sized_problem(48, *case)
    if zero_block:
        # the first step is degenerate; its iterate, and so its image, is zero
        p = p.replace(1, np.zeros(fmt.block_dim(1)))
    assert all(
        engine.local_solve(A, b, fmt, p, mu, 1e-12).route == "structured"
        for mu in range(fmt.num_blocks)
    )
    trace = _assert_run_is_the_chain(A, b, fmt, p)
    assert trace.records[0].degenerate == zero_block
    assert trace.sweeps == (1 if zero_block else 2)


@pytest.mark.parametrize("case", ["formed", "custom"])
def test_run_is_a_chain_of_micro_steps_on_the_formed_route(monkeypatch, case):
    if case == "formed":
        _formed_route(monkeypatch)
        A, b, fmt, p = sized_problem(48, *ROUTE_CASES[1])
    else:
        # no unfolding factors: the start state applies the mode-wise A to v
        A, b, fmt, p = _lean_step_case("custom", "modewise")
    assert engine.local_solve(A, b, fmt, p, 0, 1e-12).route == "formed"
    assert _assert_run_is_the_chain(A, b, fmt, p).sweeps == 2


def _formed_route(monkeypatch):
    monkeypatch.setattr(engine, "STRUCTURED_MIN_GRAM_FLOPS", float("inf"))


def _record_fields(rec):
    return (rec.f, rec.decrement, rec.grad_norm, rec.W_rank, rec.resid_orth, rec.param_norm_max)


@pytest.mark.parametrize("kind, rank", [("cp", 3), ("tt", (3, 3))])
def test_degenerate_step_above_thresholds_matches_the_formed_route(monkeypatch, kind, rank):
    A, b, fmt, p = sized_problem(44, kind, (8, 8, 8), rank)
    p = p.replace(1, np.zeros(fmt.block_dim(1)))  # W of blocks 0 and 2 vanishes
    assert engine.local_solve(A, b, fmt, p, 0, 1e-12).route == "structured"
    state = RunState.at(A, b, fmt, p)
    structured = micro_step(A, b, fmt, state, 0)
    traced = run(A, b, fmt, p, StopRule(max_sweeps=5))
    _formed_route(monkeypatch)
    formed = micro_step(A, b, fmt, state, 0)
    assert structured[1].W_rank == 0
    assert structured[0] is formed[0] is state
    assert _record_fields(structured[1]) == _record_fields(formed[1])
    assert traced.termination == "degenerate" and traced.sweeps == 1
    assert run(A, b, fmt, p, StopRule(max_sweeps=5)).termination == "degenerate"


@pytest.mark.parametrize("route", ["structured", "formed"])
def test_bad_targets_above_thresholds_raise_the_same_errors(monkeypatch, route):
    A, b, fmt, p = sized_problem(45, "cp", (8, 8, 8), 3)
    if route == "formed":
        _formed_route(monkeypatch)
    assert engine.local_solve(A, b, fmt, p, 0, 1e-12).route == route
    with pytest.raises(ValueError, match="objective undefined for zero target"):
        _step(A, DenseTensor.zeros(b.shape), fmt, p, 0)
    values = b.values.copy()
    values[7] = np.nan
    object.__setattr__(b, "values", values)  # past the constructor's finiteness check
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        _step(A, b, fmt, p, 0)


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
        return sol._replace(**{field: values})

    monkeypatch.setattr(engine, "local_solve", broken)
    assert real(A, b, fmt, p, 0, 1e-12).route == route
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        _step(A, b, fmt, p, 0)


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


def test_a_subnormal_kept_singular_value_overflows_its_column_of_T_quietly(monkeypatch):
    # at eps_rank 0 a factor keeps a singular value below 2^-1022, and
    # X^T / sigma overflows on it: the one case the structured route
    # silences, and the same solve comes back as with the overflow
    # silenced for every factor
    A, b, fmt, p = sized_problem(44, "cp", (8, 8, 8), 3)
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    blocks[1] *= 1e-150
    blocks[2] *= 1e-150
    blocks[1][:8] *= 1e-10  # column 0 of the mode-1 factor
    p = ParamSystem(blocks)
    sigma = engine._thin_svd(fmt.unfolding_factors(p.blocks, 0)[0])[1]
    assert 0.0 < sigma[-1] < 2.0**-1022 <= sigma[-2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = engine.structured_solve(A, b, fmt, p, 0, 0.0)
    assert sol.rank == fmt.block_dim(0) and not np.isfinite(sol.block).all()
    monkeypatch.setattr(engine, "_SMALLEST_NORMAL", math.inf)
    with np.errstate(over="ignore"):
        want = engine.structured_solve(A, b, fmt, p, 0, 0.0)
    assert (sol.rank, sol.route) == (want.rank, want.route)
    for field in ("block", "iterate", "image"):
        assert getattr(sol, field).tobytes() == getattr(want, field).tobytes()


special_sigmas = st.sampled_from([0.0, 5e-324, 2.0**-1030, 2.0**-1022, 1.0])


@settings(deadline=None, max_examples=300)
@given(
    sigma=st.lists(st.one_of(st.floats(0.0, 1e300), special_sigmas), min_size=1, max_size=10),
    eps_rank=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 1e-12])),
    at=st.one_of(st.none(), st.integers(0, 9)),
    all_zero=st.booleans(),
)
def test_the_python_float_cut_keeps_what_the_numpy_cut_keeps(sigma, eps_rank, at, all_zero):
    # the structured route cuts each factor's singular values in Python
    # floats; it keeps as many, and the same ratios bit for bit, as the
    # cut on numpy's (sigma / sigma_1)^2, also at a cut exactly on a ratio,
    # on subnormal and zero trailing values, and at sigma_1 = 0
    sigma = [0.0] * len(sigma) if all_zero else sorted(sigma, reverse=True)
    count, ratios = gram_cut(sigma, eps_rank)
    if at is not None and 0.0 <= ratios[at % len(ratios)] < 1.0:
        eps_rank = float(ratios[at % len(ratios)])
        count, ratios = gram_cut(sigma, eps_rank)
        assert count <= at % len(ratios)
    kept = engine._kept_ratios(sigma, eps_rank)
    assert len(kept) == count
    assert np.array(kept, dtype=float).tobytes() == ratios[:count].tobytes()


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


def _precut_factors(factors, eps_rank):
    """Each factor's (U_f, T_f, ratio), cut before the cut on the products."""
    kept = []
    for factor in factors:
        Uf, sigma, Xt = engine._thin_svd(factor)
        ratio = (sigma / sigma[0]) ** 2
        n = int(np.count_nonzero(ratio > eps_rank))
        assert np.all(ratio[:n] > eps_rank)  # descending: the cut is a leading block
        kept.append((Uf[:, :n], Xt[:n].T / sigma[:n], ratio[:n]))
    return kept


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
    """One step from the state at p on the structured route and on the formed route."""
    state = RunState.at(A, b, fmt, p)
    structured = micro_step(A, b, fmt, state, mu)
    with monkeypatch.context() as patch:
        _formed_route(patch)
        formed = micro_step(A, b, fmt, state, mu)
    return structured, formed


def test_one_cut_on_two_interfaces_keeps_the_precut_columns(monkeypatch):
    # core 0's third rank slice copies its first, so at mu = 1 the left
    # interface P keeps 2 of its 3 directions and Q^T all 3: the two
    # factors are cut together
    A, b, fmt, p = _tt_with_left_slice(47, (4, 5, 4), lambda core: core[..., 0])
    factors = fmt.unfolding_factors(p.blocks, 1)
    assert [_kept_directions(f) for f in factors] == [2, 3]
    (UP, TP, rP), (UQ, TQ, rQ) = _precut_factors(factors, 1e-12)
    assert np.all(np.outer(rP, rQ) > 1e-12)  # every product of the kept directions is kept
    rhs = []
    real = engine._cholesky_solve

    def spy(G, r):
        rhs.append(r)
        return real(G, r)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_cholesky_solve", spy)
        sol = engine.structured_solve(A, b, fmt, p, 1, 1e-12)
    # the kept directions of P and Q^T through the right-hand side V^T b,
    # the two-sided contraction of b in (P direction, Q direction) order,
    # and the same rows as the kept columns of the Kronecker basis
    core = contract(b.values, [UP, UQ], 4, 5, 4, 2, 3)
    assert np.array_equal(rhs[0], core.transpose(0, 2, 1).reshape(6, 5))
    U, B = kron(UP, UQ), unfold(b.values, 4, 5)
    scale = np.linalg.norm(np.abs(U).T @ np.abs(B).T)
    assert np.linalg.norm(rhs[0] - U.T @ B.T) <= 1e-14 * scale
    # those of T = T_P (x) T_Q through the Gram pseudo-inverse T T^T
    q = np.random.default_rng(47).standard_normal(fmt.block_dim(1))
    assert np.array_equal(
        sol.gram_pinv(q),
        expand(contract(q, [TP, TQ], 3, 5, 3, 2, 3), [TP, TQ], 3, 3),
    )
    T, F = kron(TP, TQ), unfold(q, 3, 5)
    scale = np.linalg.norm((np.abs(F) @ np.abs(T)) @ np.abs(T).T)
    want = fold((F @ T) @ T.T, 3, 5)
    assert np.linalg.norm(sol.gram_pinv(q) - want) <= 1e-14 * scale
    structured, formed = _both_routes(monkeypatch, A, b, fmt, p, 1)
    assert engine.local_solve(A, b, fmt, p, 1, 1e-12).route == "structured"
    assert structured[1].W_rank == formed[1].W_rank == sol.rank == 30
    assert _rel(structured[0].params[1], formed[0].params[1]) <= TOL
    assert _rel(structured[0].v.values, formed[0].v.values) <= TOL
    assert structured[1].f == pytest.approx(formed[1].f, rel=TOL)


def test_the_product_cut_drops_products_that_each_factor_keeps():
    # both interfaces of the middle core have singular values 1, 1e-4 and
    # 1e-5: each keeps all three directions at eps_rank 1e-12 (ratios 1,
    # 1e-8, 1e-10), but only 5 of their 9 products do.  The reference is
    # the solve on the kept columns of the Kronecker basis, formed
    rng = np.random.default_rng(49)
    dims = (6, 5, 6)

    def graded():
        Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, 3)))[0] for n in (6, 3))
        return (Q1 * [1.0, 1e-4, 1e-5]) @ Q2.T

    fmt = TtFormat(Shape(dims), (3, 3))
    p = ParamSystem([graded().ravel(), rng.standard_normal(45), graded().T.ravel()])
    A = ModeWiseOperator([spd(rng, m) for m in dims])
    b = DenseTensor(fmt.shape, rng.standard_normal(fmt.shape.size))
    (UP, TP, rP), (UQ, TQ, rQ) = _precut_factors(fmt.unfolding_factors(p.blocks, 1), 1e-12)
    keep = np.outer(rP, rQ).ravel() > 1e-12
    assert (len(rP), len(rQ), keep.sum()) == (3, 3, 5)
    U, T = kron(UP, UQ)[:, keep], kron(TP, TQ)[:, keep]
    K_L, K, K_R = A.factors
    S = U.T @ kron(K_L, K_R) @ U
    Y = np.linalg.solve(S, np.linalg.solve(K, (U.T @ unfold(b.values, 6, 5).T).T).T)
    sol = engine.structured_solve(A, b, fmt, p, 1, 1e-12)
    assert sol.rank == engine.formed_solve(A, b, fmt, p, 1, 1e-12).rank == 5 * 5
    assert _rel(sol.block, fold((T @ Y).T, 3, 5)) <= TOL
    assert _rel(sol.iterate, fold(Y.T @ U.T, 6, 5)) <= TOL
    assert _rel(sol.image, A.apply(DenseTensor(fmt.shape, sol.iterate)).values) <= TOL
    q = rng.standard_normal(fmt.block_dim(1))
    F = unfold(q, 3, 5)
    assert _rel(sol.gram_pinv(q), fold((F @ T) @ T.T, 3, 5)) <= TOL
    X = np.linalg.solve(S, np.linalg.solve(K, F @ T).T)
    assert _rel(sol.energy_pinv(q), fold((T @ X).T, 3, 5)) <= TOL


def test_a_zero_singular_value_is_cut_without_a_warning(monkeypatch):
    # a zero rank slice gives P an exactly zero singular value; the cut on
    # the products drops it, and the division by it warns about nothing
    A, b, fmt, p = _tt_with_left_slice(48, (6, 7, 6), lambda core: 0.0)
    P, _ = fmt.unfolding_factors(p.blocks, 1)
    assert engine._thin_svd(P)[1][-1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        structured, formed = _both_routes(monkeypatch, A, b, fmt, p, 1)
    assert structured[1].W_rank == formed[1].W_rank == 2 * 3 * 7
    assert _rel(structured[0].params[1], formed[0].params[1]) <= TOL
    assert _rel(structured[0].v.values, formed[0].v.values) <= TOL
    assert structured[1].f == pytest.approx(formed[1].f, rel=TOL)


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
        _step(A, b, fmt, p, 0)


def test_micro_step_rejects_non_finite_projected_system():
    class BrokenBlockApply(IdentityOperator):
        def apply_matrix(self, M):
            return np.full(np.shape(M), np.nan)

    shape = Shape((2, 3))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([np.ones(2), np.ones(3)])
    b = DenseTensor(shape, np.arange(1.0, 7.0))
    # from the identity's start state, only the block product is broken
    state = RunState.at(IdentityOperator(shape), b, fmt, p)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        micro_step(BrokenBlockApply(shape), b, fmt, state, 0)


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


@pytest.mark.parametrize(
    "value, shown",
    [(2.5, "2.5"), (True, "True"), (float("nan"), "nan"), (3.0, "3.0"), ("3", "'3'")],
)
def test_stop_rule_rejects_a_max_sweeps_that_is_not_an_integer(value, shown):
    # run would die in range() with a TypeError; the CLI's wording instead
    message = f"^max_sweeps must be an integer, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        StopRule(max_sweeps=value)


def test_stop_rule_takes_numpy_integers():
    for value in (np.int64(2), np.int32(2), np.uint8(2)):
        assert StopRule(max_sweeps=value).max_sweeps == 2
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        StopRule(max_sweeps=np.int64(0))
    shape = Shape((2, 3))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([np.ones(2), np.ones(3)])
    b = DenseTensor(shape, np.arange(1.0, 7.0))
    trace = run(IdentityOperator(shape), b, fmt, p, StopRule(max_sweeps=np.int64(2)))
    assert trace.sweeps == 2


def _sweep(grad_norm=1.0, degenerate=False):
    rec = MicroStepRecord(1, 0, -0.5, -0.1, grad_norm, 0 if degenerate else 1, 0.0, 1.0)
    return [rec, MicroStepRecord(1, 1, -0.5, 0.0, 0.0, 1, 0.0, 1.0)]


def test_stop_rule_termination_follows_the_reason_priority():
    stop = StopRule(max_sweeps=3, f_tol=1e-9, grad_tol=1e-6, angle_tol=1e-3)
    # every reason fires at once: the first in the priority order wins
    everything = (3, _sweep(grad_norm=0.0, degenerate=True), 0.0, 0.0)
    assert stop.termination(*everything) == "degenerate"
    assert stop.termination(3, _sweep(grad_norm=0.0), 0.0, 0.0) == "angle_small"
    assert stop.termination(3, _sweep(grad_norm=0.0), None, 0.0) == "grad_small"
    assert stop.termination(3, _sweep(), None, 0.0) == "f_stalled"
    assert stop.termination(3, _sweep(), None, 1.0) == "max_sweeps"
    assert stop.termination(2, _sweep(), None, 1.0) is None
    # the tolerances: f and grad inclusive, the angle strict and finite
    assert stop.termination(1, _sweep(grad_norm=1e-6), None, 1.0) == "grad_small"
    assert stop.termination(1, _sweep(), None, 1e-9) == "f_stalled"
    for tan in (1e-3, float("inf"), float("nan")):
        assert stop.termination(1, _sweep(), tan, 1.0) is None
    assert StopRule(max_sweeps=3).termination(1, _sweep(), 0.0, 1.0) is None  # angle test off


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"reference_factor": [np.nan, 1.0]}, "reference factor must be finite"),
        ({"reference_factor": [np.inf, 1.0]}, "reference factor must be finite"),
        ({"reference_factor": [0.0, 0.0]}, "reference factor must be nonzero"),
        (
            {"reference_factor": [0.0, 0.0], "reference": "target"},
            "reference factor must be nonzero",
        ),
        ({"reference": "zero"}, "reference must be nonzero"),
        ({"reference": "other shape"}, "incompatible shapes: reference vs target"),
    ],
    ids=["nan_factor", "inf_factor", "zero_factor", "zero_factor_and_tensor", "zero", "shape"],
)
def test_run_rejects_a_bad_reference_before_any_step(monkeypatch, kwargs, message):
    # a NaN factor ran to a trace of nan tangents; a zero one failed after a sweep
    instance = mohlenkamp_example(0.4)
    shape = instance.b.shape
    tensors = {
        "target": instance.b,
        "zero": DenseTensor.zeros(shape),
        "other shape": DenseTensor(Shape((2, 4)), np.ones(8)),
    }
    if "reference" in kwargs:
        kwargs = {**kwargs, "reference": tensors[kwargs["reference"]]}

    def refuse(*args, **kw):
        raise AssertionError("a micro-step ran")

    monkeypatch.setattr(engine, "micro_step", refuse)
    args = (instance.A, instance.b, instance.fmt, instance.init, StopRule(max_sweeps=2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(*args, **kwargs)


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

    It declares only what a factored format needs: the block axes (block
    mu is the m_mu x t_mu factor stored row-major, the (1, m_mu, t_mu)
    core) and the unfolding factors; the base class evaluates it.  Its one
    factor is the core contracted with every factor matrix but mu's, and
    with the identity for mode mu, unfolded along mode mu.
    """

    def __init__(self, core, dims):
        self.core = np.asarray(core, dtype=float)
        super().__init__(Shape(tuple(dims)), len(dims))

    def block_axes(self, mu):
        return 1, self.core.shape[mu]

    def unfolding_factors(self, blocks, mu):
        mats = [b.reshape(m, -1) for b, m in zip(blocks, self.shape.dims)]
        mats[mu] = np.eye(self.core.shape[mu])
        t = self.core
        for mat in mats:
            t = np.tensordot(t, mat, axes=(0, 1))
        t = np.moveaxis(t, mu, -1)
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


class FactorKronecker(SpdOperator):
    """A Kronecker product of SPD factors, declared from its own factors.

    It is not a ``ModeWiseOperator``: it applies itself with ``kron_apply``
    and solves with each factor's ``cho_factor``, and answers the three
    calls an operator with Kronecker structure answers.
    """

    variant = "kronecker"

    def __init__(self, factors):
        self.mats = [np.array(K, dtype=float) for K in factors]
        self.shape = Shape(tuple(len(K) for K in self.mats))
        self.verified = True
        self.chol = [cho_factor(0.5 * (K + K.T), lower=True) for K in self.mats]

    def apply_matrix(self, M):
        return kron_apply(self.mats, M)

    def mode_sides(self, mu):
        return self.mats[:mu], self.mats[mu + 1:]

    def mode_apply(self, mu, X):
        return self.mats[mu] @ X

    def mode_solve(self, mu, X):
        return cho_solve(self.chol[mu], X)


@pytest.mark.parametrize(
    "case", [c for c in ROUTE_CASES if c[3] == "modewise"], ids=lambda c: "-".join(map(str, c))
)
def test_an_operator_that_declares_its_factors_runs_as_the_modewise_one(monkeypatch, case):
    # cho_factor and cho_solve make the LAPACK calls ModeWiseOperator
    # makes, so the run is the same bit for bit, on the structured route
    # and with the run-start image taken from the blocks
    A, b, fmt, p = sized_problem(50, *case)
    want = run(A, b, fmt, p, StopRule(max_sweeps=2))
    mine = FactorKronecker(A.factors)
    real, routes = engine.local_solve, set()

    def recorded(*args):
        sol = real(*args)
        routes.add(sol.route)
        return sol

    monkeypatch.setattr(engine, "local_solve", recorded)
    calls = _count_applies(monkeypatch, FactorKronecker)
    got = run(mine, b, fmt, p, StopRule(max_sweeps=2))
    assert routes == {"structured"} and calls == []
    assert [dataclasses.astuple(r) for r in got.records] == [
        dataclasses.astuple(r) for r in want.records
    ]
    assert got.dist_a == want.dist_a
    assert np.array_equal(got.final_v.values, want.final_v.values)


def test_a_dense_operator_declares_no_structure(monkeypatch):
    A, b, fmt, p = _dense_problem()
    assert A.mode_sides(0) is None

    def refuse(*args):
        raise AssertionError("SVD of an unfolding factor")

    monkeypatch.setattr(engine, "_thin_svd", refuse)
    for mu in range(fmt.num_blocks):
        assert fmt.shape.size * fmt.block_dim(mu) ** 2 > engine.STRUCTURED_MIN_GRAM_FLOPS
        assert engine.structured_solve(A, b, fmt, p, mu, 1e-12) is None
        assert engine.local_solve(A, b, fmt, p, mu, 1e-12).route == "formed"


# each entry that takes a format with a target, or with an operator and a
# target, on a system whose modes are the format's permuted: N agrees
SHAPE_ENTRIES = {
    "formed_solve": lambda A, b, fmt, p: engine.formed_solve(A, b, fmt, p, 1, 1e-12),
    "structured_solve": lambda A, b, fmt, p: engine.structured_solve(A, b, fmt, p, 1, 1e-12),
    "local_solve": lambda A, b, fmt, p: engine.local_solve(A, b, fmt, p, 1, 1e-12),
    "recursion_check": lambda A, b, fmt, p: recursion_check(A, b, fmt, RecursionContext(2, 1, p)),
    "gradient_block": lambda A, b, fmt, p: gradient_block(A, b, fmt, p, 1),
    "full_gradient": lambda A, b, fmt, p: full_gradient(A, b, fmt, p),
    "run": lambda A, b, fmt, p: run(A, b, fmt, p, StopRule(max_sweeps=1)),
    "coupling": lambda A, b, fmt, p: engine.coupling(fmt, b, p, 1, 0, p[0]),
    "materialize_M": lambda A, b, fmt, p: materialize_M(fmt, b, p, 1, 0),
}
TARGET_ONLY = ("coupling", "materialize_M")


@pytest.mark.parametrize("route", ["formed", "structured"])
@pytest.mark.parametrize(
    "entry, wrong",
    [(e, "target") for e in SHAPE_ENTRIES]
    + [(e, "operator") for e in SHAPE_ENTRIES if e not in TARGET_ONLY],
)
def test_a_system_on_other_modes_is_rejected(monkeypatch, entry, wrong, route):
    threshold = 0.0 if route == "structured" else math.inf
    monkeypatch.setattr(engine, "STRUCTURED_MIN_GRAM_FLOPS", threshold)
    rng = np.random.default_rng(51)
    fmt = TtFormat(Shape((3, 4, 2)), (2, 2))
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    A = ModeWiseOperator([spd(rng, m) for m in (3, 4, 2)])
    b = DenseTensor(fmt.shape, rng.standard_normal(24))
    SHAPE_ENTRIES[entry](A, b, fmt, p)  # the right system runs
    if wrong == "target":
        b = DenseTensor(Shape((4, 3, 2)), b.values)
    else:
        A = ModeWiseOperator([spd(rng, m) for m in (4, 3, 2)])
    with pytest.raises(ValueError, match="incompatible shapes"):
        SHAPE_ENTRIES[entry](A, b, fmt, p)


# ---------------------------------------------------------------------------
# the mode-wise operator through the blocks of a factored format
#
# Each comparison is relative to the magnitudes of the summands, the same
# sums and products on absolute values (|A|, |blocks|, the Tucker core's
# |core|): the two sides add the same products in other orders, so they
# differ by a few rounding errors of those magnitudes, whatever cancels.


def _modewise_case(kind, dims, unit_mode, zero_block, seed):
    """A mode-wise operator and blocks of a CP, TT or fixed-core Tucker format on dims."""
    rng = np.random.default_rng(seed)
    dims = list(dims)
    if unit_mode is not None:
        dims[unit_mode % len(dims)] = 1
    shape = Shape(tuple(dims))
    if kind == "cp":
        fmt = CpFormat(shape, int(rng.integers(1, 4)))
    elif kind == "tt":
        fmt = TtFormat(shape, tuple(int(r) for r in rng.integers(1, 4, size=len(dims) - 1)))
    else:
        fmt = FixedCoreTucker(rng.standard_normal(rng.integers(1, 4, size=len(dims))), dims)
    blocks = [rng.standard_normal(fmt.block_dim(mu)) for mu in range(fmt.num_blocks)]
    if zero_block is not None:
        blocks[zero_block % len(blocks)][:] = 0.0
    return ModeWiseOperator([spd(rng, m) for m in dims]), fmt, ParamSystem(blocks)


def _magnitudes(fmt, p):
    """The format and blocks whose values are the magnitudes of fmt's summands at p."""
    if isinstance(fmt, FixedCoreTucker):
        fmt = FixedCoreTucker(np.abs(fmt.core), fmt.shape.dims)
    return fmt, ParamSystem([np.abs(block) for block in p.blocks])


modewise_cases = dict(
    kind=st.sampled_from(["cp", "tt", "tucker"]),
    dims=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    unit_mode=st.one_of(st.none(), st.integers(0, 3)),
    zero_block=st.one_of(st.none(), st.integers(0, 3)),
    seed=st.integers(0, 2**16),
)


@settings(deadline=None, max_examples=80)
@given(**modewise_cases)
def test_the_image_from_the_transformed_blocks_is_a_full_apply(kind, dims, unit_mode, zero_block, seed):
    A, fmt, p = _modewise_case(kind, dims, unit_mode, zero_block, seed)
    v = evaluate(fmt, p)
    want = A.apply(v).values
    b = DenseTensor(v.shape, np.ones(v.shape.size))  # the image does not read the target
    got = RunState.at(A, b, fmt, p).Av.values
    abs_fmt, abs_p = _magnitudes(fmt, p)
    scale = kron_apply([np.abs(K) for K in A.factors], evaluate(abs_fmt, abs_p).values[:, None])
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(scale)


@settings(deadline=None, max_examples=80)
@given(**modewise_cases)
def test_the_structured_image_is_a_full_apply_of_the_iterate(kind, dims, unit_mode, zero_block, seed):
    # the structured step's image is A_{!=mu} (x) K_mu applied to its kept
    # basis U (through each factor's singular vectors) times the
    # solution Y; A.apply takes it from the iterate, U Y.  U's
    # columns are some of the columns of Q, the Kronecker product of the
    # factors' left singular vectors, and Q^T (U Y) is Y on them and a
    # rounding error elsewhere, so |Q| |Q^T U Y| stands for |U| |Y|
    A, fmt, p = _modewise_case(kind, dims, unit_mode, zero_block, seed)
    b = DenseTensor(fmt.shape, np.random.default_rng(seed).standard_normal(fmt.shape.size))
    abs_factors = [np.abs(K) for K in A.factors]
    for mu in range(fmt.num_blocks):
        sol = engine.structured_solve(A, b, fmt, p, mu, EPS_RANK_DEFAULT)
        if sol.rank == 0:
            continue
        want = A.apply(DenseTensor(fmt.shape, sol.iterate)).values
        left, m = math.prod(fmt.shape.dims[:mu]), fmt.shape.dims[mu]
        Q = kron_all(
            [np.linalg.svd(f, full_matrices=False)[0] for f in fmt.unfolding_factors(p.blocks, mu)]
        )
        Y = Q.T @ unfold(sol.iterate, left, m).T
        scale = kron_apply(abs_factors, fold(np.abs(Y).T @ np.abs(Q).T, left, m)[:, None])
        assert np.linalg.norm(sol.image - want) <= 1e-14 * np.linalg.norm(scale)


@settings(deadline=None, max_examples=80)
@given(**modewise_cases)
def test_the_structured_maps_are_products_with_the_formed_W(kind, dims, unit_mode, zero_block, seed):
    # forward and adjoint contract in the tensor's own layout; W
    # assembles the Kronecker product of the same factors, so the two add
    # the same products in other orders: compared on |W| |q| and |W|^T |x|
    A, fmt, p = _modewise_case(kind, dims, unit_mode, zero_block, seed)
    rng = np.random.default_rng(seed)
    b = DenseTensor(fmt.shape, rng.standard_normal(fmt.shape.size))
    x = rng.standard_normal(fmt.shape.size)
    for mu in range(fmt.num_blocks):
        sol = engine.structured_solve(A, b, fmt, p, mu, EPS_RANK_DEFAULT)
        W = materialize_W(fmt, p, mu)
        q = rng.standard_normal(fmt.block_dim(mu))
        scale = np.linalg.norm(np.abs(W) @ np.abs(q))
        assert np.linalg.norm(sol.forward(q) - W @ q) <= 1e-14 * scale
        scale = np.linalg.norm(np.abs(W).T @ np.abs(x))
        assert np.linalg.norm(sol.adjoint(x) - W.T @ x) <= 1e-14 * scale


@settings(deadline=None, max_examples=80)
@given(**modewise_cases)
def test_the_gradient_is_a_product_with_the_formed_W(kind, dims, unit_mode, zero_block, seed):
    # each block of the gradient contracts the residual with the unfolding
    # factors, W^T r from the same products as the formed W: compared on
    # |W|^T |r| / <b, b>
    A, fmt, p = _modewise_case(kind, dims, unit_mode, zero_block, seed)
    b = DenseTensor(fmt.shape, np.random.default_rng(seed).standard_normal(fmt.shape.size))
    resid = b.values - A.apply(evaluate(fmt, p)).values
    b2 = inner(b, b)
    g = full_gradient(A, b, fmt, p)
    start = 0
    for mu in range(fmt.num_blocks):
        W = materialize_W(fmt, p, mu)
        block, start = g[start:start + W.shape[1]], start + W.shape[1]
        scale = np.linalg.norm(np.abs(W).T @ np.abs(resid)) / b2
        assert np.linalg.norm(block + W.T @ resid / b2) <= 1e-14 * scale
    assert start == g.size


def _refuse(what, test):
    def refuse(*args, **kwargs):
        if test(*args):
            raise AssertionError(what)
        return refuse.real(*args, **kwargs)

    return refuse


@pytest.mark.parametrize(
    "case", [c for c in ROUTE_CASES if c[0] == "tt"], ids=lambda c: "-".join(map(str, c))
)
def test_the_structured_route_forms_no_kronecker_basis_on_an_interior_core(monkeypatch, case):
    # an interior core's solve, its maps and the coupling work on the two
    # interfaces apart, reading the tensor in its own layout: no N-sized
    # copy through numpy's copying functions, no np.einsum, and at an
    # interior core no Kronecker product or other product with an array
    # of N / m_mu rows.  A patch on either module catches a helper
    # brought back
    A, b, fmt, p = sized_problem(75, *case)
    N = fmt.shape.size
    rng = np.random.default_rng(75)
    copies = {
        name: _refuse(f"N-sized {name}", lambda x, *_, **__: np.size(x) >= N)
        for name in ("array", "copy", "ascontiguousarray", "asfortranarray")
    }
    for mu in range(fmt.num_blocks):
        rows = N // fmt.shape.dims[mu]
        interior = 0 < mu < fmt.num_blocks - 1
        refusals = {
            "kron": _refuse("N / m rows", lambda a, b_: interior and len(a) * len(b_) >= rows),
            "kron_apply": _refuse("N / m rows", lambda factors, M: interior and len(M) >= rows),
        }
        with monkeypatch.context() as patch:
            for name, refuse in refusals.items():
                refuse.real = getattr(formats, name, None) or getattr(tensors, name)
                for module in (engine, formats):
                    patch.setattr(module, name, refuse, raising=False)
            for name, refuse in copies.items():
                refuse.real = getattr(np, name)
                patch.setattr(np, name, refuse)
            patch.setattr(np, "einsum", _refuse("np.einsum", lambda *_: True))
            sol = engine.structured_solve(A, b, fmt, p, mu, EPS_RANK_DEFAULT)
            q = rng.standard_normal(fmt.block_dim(mu))
            x = sol.forward(q)
            for image in (sol.adjoint(x), sol.gram_pinv(q), sol.energy_pinv(q)):
                assert image.shape == (fmt.block_dim(mu),)
            nu = mu - 1 if mu else 1
            assert engine.coupling(fmt, b, p, mu, nu, p[nu]).shape == (fmt.block_dim(mu),)
        assert sol.route == "structured" and sol.rank > 0 and x.shape == (N,)


@pytest.mark.parametrize("kind, rank", [("cp", 3), ("tt", (3, 3))])
def test_the_structured_adjoint_and_the_coupling_copy_no_tensor(kind, rank):
    # W^T x on the middle block reads x in its own (L, m, R) layout: at
    # N = 27000 neither the adjoint nor the coupling allocates half an
    # N-vector, where a transposed unfolding of x is all of one
    A, b, fmt, p = sized_problem(76, kind, (30, 30, 30), rank, "modewise")
    N = fmt.shape.size
    sol = engine.structured_solve(A, b, fmt, p, 1, EPS_RANK_DEFAULT)
    x = np.random.default_rng(76).standard_normal(N)
    for apply in (sol.adjoint, lambda x: engine.coupling(fmt, b, p, 1, 0, p[0])):
        apply(x)
        tracemalloc.start()
        try:
            apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * x.itemsize / 2
