"""Objective, gradients, angles, rate classification, monitors, replays."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import aslinearoperator

from alskit.diagnostics import (
    MicroStepRecord,
    RecursionContext,
    RunTrace,
    assumption_monitors,
    effective_window,
    full_gradient,
    gradient_block,
    materialize_M,
    objective,
    rate_estimate,
    recursion_check,
    recursion_contexts,
    stable_tangent,
    tangent_recursion,
)
from alskit import diagnostics, engine
from alskit.engine import StopRule, micro_step, run
from alskit.formats import CpFormat, MultilinearFormat, ParamSystem, materialize_W
from alskit.gallery import blambda_example, desilva_lim, mohlenkamp_example
from alskit.oracle import finite_diff_grad
from alskit.tensors import DenseOperator, DenseTensor, IdentityOperator, ModeWiseOperator, Shape
from alskit.verification import ROUTE_CASES, random_problem, sized_problem


def spd(rng, m):
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * rng.uniform(0.5, 2.0, size=m)) @ Q.T


# ---------------------------------------------------------------------------
# objective and gradients


def test_objective_normalization():
    shape = Shape((2,))
    A = IdentityOperator(shape)
    b = DenseTensor(shape, [2.0, 0.0])
    # v = b gives the normalized minimum -1/2 regardless of |b|
    assert objective(A, b, b) == pytest.approx(-0.5)
    assert objective(A, 10.0 * b, 10.0 * b) == pytest.approx(-0.5)
    assert objective(A, b, DenseTensor.zeros(shape)) == 0.0


def test_objective_rejects_zero_target():
    shape = Shape((2,))
    with pytest.raises(ValueError, match="zero target"):
        objective(IdentityOperator(shape), DenseTensor.zeros(shape), DenseTensor.zeros(shape))


def test_gradient_block_matches_finite_differences():
    rng = np.random.default_rng(41)
    shape = Shape((2, 3))
    fmt = CpFormat(shape, 2)
    A = ModeWiseOperator([spd(rng, m) for m in shape.dims])
    b = DenseTensor(shape, rng.standard_normal(6))
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(2)])
    for mu in range(2):
        got = gradient_block(A, b, fmt, p, mu)
        want = finite_diff_grad(A, b, fmt, p, mu)
        assert np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)) < 1e-6


def test_full_gradient_concatenates_blocks():
    rng = np.random.default_rng(42)
    shape = Shape((2, 2))
    fmt = CpFormat(shape, 1)
    A = IdentityOperator(shape)
    b = DenseTensor(shape, rng.standard_normal(4))
    p = ParamSystem([rng.standard_normal(2), rng.standard_normal(2)])
    g = full_gradient(A, b, fmt, p)
    assert g.size == 4
    assert np.array_equal(g[:2], gradient_block(A, b, fmt, p, 0))
    assert np.array_equal(g[2:], gradient_block(A, b, fmt, p, 1))


# ---------------------------------------------------------------------------
# angles


def _cosine_tangent(ref, v):
    # the textbook cosine formula, as a reference for stable_tangent
    ref, v = np.asarray(ref, dtype=float), np.asarray(v, dtype=float)
    cos = float(ref @ v) / (np.linalg.norm(ref) * np.linalg.norm(v))
    return float(np.sqrt(1.0 - cos * cos) / abs(cos))


def test_stable_tangent_basic_values():
    e1 = [1.0, 0.0]
    assert stable_tangent(e1, e1) == 0.0
    assert stable_tangent(e1, [1.0, 1.0]) == pytest.approx(1.0, rel=1e-12)
    # antipodal counts as aligned (angle to the line, not the ray)
    assert stable_tangent(e1, [-1.0, 0.0]) == 0.0


def test_stable_tangent_rejects_zero_vectors():
    with pytest.raises(ValueError, match="zero vector"):
        stable_tangent([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="zero vector"):
        stable_tangent([1.0, 0.0], [0.0, 0.0])


def test_stable_tangent_resolves_tiny_angles():
    # at tan = 1e-9 the cosine rounds to 1 and the cosine formula reports 0;
    # the orthogonal split keeps full precision
    ref = [1.0, 0.0]
    v = [1.0, 1e-9]
    assert stable_tangent(ref, v) == pytest.approx(1e-9, rel=1e-6)
    assert _cosine_tangent(ref, v) == 0.0


def test_stable_tangent_matches_cos_route_at_moderate_angles():
    rng = np.random.default_rng(44)
    for _ in range(10):
        ref = rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert stable_tangent(ref, v) == pytest.approx(_cosine_tangent(ref, v), rel=1e-6)


def test_stable_tangent_orthogonal_is_inf():
    assert stable_tangent([1.0, 0.0], [0.0, 2.0]) == float("inf")


@settings(deadline=None, max_examples=25)
@given(scale=st.floats(0.001, 1000.0), seed=st.integers(0, 2**16))
def test_stable_tangent_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(5)
    v = rng.standard_normal(5)
    base = stable_tangent(ref, v)
    assert stable_tangent(ref, scale * v) == pytest.approx(base, rel=1e-9)
    assert stable_tangent(scale * ref, v) == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# rate estimation


def test_effective_window_clamps():
    assert effective_window(15, 10) == 10
    assert effective_window(11, 10) == 10
    assert effective_window(5, 10) == 4
    assert effective_window(2, 10) == 1
    assert effective_window(1, 10) == 1
    assert effective_window(8, 3) == 3


def test_rate_estimate_geometric_series_is_linear():
    est = rate_estimate([0.9**k for k in range(15)])
    assert est.classification == "linear"
    assert est.q_hat == pytest.approx(0.9, abs=1e-12)
    assert len(est.ratios) == 14
    assert not est.converged_exactly


def test_rate_estimate_superlinear():
    ratios = [0.009 * 0.8**k for k in range(11)]
    tangents = [1.0]
    for r in ratios:
        tangents.append(tangents[-1] * r)
    est = rate_estimate(tangents)
    assert est.classification == "superlinear"
    assert est.q_hat < 0.01


def test_rate_estimate_sublinear():
    est = rate_estimate([0.999**k for k in range(20)])
    assert est.classification == "sublinear"
    assert est.q_hat > 0.99


def test_rate_estimate_inconclusive_on_oscillation():
    tangents = [1.0]
    for k in range(12):
        tangents.append(tangents[-1] * (0.3 if k % 2 == 0 else 0.6))
    est = rate_estimate(tangents)
    assert est.classification == "inconclusive"


def test_rate_estimate_zero_truncates_short_series():
    est = rate_estimate([0.1, 0.0, 0.5])
    assert est.converged_exactly
    assert est.classification == "superlinear"
    assert est.q_hat == 0.0
    assert est.ratios == ()


def test_rate_estimate_zero_after_long_prefix_keeps_classification():
    est = rate_estimate([0.9**k for k in range(12)] + [0.0])
    assert est.converged_exactly
    assert est.classification == "linear"
    assert est.q_hat == pytest.approx(0.9, abs=1e-12)


def test_rate_estimate_ignores_the_rounding_floor():
    # q-linear at 0.0507 down to ~1e-16, then ten entries of noise at the
    # rounding floor; the noise ratios (~1) must not become the rate
    resolved = [0.0595 * 0.0507**k for k in range(12)]
    noise = [2e-16 * (1.0 + 0.1 * (k % 3)) for k in range(10)]
    series = resolved + noise
    est = rate_estimate(series, window=effective_window(len(series), 10))
    assert est.classification == "linear"
    assert abs(est.q_hat - 0.0507) < 1e-3
    assert len(est.ratios) == 10  # cut after the first entry <= 1e-14
    assert not est.converged_exactly


def test_rate_estimate_floor_as_last_entry_changes_nothing():
    series = [0.5**k for k in range(12)] + [1e-15]
    est = rate_estimate(series)
    assert len(est.ratios) == 12 and est.window == 10
    assert est.q_hat == 0.5
    assert est.classification == "inconclusive"  # the last ratio is an outlier


def test_rate_estimate_floor_cut_shrinks_the_window():
    series = [1e-2, 1e-5, 1e-11, 1e-20] + [3e-16] * 10
    est = rate_estimate(series, window=effective_window(len(series), 10))
    assert est.window == 3
    assert est.ratios == pytest.approx((1e-3, 1e-6, 1e-9))
    assert est.classification == "superlinear"


def test_rate_estimate_validation():
    with pytest.raises(ValueError, match="window"):
        rate_estimate([1.0, 0.5], window=0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        rate_estimate([1.0, float("inf"), 0.5])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        rate_estimate([1.0, -0.5])
    with pytest.raises(ValueError, match="too short"):
        rate_estimate([1.0, 0.5, 0.25])


def test_rate_estimate_narrow_window():
    est = rate_estimate([0.5**k for k in range(4)], window=2)
    assert est.window == 2
    assert est.classification == "linear"
    assert est.q_hat == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# monitors


def _trace_with_ranks(ranks_by_sweep, pmax_by_sweep, init_pmax=1.0):
    records = [
        MicroStepRecord(
            sweep=k + 1,
            mu=0,
            f=-float(k),
            decrement=-1.0,
            grad_norm=0.1,
            W_rank=rank,
            resid_orth=0.0,
            param_norm_max=pmax,
        )
        for k, (rank, pmax) in enumerate(zip(ranks_by_sweep, pmax_by_sweep))
    ]
    dummy = DenseTensor(Shape((1,)), [1.0])
    return RunTrace(
        records=records,
        termination="max_sweeps",
        sweeps=len(records),
        angle_mode="none",
        initial_f=0.0,
        initial_param_norm_max=init_pmax,
        sweep_f=[rec.f for rec in records],
        sweep_tangent=[None] * len(records),
        dist_a=[1.0 / (k + 1) for k in range(len(records))],
        final_params=ParamSystem([[1.0]]),
        final_v=dummy,
    )


def test_monitors_growth_threshold_logic():
    trace = _trace_with_ranks([2, 2, 2], [1.0, 3.0, 2.0])
    report = assumption_monitors(trace, growth_threshold=2.5)
    assert report.growth_ratio == pytest.approx(3.0)
    assert report.unbounded_suspect
    assert "unbounded-suspect" in report.flags
    calm = assumption_monitors(trace, growth_threshold=10.0)
    assert not calm.unbounded_suspect
    assert calm.flags == ()


def test_monitors_detect_rank_drift():
    trace = _trace_with_ranks([2, 2, 1, 1], [1.0, 1.0, 1.0, 1.0])
    report = assumption_monitors(trace)
    assert "rank-drift" in report.flags
    assert report.rank_sequences == {0: (2, 2, 1, 1)}
    stable = assumption_monitors(_trace_with_ranks([2, 2, 2], [1.0, 1.0, 1.0]))
    assert "rank-drift" not in stable.flags


def test_monitors_on_real_unbounded_run():
    instance = desilva_lim(2)
    trace = run(
        instance.A, instance.b, instance.fmt, instance.init, StopRule(max_sweeps=30)
    )
    report = assumption_monitors(trace, growth_threshold=1.01)
    assert report.unbounded_suspect
    assert report.growth_ratio == pytest.approx(1.1665530422941506, rel=1e-9)
    assert assumption_monitors(trace).unbounded_suspect is False
    assert all(len(seq) == 30 for seq in report.rank_sequences.values())


def test_monitors_dist_a_monotone_flagging():
    instance = mohlenkamp_example(0.4)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=4),
        reference_factor=instance.reference_factor,
    )
    # the energy-norm steps between sweep iterates shrink on this instance
    dist = trace.dist_a
    assert all(b <= a * (1.0 + 1e-12) + 1e-300 for a, b in zip(dist, dist[1:]))


# ---------------------------------------------------------------------------
# couplings


def test_materialize_M_is_transpose_symmetric():
    instance = blambda_example(0.3, n=4, seed=11)
    M01 = materialize_M(instance.fmt, instance.b, instance.init, 0, 1)
    M10 = materialize_M(instance.fmt, instance.b, instance.init, 1, 0)
    assert M01.shape == (4, 4)
    assert np.max(np.abs(M01 - M10.T)) < 1e-12


def test_materialize_M_rejects_equal_blocks():
    instance = blambda_example(0.3, n=4, seed=11)
    with pytest.raises(ValueError, match="distinct blocks"):
        materialize_M(instance.fmt, instance.b, instance.init, 1, 1)


def _custom_tucker_problem(seed):
    # a custom format with no unfolding factors: a fixed core times one
    # factor matrix per mode, each factor a block
    rng = np.random.default_rng(seed)
    dims, core_dims = (3, 4, 3), (2, 2, 3)
    core = rng.standard_normal(core_dims)

    def tucker(blocks):
        t = core
        for block, m, c in zip(blocks, dims, core_dims):
            t = np.tensordot(t, block.reshape(m, c), axes=(0, 1))
        return t.ravel()

    shape = Shape(dims)
    fmt = MultilinearFormat(shape, [m * c for m, c in zip(dims, core_dims)], tucker)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(fmt.num_blocks)])
    b = DenseTensor(shape, rng.standard_normal(shape.size))
    return ModeWiseOperator([spd(rng, m) for m in dims]), b, fmt, p


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(["cp", "tt", "custom"]), seed=st.integers(0, 2**16))
def test_coupling_map_is_the_probed_coupling_matrix(kind, seed):
    if kind == "custom":
        A, b, fmt, p = _custom_tucker_problem(seed)
    else:
        A, b, fmt, p = random_problem(seed, kind=kind)
    rng = np.random.default_rng(seed)
    mu, nu = rng.choice(fmt.num_blocks, size=2, replace=False)
    x = rng.standard_normal(fmt.block_dim(nu))
    M = materialize_M(fmt, b, p, mu, nu)
    got = engine.coupling(fmt, b, p, mu, nu, x)
    assert np.linalg.norm(got - M @ x) <= 1e-13 * np.linalg.norm(M) * np.linalg.norm(x)


def test_coupling_map_rejects_equal_blocks():
    instance = blambda_example(0.3, n=4, seed=11)
    with pytest.raises(ValueError, match="distinct blocks"):
        engine.coupling(instance.fmt, instance.b, instance.init, 1, 1, np.ones(4))


@pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "past_the_end"])
def test_coupling_rejects_a_block_index_out_of_range(bad):
    # block -1 would alias block 2, and block 3 is past the end
    rng = np.random.default_rng(12)
    fmt = CpFormat(Shape((10, 10, 10)), 1)
    p = ParamSystem([rng.standard_normal(10) for _ in range(3)])
    b = DenseTensor(fmt.shape, rng.standard_normal(fmt.shape.size))
    message = re.escape(f"block index {bad} out of range [0, 3)")
    for mu, nu in ((2, bad), (bad, 0)):
        with pytest.raises(ValueError, match=message):
            materialize_M(fmt, b, p, mu, nu)
        with pytest.raises(ValueError, match=message):
            engine.coupling(fmt, b, p, mu, nu, np.ones(10))


# ---------------------------------------------------------------------------
# step-pair replays


def test_recursion_context_validation():
    p = ParamSystem([[1.0, 0.0]])
    with pytest.raises(ValueError, match="sweep >= 2"):
        RecursionContext(sweep=1, mu=1, params=p)
    with pytest.raises(ValueError, match="mu >= 1"):
        RecursionContext(sweep=2, mu=0, params=p)


def test_recursion_check_defect_is_tiny_on_rank_one_instance():
    instance = blambda_example(0.3, n=4, seed=11)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=4),
        reference=instance.reference,
        reference_factor=instance.reference_factor,
        keep_params=True,
    )
    contexts = list(recursion_contexts(trace))
    assert len(contexts) == 2 * (trace.sweeps - 1)
    report = recursion_check(instance.A, instance.b, instance.fmt, contexts[0])
    assert report.defect < 1e-10
    assert report.transfer.shape == (64, 64)
    # scipy's iterative solvers take the map as it is
    linear = aslinearoperator(report.transfer)
    assert linear.dtype == np.float64
    assert np.array_equal(linear @ report.v_mid.values, report.transfer @ report.v_mid.values)
    # the transfer map actually takes the mid iterate to the next one
    assert np.allclose(
        report.transfer @ report.v_mid.values, report.v_next.values, atol=1e-10
    )


def test_recursion_check_runs_past_the_former_size_cap():
    # the transfer map is matrix-free, so N = 343 (once above the cap of
    # 256) replays like any other size
    instance = blambda_example(0.3, n=7, seed=11)
    ctx = RecursionContext(sweep=2, mu=1, params=instance.init)
    report = recursion_check(instance.A, instance.b, instance.fmt, ctx)
    assert report.transfer.shape == (343, 343)
    assert report.defect < 1e-10


def _replay_problem(name):
    if name == "blambda":
        bl = blambda_example(0.3, n=4, seed=11)
        return bl.A, bl.b, bl.fmt, bl.init
    if name == "tt_modewise":
        return random_problem(3, kind="tt", operator="modewise")
    _, b, fmt, p = random_problem(4, kind="cp", operator="identity")
    return DenseOperator(fmt.shape, spd(np.random.default_rng(4), fmt.shape.size)), b, fmt, p


@pytest.mark.parametrize("name", ["blambda", "tt_modewise", "cp_dense"])
def test_replay_iterates_are_the_committed_micro_steps(name):
    A, b, fmt, init = _replay_problem(name)
    trace = run(A, b, fmt, init, StopRule(max_sweeps=3), keep_params=True)
    contexts = list(recursion_contexts(trace))
    assert contexts
    for ctx in contexts:
        report = recursion_check(A, b, fmt, ctx)
        p_mid, v_mid, _, _ = micro_step(A, b, fmt, ctx.params, ctx.mu - 1)
        _, v_next, _, _ = micro_step(A, b, fmt, p_mid, ctx.mu)
        assert np.array_equal(report.v_mid.values, v_mid.values)
        assert np.array_equal(report.v_next.values, v_next.values)


@pytest.mark.parametrize("n", [4, 6])
def test_replay_solves_each_block_once(monkeypatch, n):
    # one W and one basis per solve, whatever the block dimension: the
    # coupling is one contraction, not a probe per parameter of block mu-1
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("lowdin_basis", "materialize_W", "micro_step"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    monkeypatch.setattr(diagnostics, "materialize_W", counting("materialize_W", materialize_W))
    instance = blambda_example(0.3, n=n, seed=11)
    ctx = RecursionContext(2, 1, instance.init)
    report = recursion_check(instance.A, instance.b, instance.fmt, ctx)
    report.transfer @ report.v_mid.values
    assert sorted(calls) == ["lowdin_basis"] * 2 + ["materialize_W"] * 2


def _dense_transfer(A, b, fmt, ctx):
    """N = W_mu G^+ M H^+ W_{mu-1}^T from materialize_W, materialize_M and np.linalg.pinv."""
    mu = ctx.mu
    W0 = materialize_W(fmt, ctx.params, mu - 1)
    K0 = W0.T @ A.apply_matrix(W0)
    p1 = ctx.params.replace(mu - 1, np.linalg.pinv(K0, hermitian=True) @ (W0.T @ b.values))
    W1 = materialize_W(fmt, p1, mu)
    G_pinv = np.linalg.pinv(W1.T @ A.apply_matrix(W1), hermitian=True)
    H_pinv = np.linalg.pinv(W0.T @ W0, hermitian=True)
    M = materialize_M(fmt, b, p1, mu, mu - 1)
    return W1 @ G_pinv @ M @ H_pinv @ W0.T, (W0, W1)


TRANSFER_CASES = {
    "cp": lambda: sized_problem(70, "cp", (4, 3, 5), 2),
    "tt": lambda: sized_problem(71, "tt", (3, 4, 3), (2, 3)),
    "custom": lambda: _custom_tucker_problem(70),
    "structured": lambda: sized_problem(72, *ROUTE_CASES[3]),
}


@pytest.mark.parametrize("name", list(TRANSFER_CASES))
def test_transfer_map_is_the_dense_transfer_matrix(name):
    A, b, fmt, p = TRANSFER_CASES[name]()
    route = "structured" if name == "structured" else "formed"
    assert {engine.local_solve(A, b, fmt, p, mu, 1e-12).route for mu in range(3)} == {route}
    rng = np.random.default_rng(73)
    for mu in (1, 2):
        ctx = RecursionContext(2, mu, p)
        report = recursion_check(A, b, fmt, ctx)
        N, blocks_W = _dense_transfer(A, b, fmt, ctx)
        # both sides take Gram pseudo-inverses, which err by ~cond(W)^2 u
        assert all(np.linalg.cond(W) < 100 for W in blocks_W)
        assert report.transfer.shape == N.shape
        for _ in range(3):
            v = rng.standard_normal(fmt.shape.size)
            want = N @ v
            assert np.linalg.norm(report.transfer @ v - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["cp", "structured"])
def test_transfer_map_takes_exactly_a_flat_tensor(name):
    A, b, fmt, p = TRANSFER_CASES[name]()
    assert engine.local_solve(A, b, fmt, p, 1, 1e-12).route == ("formed" if name == "cp" else name)
    transfer = recursion_check(A, b, fmt, RecursionContext(2, 1, p)).transfer
    n = fmt.shape.size
    for shape in [(n, 1), (1, n), (2, n), (n - 1,), (n + 1,), ()]:
        with pytest.raises(ValueError, match=re.escape(f"takes shape ({n},), got shape {shape}")):
            transfer @ np.ones(shape)
    # scipy's wrapper hands matvec columns of shape (n, 1)
    linear = aslinearoperator(transfer)
    V = np.random.default_rng(75).standard_normal((n, 3))
    want = np.column_stack([transfer @ v for v in V.T])
    assert np.array_equal(linear.matvec(V[:, 0]), want[:, 0])
    assert np.linalg.norm(linear.matmat(V) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_structured_replay_forms_no_W(monkeypatch, case):
    A, b, fmt, p = sized_problem(74, *case)
    trace = run(A, b, fmt, p, StopRule(max_sweeps=2), keep_params=True)

    def refuse(*args, **kwargs):
        raise AssertionError("W formed")

    for module in (engine, diagnostics):
        monkeypatch.setattr(module, "materialize_W", refuse)
    monkeypatch.setattr(engine, "lowdin_basis", refuse)
    for ctx in recursion_contexts(trace):
        report = recursion_check(A, b, fmt, ctx)
        assert report.defect < 1e-10
        tangent_recursion(report.transfer, b.values, report.v_mid.values)


@pytest.mark.parametrize(
    "blocks",
    [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
    ids=["frozen_zero_block", "zero_first_update"],
)
def test_degenerate_step_pair_is_rejected(blocks):
    shape = Shape((2, 2))
    b = DenseTensor(shape, np.kron([1.0, 0.0], [0.0, 1.0]))
    ctx = RecursionContext(2, 1, ParamSystem(blocks))
    with pytest.raises(ValueError, match="degenerate micro-step in recursion context"):
        recursion_check(IdentityOperator(shape), b, CpFormat(shape, 1), ctx)


def test_tangent_recursion_factorization():
    instance = blambda_example(0.3, n=4, seed=11)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=3),
        reference=instance.reference,
        reference_factor=instance.reference_factor,
        keep_params=True,
    )
    ctx = next(iter(recursion_contexts(trace)))
    report = recursion_check(instance.A, instance.b, instance.fmt, ctx)
    tr = tangent_recursion(report.transfer, instance.reference.values, report.v_mid.values)
    assert tr.tan_predicted == pytest.approx(tr.tan_out, rel=1e-12)
    assert tr.tan_out == pytest.approx(
        stable_tangent(instance.reference.values, report.transfer @ report.v_mid.values),
        rel=1e-12,
    )
    assert tr.q_s > 0.0 and tr.q_c > 0.0


# ---------------------------------------------------------------------------
# trace series helpers


def test_trace_tangent_ratios_skip_undefined_pairs():
    dummy = DenseTensor(Shape((1,)), [1.0])
    trace = RunTrace(
        records=[],
        termination="max_sweeps",
        sweeps=4,
        angle_mode="factor",
        initial_f=0.0,
        initial_param_norm_max=1.0,
        sweep_f=[-0.1, -0.2, -0.3, -0.4],
        sweep_tangent=[0.4, 0.2, None, 0.05],
        dist_a=[1.0, 1.0, 1.0, 1.0],
        final_params=ParamSystem([[1.0]]),
        final_v=dummy,
    )
    ratios = trace.tangent_ratios()
    assert ratios[0] is None
    assert ratios[1] == pytest.approx(0.5)
    assert ratios[2] is None  # current tangent missing
    assert ratios[3] is None  # previous tangent missing
    assert trace.tangent_series() == [0.4, 0.2, 0.05]
