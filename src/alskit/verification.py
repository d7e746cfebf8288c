"""Self-check registry: every documented invariant as a runnable check.

Each check returns (ok, detail) and is registered under a stable name;
the CLI's verify command runs them all and reports one line per check.
Checks deliberately reach the solver through the module attribute
(``engine.micro_step``) so fault-injection tests can intercept it.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine, gallery, oracle
from .diagnostics import (
    EPS_RANK_DEFAULT,
    RunTrace,
    assumption_monitors,
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
from .formats import (
    CpFormat,
    ParamSystem,
    TensorFormat,
    TtFormat,
    evaluate,
    materialize_W,
    probe_map,
)
from .tensors import (
    DenseTensor,
    IdentityOperator,
    ModeWiseOperator,
    Shape,
    SpdOperator,
    a_norm,
    inner,
)


def random_spd_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    """Seeded SPD matrix with spectrum in [0.5, 2]."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * rng.uniform(0.5, 2.0, size=m)) @ Q.T


def random_problem(
    seed: int, kind: str | None = None, operator: str = "modewise"
) -> tuple[SpdOperator, DenseTensor, TensorFormat, ParamSystem]:
    """Seeded small problem: d in 2..4, mode sizes 2..4, ranks 1..3."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    dims = tuple(int(x) for x in rng.integers(2, 5, size=d))
    shape = Shape(dims)
    if kind is None:
        kind = "cp" if rng.random() < 0.5 else "tt"
    if kind == "cp":
        fmt: TensorFormat = CpFormat(shape, int(rng.integers(1, 4)))
    elif kind == "tt":
        ranks = tuple(int(x) for x in rng.integers(1, 4, size=d - 1))
        fmt = TtFormat(shape, ranks)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    A, b, blocks = _draw_problem(rng, fmt, operator)
    return A, b, fmt, ParamSystem(blocks)


def _random_operator(rng: np.random.Generator, shape: Shape, operator: str) -> SpdOperator:
    if operator == "identity":
        return IdentityOperator(shape)
    if operator == "modewise":
        return ModeWiseOperator([random_spd_matrix(rng, m) for m in shape.dims])
    raise ValueError(f"unknown operator kind {operator!r}")


def _draw_problem(rng: np.random.Generator, fmt: TensorFormat, operator: str):
    """(A, b, blocks) drawn in the one order of the seeded problems: blocks, target, operator."""
    blocks = [rng.standard_normal(fmt.block_dim(mu)) for mu in range(fmt.num_blocks)]
    b = DenseTensor(fmt.shape, rng.standard_normal(fmt.shape.size))
    return _random_operator(rng, fmt.shape, operator), b, blocks


def sized_problem(
    seed: int, kind: str, dims, rank, operator: str = "modewise", duplicate: bool = False
) -> tuple[SpdOperator, DenseTensor, TensorFormat, ParamSystem]:
    """Seeded problem with the given CP or TT format and operator kind.

    With ``duplicate`` the first two columns of every CP factor are equal,
    so every W has exactly duplicated columns.
    """
    rng = np.random.default_rng(seed)
    shape = Shape(tuple(dims))
    fmt = CpFormat(shape, rank) if kind == "cp" else TtFormat(shape, rank)
    A, b, blocks = _draw_problem(rng, fmt, operator)
    if duplicate:
        for block, m in zip(blocks, dims):
            mat = block.reshape((m, rank), order="F")
            mat[:, 1] = mat[:, 0]
    return A, b, fmt, ParamSystem(blocks)


# Systems above the route threshold of engine.local_solve, so that their
# default route is the structured one: (kind, dims, rank, operator,
# duplicate).  The TT ranks are minimal.
ROUTE_CASES = (
    ("cp", (8, 8, 8), 3, "identity", False),
    ("cp", (8, 8, 8), 3, "modewise", False),
    ("tt", (8, 8, 8), (3, 3), "identity", False),
    ("tt", (7, 8, 6), (3, 4), "modewise", False),
    ("cp", (8, 8, 6), 3, "modewise", True),
)


def rank_deficient_problem(
    seed: int,
) -> tuple[SpdOperator, DenseTensor, TensorFormat, ParamSystem]:
    """CP problem whose every W has exactly duplicated columns."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    dims = tuple(int(x) for x in rng.integers(2, 5, size=d))
    shape = Shape(dims)
    r = int(rng.integers(2, 4))
    fmt = CpFormat(shape, r)
    A, b, blocks = _draw_problem(rng, fmt, "modewise")
    for mu, m in enumerate(dims):
        mat = blocks[mu].reshape(m, r)  # the factor as drawn, row by row
        mat[:, 1] = mat[:, 0]  # exact duplicate forces a kernel in every W
        blocks[mu] = mat.ravel(order="F")
    return A, b, fmt, ParamSystem(blocks)


# ---------------------------------------------------------------------------
# individual checks


def check_inner_bilinearity(trials: int = 20):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(trials):
        shape = Shape(tuple(int(x) for x in rng.integers(2, 5, size=3)))
        u = DenseTensor(shape, rng.standard_normal(shape.size))
        v = DenseTensor(shape, rng.standard_normal(shape.size))
        w = DenseTensor(shape, rng.standard_normal(shape.size))
        al, be = rng.standard_normal(2)
        lhs = inner(al * u + be * v, w)
        rhs = al * inner(u, w) + be * inner(v, w)
        scale = max(1.0, abs(lhs))
        worst = max(worst, abs(lhs - rhs) / scale, abs(inner(u, v) - inner(v, u)))
    return worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def check_modewise_dense_equivalence(trials: int = 10):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(trials):
        dims = tuple(int(x) for x in rng.integers(2, 4, size=int(rng.integers(2, 4))))
        shape = Shape(dims)
        mats = [random_spd_matrix(rng, m) for m in dims]
        A = ModeWiseOperator(mats)
        K = mats[0]
        for mat in mats[1:]:
            K = np.kron(K, mat)
        v = DenseTensor(shape, rng.standard_normal(shape.size))
        got = A.apply(v).values
        want = K @ v.values
        worst = max(worst, np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))
    return worst <= 1e-12, f"max relative deviation {worst:.2e} (tol 1e-12)"


def check_energy_norm(trials: int = 20):
    rng = np.random.default_rng(103)
    for _ in range(trials):
        dims = tuple(int(x) for x in rng.integers(2, 4, size=2))
        shape = Shape(dims)
        A = ModeWiseOperator([random_spd_matrix(rng, m) for m in dims])
        v = DenseTensor(shape, rng.standard_normal(shape.size))
        if a_norm(A, v) <= 0 and v.norm() > 0:
            return False, "energy norm vanished on a nonzero vector"
        if a_norm(A, DenseTensor.zeros(shape)) != 0.0:
            return False, "energy norm nonzero on the zero vector"
    return True, f"positive on {trials} seeded nonzero vectors, zero at zero"


def check_format_multilinearity(trials: int = 20):
    rng = np.random.default_rng(104)
    worst = 0.0
    for t in range(trials):
        _, _, fmt, p = random_problem(200 + t, operator="identity")
        mu = int(rng.integers(0, fmt.num_blocks))
        x = rng.standard_normal(fmt.block_dim(mu))
        y = rng.standard_normal(fmt.block_dim(mu))
        al, be = rng.standard_normal(2)
        lhs = evaluate(fmt, p.replace(mu, al * x + be * y)).values
        rhs = al * evaluate(fmt, p.replace(mu, x)).values + be * evaluate(
            fmt, p.replace(mu, y)
        ).values
        scale = max(1.0, np.max(np.abs(lhs)))
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    return worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def check_factorization_identity(trials: int = 20):
    # W(p) @ p_mu reproduces the full evaluation for every block
    worst = 0.0
    for t in range(trials):
        _, _, fmt, p = random_problem(300 + t, operator="identity")
        v = evaluate(fmt, p).values
        for mu in range(fmt.num_blocks):
            W = materialize_W(fmt, p, mu)
            dev = np.max(np.abs(W @ p[mu] - v)) / max(1.0, np.max(np.abs(v)))
            worst = max(worst, dev)
    return worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def check_cp_rescaling_invariance():
    rng = np.random.default_rng(105)
    shape = Shape((3, 4, 2))
    fmt = CpFormat(shape, 2)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    al = 3.5
    m0 = fmt.factor_matrix(p, 0).copy()
    m1 = fmt.factor_matrix(p, 1).copy()
    m0[:, 1] *= al
    m1[:, 1] /= al
    q = p.replace(0, m0.ravel(order="F")).replace(1, m1.ravel(order="F"))
    dev = np.max(np.abs(evaluate(fmt, p).values - evaluate(fmt, q).values))
    return dev <= 1e-12, f"rescaled representative deviates by {dev:.2e} (tol 1e-12)"


def check_tt_against_direct_contraction():
    rng = np.random.default_rng(106)
    shape = Shape((2, 3, 2, 2))
    fmt = TtFormat(shape, (2, 3, 2))
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(4)])
    cores = [fmt.core(p, mu) for mu in range(4)]
    got = evaluate(fmt, p).as_array()
    worst = 0.0
    for idx in np.ndindex(*shape.dims):
        mat = cores[0][:, idx[0], :]
        for mu in range(1, 4):
            mat = mat @ cores[mu][:, idx[mu], :]
        worst = max(worst, abs(float(mat[0, 0]) - got[idx]))
    return worst <= 1e-12, f"max entry deviation {worst:.2e} (tol 1e-12)"


def _relative_deviation(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.linalg.norm(want)
    diff = np.linalg.norm(got - want)
    return float(diff / scale) if scale > 0.0 else float(diff)


def check_structured_vs_probe(trials: int = 20):
    # CP/TT local maps against probe_map, the batched mode-wise apply
    # against the dense Kronecker product of its factors, the structured
    # local solve against the formed one, the image A @ iterate each route
    # returns against a full apply, and a 2-sweep run's dist_a,
    # taken from the carried images, against a_norm(A, v - v_prev)
    rng = np.random.default_rng(108)
    cp_mismatch = 0
    worst_tt = 0.0
    worst_apply = 0.0
    for t in range(trials):
        d = 1 + t % 4
        dims = [int(x) for x in rng.integers(1, 5, size=d)]
        dims[int(rng.integers(0, d))] = 1  # a mode of size 1
        shape = Shape(tuple(dims))
        cp = CpFormat(shape, int(rng.integers(1, 4)))
        tt = TtFormat(shape, tuple(int(x) for x in rng.integers(1, 4, size=d - 1)))
        for fmt in (cp, tt):
            blocks = [rng.standard_normal(fmt.block_dim(mu)) for mu in range(d)]
            if d > 1 and t % 3 == 0:
                blocks[int(rng.integers(0, d))][:] = 0.0  # rank-deficient W
            for mu in range(d):
                got = fmt.local_map(blocks, mu)
                want = probe_map(fmt, blocks, mu)
                if fmt is cp:
                    cp_mismatch += not np.array_equal(got, want)
                else:
                    worst_tt = max(worst_tt, _relative_deviation(got, want))
        A = ModeWiseOperator([random_spd_matrix(rng, m) for m in dims])
        M = rng.standard_normal((shape.size, int(rng.integers(1, 7))))
        K = functools.reduce(np.kron, A.factors)
        worst_apply = max(worst_apply, _relative_deviation(A.apply_matrix(M), K @ M))
    blocks_solved = rank_mismatch = formed_default = 0
    worst_solve = worst_image = worst_formed_image = worst_dist = 0.0
    for A, b, fmt, trace in _route_case_traces(sweeps=2, seed=110):
        p = trace.param_snapshots[0]
        params = trace.param_snapshots[:: fmt.num_blocks] + [trace.final_params]
        vs = [evaluate(fmt, q) for q in params]
        want = [a_norm(A, v - v_prev) for v_prev, v in zip(vs, vs[1:])]
        worst_dist = max(worst_dist, _relative_deviation(np.array(trace.dist_a), np.array(want)))
        for mu in range(fmt.num_blocks):
            formed = engine.formed_solve(A, b, fmt, p, mu, EPS_RANK_DEFAULT)
            structured = engine.structured_solve(A, b, fmt, p, mu, EPS_RANK_DEFAULT)
            default = engine.local_solve(A, b, fmt, p, mu, EPS_RANK_DEFAULT)
            formed_default += default.route == "formed"
            blocks_solved += 1
            rank_mismatch += structured.rank != formed.rank
            f_formed, f_structured = (
                objective(A, b, DenseTensor(b.shape, sol.iterate)) for sol in (formed, structured)
            )
            worst_solve = max(
                worst_solve,
                _relative_deviation(structured.block, formed.block),
                _relative_deviation(structured.iterate, formed.iterate),
                abs(f_structured - f_formed) / abs(f_formed),
            )
            image = A.apply(DenseTensor(b.shape, structured.iterate)).values
            worst_image = max(worst_image, _relative_deviation(structured.image, image))
            image = A.apply(DenseTensor(b.shape, formed.iterate)).values
            worst_formed_image = max(worst_formed_image, _relative_deviation(formed.image, image))
    ok = (
        cp_mismatch == 0
        and worst_tt <= 1e-14
        and worst_apply <= 1e-14
        and rank_mismatch == formed_default == 0
        and worst_solve <= 1e-12
        and max(worst_image, worst_formed_image) <= 1e-12
        and worst_dist <= 1e-12
    )
    return ok, (
        f"{trials} shapes, d = 1..4; CP W differing from the probe: {cp_mismatch} "
        f"(exact); TT W deviation {worst_tt:.2e}, mode-wise apply_matrix "
        f"deviation from the dense Kronecker product {worst_apply:.2e} (tol "
        f"1e-14); structured vs formed local solve on {blocks_solved} blocks "
        f"above the route threshold: rank mismatches {rank_mismatch}, blocks "
        f"defaulting to the formed route {formed_default}, block/iterate/f "
        f"deviation {worst_solve:.2e}, "
        f"A @ iterate deviation from a full apply {worst_image:.2e} structured, "
        f"{worst_formed_image:.2e} formed, run dist_a from the images against "
        f"a_norm(A, v - v_prev) {worst_dist:.2e} (tol 1e-12)"
    )


def check_lowdin_properties(trials: int = 20):
    rng = np.random.default_rng(107)
    worst_orth = 0.0
    worst_gram = 0.0
    for _ in range(trials):
        n, q = int(rng.integers(4, 12)), int(rng.integers(1, 6))
        W = rng.standard_normal((n, q))
        if rng.random() < 0.3 and q >= 2:
            W[:, 1] = W[:, 0]
        basis = engine.lowdin_basis(W)
        if basis.rank > min(n, q):
            return False, "retained rank exceeds matrix dimensions"
        worst_orth = max(worst_orth, basis.orth_defect)
        gram_pinv = basis.transform @ basis.transform.T
        want = np.linalg.pinv(W.T @ W, rcond=1e-10)
        worst_gram = max(worst_gram, np.max(np.abs(gram_pinv - want)))
    ok = worst_orth <= 1e-10 and worst_gram <= 1e-8
    return ok, (
        f"orthonormality defect {worst_orth:.2e} (tol 1e-10), "
        f"Gram pseudo-inverse deviation {worst_gram:.2e} (tol 1e-8)"
    )


def _svd_kernel(W: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the kernel of W, from its SVD, independent of the solver."""
    _, svals, vt = np.linalg.svd(W, full_matrices=True)
    return vt[(svals > 1e-10 * max(svals[0], 1e-300)).sum():]


def check_min_norm_update(trials: int = 30):
    worst = 0.0
    for t in range(trials):
        if t % 3 == 2:
            A, b, fmt, p = rank_deficient_problem(400 + t)
        else:
            A, b, fmt, p = random_problem(400 + t)
        mu = t % fmt.num_blocks
        W = materialize_W(fmt, p, mu)
        state, rec = engine.micro_step(A, b, fmt, engine.RunState.at(A, b, fmt, p), mu)
        if rec.degenerate:
            continue
        null = _svd_kernel(W)
        if null.size:
            block = state.params[mu]
            worst = max(worst, np.linalg.norm(null @ block) / max(1e-300, np.linalg.norm(block)))
    return worst <= 1e-10, f"max kernel component {worst:.2e} (tol 1e-10)"


def check_galerkin_orthogonality(trials: int = 30):
    worst = 0.0
    for t in range(trials):
        A, b, fmt, p = random_problem(500 + t)
        mu = t % fmt.num_blocks
        W = materialize_W(fmt, p, mu)
        _, rec = engine.micro_step(A, b, fmt, engine.RunState.at(A, b, fmt, p), mu)
        bound = 1e-8 * np.linalg.norm(W) * b.norm()
        worst = max(worst, rec.resid_orth / max(bound, 1e-300))
    return worst <= 1.0, f"max residual vs bound ratio {worst:.2e} (tol 1)"


def check_post_step_identities(trials: int = 30):
    worst = 0.0
    for t in range(trials):
        A, b, fmt, p = random_problem(600 + t)
        mu = t % fmt.num_blocks
        state, rec = engine.micro_step(A, b, fmt, engine.RunState.at(A, b, fmt, p), mu)
        b2 = inner(b, b)
        f_inner = -inner(state.v, b) / (2.0 * b2)
        f_energy = -(a_norm(A, state.v) ** 2) / (2.0 * b2)
        worst = max(worst, abs(rec.f - f_inner), abs(rec.f - f_energy))
    return worst <= 1e-10, f"max identity deviation {worst:.2e} (tol 1e-10)"


def check_decrement_identity(trials: int = 30):
    """The decrement is -g^T G^+ g / (2<b,b>), g = W^T r_old, from the maps of local_solve.

    G^+ is the energy pseudo-inverse.  Next to the small random problems,
    every block of the ROUTE_CASES systems is checked, on the structured
    route.
    """
    cases = []
    for t in range(trials):
        problem = random_problem(700 + t)
        cases.append((problem, t % problem[2].num_blocks))
    for i, case in enumerate(ROUTE_CASES):
        problem = sized_problem(1300 + i, *case)
        cases += [(problem, mu) for mu in range(problem[2].num_blocks)]
    worst = 0.0
    for (A, b, fmt, p), mu in cases:
        _, rec = engine.micro_step(A, b, fmt, engine.RunState.at(A, b, fmt, p), mu)
        if rec.degenerate:
            continue
        sol = engine.local_solve(A, b, fmt, p, mu, EPS_RANK_DEFAULT)
        g = sol.adjoint(b.values - A.apply(evaluate(fmt, p)).values)
        predicted = -0.5 * float(g @ sol.energy_pinv(g)) / inner(b, b)
        worst = max(worst, abs(rec.decrement - predicted))
    return worst <= 1e-10, (
        f"{trials} problems and {len(cases) - trials} structured-route blocks; max "
        f"deviation from projected-residual form {worst:.2e} (tol 1e-10)"
    )


def check_monotone_chain(trials: int = 100, sweeps: int = 3):
    # the norm/overlap chains hold between micro-step outputs; the descent
    # chain also covers the (arbitrary) starting point
    worst = 0.0
    for t in range(trials):
        A, b, fmt, p = random_problem(800 + t)
        f = objective(A, b, evaluate(fmt, p))
        nv = cv = None
        for k in range(sweeps):
            for mu in range(fmt.num_blocks):
                state, rec = engine.micro_step(A, b, fmt, engine.RunState.at(A, b, fmt, p), mu)
                p = state.params
                nv_new = a_norm(A, state.v)
                cv_new = inner(state.v, b)
                worst = max(worst, rec.f - f)
                if nv is not None:
                    worst = max(worst, nv - nv_new, cv - cv_new)
                if rec.decrement > 1e-12:
                    return False, f"positive decrement {rec.decrement:.2e}"
                f, nv, cv = rec.f, nv_new, cv_new
    return worst <= 1e-12, (
        f"{trials} problems x {sweeps} sweeps; max monotonicity violation "
        f"{worst:.2e} (tol 1e-12)"
    )


def check_oracle_equivalence(trials: int = 200):
    worst = 0.0
    worst_kernel = 0.0
    cases = []
    for t in range(trials):
        problem = (random_problem if t % 2 == 0 else rank_deficient_problem)(900 + t)
        cases.append((problem, t % problem[2].num_blocks))
    # every block of one system above the route threshold, on which
    # micro_step takes the structured route
    large = sized_problem(1100, *ROUTE_CASES[-1])
    cases += [(large, mu) for mu in range(large[2].num_blocks)]
    for (A, b, fmt, p), mu in cases:
        W = materialize_W(fmt, p, mu)
        state, rec = engine.micro_step(A, b, fmt, engine.RunState.at(A, b, fmt, p), mu)
        want = oracle.brute_least_squares(A, b, W)
        scale = max(1.0, np.linalg.norm(want))
        worst = max(worst, np.linalg.norm(state.params[mu] - want) / scale)
        null = _svd_kernel(W)
        if null.size:
            worst_kernel = max(worst_kernel, np.linalg.norm(null @ state.params[mu]) / scale)
    ok = worst <= 1e-10 and worst_kernel <= 1e-10
    return ok, (
        f"{trials} instances and {large[2].num_blocks} structured-route blocks; "
        f"max deviation from brute solve {worst:.2e}, "
        f"max kernel component {worst_kernel:.2e} (tol 1e-10)"
    )


def check_gradient_vs_fd(trials: int = 50):
    worst = 0.0
    for t in range(trials):
        A, b, fmt, p = random_problem(1000 + t)
        mu = t % fmt.num_blocks
        got = gradient_block(A, b, fmt, p, mu)
        want = oracle.finite_diff_grad(A, b, fmt, p, mu)
        worst = max(
            worst, np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        )
    return worst <= 1e-6, f"max relative FD deviation {worst:.2e} (tol 1e-6)"


def check_objective_second_path(trials: int = 20):
    worst = 0.0
    for t in range(trials):
        A, b, fmt, p = random_problem(1100 + t)
        v = evaluate(fmt, p)
        got = objective(A, b, v)
        # second path: raw dot products, no helper functions
        Av = A.apply(v).values
        want = (0.5 * float(v.values @ Av) - float(b.values @ v.values)) / float(
            b.values @ b.values
        )
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst <= 1e-12, f"max two-path deviation {worst:.2e} (tol 1e-12)"


def check_rate_scale_invariance():
    base = [0.9 * (0.8**k) for k in range(15)]
    a = rate_estimate(base)
    b = rate_estimate([t * 2.0**10 for t in base])  # power of two: exact float scaling
    ok = a.q_hat == b.q_hat and a.classification == b.classification
    return ok, f"q_hat {a.q_hat:.6f} invariant under exact rescaling: {ok}"


def check_coupling_symmetry(trials: int = 10):
    worst = 0.0
    for t in range(trials):
        A, b, fmt, p = random_problem(1200 + t, kind="cp", operator="identity")
        mu, nu = 0, fmt.num_blocks - 1
        M = materialize_M(fmt, b, p, mu, nu)
        Mt = materialize_M(fmt, b, p, nu, mu)
        worst = max(
            worst, np.max(np.abs(M - Mt.T)) / max(1.0, np.max(np.abs(M)))
        )
    return worst <= 1e-10, f"max transpose-pair deviation {worst:.2e} (tol 1e-10)"


def _gallery_trace(instance: gallery.ProblemInstance, sweeps: int):
    """Keep-params trace of ``sweeps`` sweeps, with the instance's references."""
    return engine.run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        engine.StopRule(max_sweeps=sweeps),
        reference=instance.reference,
        reference_factor=instance.reference_factor,
        keep_params=True,
    )


def _rank_one_gallery_traces() -> dict[str, tuple[gallery.ProblemInstance, RunTrace]]:
    """The 6-sweep keep-params runs of four rank-one gallery instances, by label.

    ``recursion-defect`` replays them all and ``tangent-recursion`` the
    ``blambda`` run; ``run_checks`` hands both one cached call, so one
    verify makes each run once.
    """
    instances = [
        gallery.mohlenkamp_example(0.4),
        gallery.blambda_example(0.3, n=4, seed=11),
        gallery.totally_orthogonal(2, (3, 3, 3), seed=5),
        gallery.get_instance("tucker", dims=(3, 3, 3), t_dims=(2, 2, 2), seed=3),
    ]
    return {instance.label: (instance, _gallery_trace(instance, 6)) for instance in instances}


def _route_case_traces(sweeps: int = 3, seed: int = 1400):
    """Keep-params traces of the ROUTE_CASES systems, whose solves are structured."""
    stop = engine.StopRule(max_sweeps=sweeps)
    problems = (sized_problem(seed + i, *case) for i, case in enumerate(ROUTE_CASES))
    return [
        (A, b, fmt, engine.run(A, b, fmt, p, stop, keep_params=True)) for A, b, fmt, p in problems
    ]


def check_recursion_defect(
    gallery_traces=_rank_one_gallery_traces, route_traces=_route_case_traces
):
    worst = 0.0
    count = structured = 0
    for instance, trace in gallery_traces().values():
        for ctx in recursion_contexts(trace):
            report = recursion_check(instance.A, instance.b, instance.fmt, ctx)
            worst = max(worst, report.defect)
            count += 1
    for A, b, fmt, trace in route_traces():
        for ctx in recursion_contexts(trace):
            worst = max(worst, recursion_check(A, b, fmt, ctx).defect)
            structured += 1
    if count == 0 or structured == 0:
        return False, "no replayable step pairs found"
    return worst <= 1e-8, (
        f"{count} gallery and {structured} structured-route step pairs replayed; "
        f"max defect {worst:.2e} (tol 1e-8)"
    )


def check_tucker_closed_form():
    instance = gallery.get_instance("tucker", dims=(4, 4, 4), t_dims=(2, 2, 2), seed=3)
    trace = _gallery_trace(instance, 4)
    worst = 0.0
    diag_dev = 0.0
    d = instance.fmt.num_blocks
    for i, rec in enumerate(trace.records):
        if rec.mu != 0:
            continue
        p = trace.param_snapshots[i]
        M = materialize_M(instance.fmt, instance.b, p, 0, d - 1)
        want = gallery.tucker_coupling_closed_form(instance, p)
        worst = max(worst, np.max(np.abs(M - want)) / max(1.0, np.max(np.abs(want))))
        # super-diagonal core => diagonal contracted coefficient matrix
        t, _ = gallery.tucker_middle_contraction(instance, p)
        diag_dev = max(diag_dev, np.max(np.abs(t - np.diag(np.diag(t)))))
    ok = worst <= 1e-10 and diag_dev <= 1e-12
    return ok, (
        f"max closed-form deviation {worst:.2e} (tol 1e-10); "
        f"off-diagonal mass {diag_dev:.2e} (tol 1e-12)"
    )


def check_tangent_recursion(
    gallery_traces=_rank_one_gallery_traces, route_traces=_route_case_traces
):
    # blambda against its known limit, the ROUTE_CASES systems against their target
    instance, trace = gallery_traces()["blambda"]
    replays = [(instance.A, instance.b, instance.fmt, trace, instance.reference.values, False)]
    replays += [(A, b, fmt, tr, b.values, True) for A, b, fmt, tr in route_traces()]
    worst_split = 0.0
    worst_pred = 0.0
    count = structured = 0
    for A, b, fmt, trace, reference, on_structured in replays:
        for ctx in recursion_contexts(trace):
            report = recursion_check(A, b, fmt, ctx)
            tr = tangent_recursion(report.transfer, reference, report.v_mid.values)
            direct = stable_tangent(reference, report.transfer @ report.v_mid.values)
            worst_split = max(
                worst_split, abs(tr.tan_predicted - tr.tan_out) / max(tr.tan_out, 1e-300)
            )
            actual = stable_tangent(reference, report.v_next.values)
            worst_pred = max(worst_pred, abs(direct - actual) / max(actual, 1e-300))
            count += 1
            structured += on_structured
    ok = worst_split <= 1e-12 and worst_pred <= 1e-8 and count > structured > 0
    return ok, (
        f"{count} transfers ({structured} on structured-route systems); split "
        f"factorization deviation {worst_split:.2e} (tol 1e-12), transfer vs "
        f"committed tangent {worst_pred:.2e} (tol 1e-8)"
    )


def check_gallery_instances():
    for label in gallery.LABELS:
        one, two = gallery.get_instance(label), gallery.get_instance(label)
        if not np.array_equal(one.b.values, two.b.values):
            return False, f"{label}: target not deterministic"
        for mu in range(len(one.init)):
            if not np.array_equal(one.init[mu], two.init[mu]):
                return False, f"{label}: init not deterministic"
    inst = gallery.blambda_example(0.46, n=8, seed=7)
    p, q = inst.extra["p"], inst.extra["q"]
    dev = max(
        abs(np.linalg.norm(p) - 1.0),
        abs(np.linalg.norm(q) - 1.0),
        abs(float(p @ q)),
    )
    if dev > 1e-12:
        return False, f"blambda directions not orthonormal: {dev:.2e}"
    return True, "all six labels deterministic and well-formed"


def check_counterexample_gradients():
    instance, stationary, nonstationary = gallery.counterexample_bilinear()
    v1 = evaluate(instance.fmt, stationary)
    v2 = evaluate(instance.fmt, nonstationary)
    if np.max(np.abs(v1.values - v2.values)) > 0:
        return False, "the two parameter systems represent different tensors"
    g1 = full_gradient(instance.A, instance.b, instance.fmt, stationary)
    g2 = full_gradient(instance.A, instance.b, instance.fmt, nonstationary)
    want = np.array([0.0, 0.0, 0.0, -1.0 / 3.0])
    dev1 = np.max(np.abs(g1))
    dev2 = np.max(np.abs(g2 - want))
    ok = dev1 <= 1e-12 and dev2 <= 1e-12
    return ok, (
        f"stationary gradient max {dev1:.2e}, "
        f"non-stationary deviation from (0,0,0,-1/3): {dev2:.2e} (tol 1e-12)"
    )


def check_rate_formula():
    grid = np.linspace(0.0, 0.5, 1000)
    vals = [oracle.q_lambda_formula(lam) for lam in grid]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        return False, "closed-form rate not strictly increasing on [0, 1/2]"
    if vals[0] != 0.0:
        return False, f"rate at 0 is {vals[0]!r}, expected 0"
    at_half = oracle.q_lambda_formula(0.5)
    if at_half != 1.0:
        return False, f"rate at 1/2 is {at_half!r}, expected exactly 1"
    at_046 = oracle.q_lambda_formula(0.46)
    if abs(at_046 - 0.847049) > 5e-4:
        return False, f"rate at 0.46 is {at_046:.6f}, expected 0.8470 +/- 0.0005"
    return True, f"monotone on [0,1/2]; q(0.46) = {at_046:.6f}; q(1/2) = 1 exactly"


def check_monitors():
    trace = _gallery_trace(gallery.desilva_lim(2), 50)
    report_hi = assumption_monitors(trace, growth_threshold=1e6)
    report_lo = assumption_monitors(trace, growth_threshold=1.01)
    if report_hi.unbounded_suspect:
        return False, "boundedness monitor fired below its threshold"
    if not report_lo.unbounded_suspect:
        return False, "boundedness monitor missed growth past a tight threshold"
    if report_lo.growth_ratio <= 1.01:
        return False, "expected measurable growth on the border-rank instance"
    ranks_ok = all(
        len(seq) == trace.sweeps for seq in report_hi.rank_sequences.values()
    )
    return ranks_ok, (
        f"growth ratio {report_lo.growth_ratio:.3f} over {trace.sweeps} sweeps; "
        f"threshold logic and rank sequences consistent"
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


CHECKS: list[tuple[str, Callable]] = [
    ("inner-bilinearity", check_inner_bilinearity),
    ("modewise-dense-equivalence", check_modewise_dense_equivalence),
    ("energy-norm", check_energy_norm),
    ("format-multilinearity", check_format_multilinearity),
    ("factorization-identity", check_factorization_identity),
    ("cp-rescaling-invariance", check_cp_rescaling_invariance),
    ("tt-direct-contraction", check_tt_against_direct_contraction),
    ("structured-vs-probe", check_structured_vs_probe),
    ("lowdin-properties", check_lowdin_properties),
    ("min-norm-update", check_min_norm_update),
    ("galerkin-orthogonality", check_galerkin_orthogonality),
    ("post-step-identities", check_post_step_identities),
    ("decrement-identity", check_decrement_identity),
    ("monotone-chain", check_monotone_chain),
    ("oracle-equivalence", check_oracle_equivalence),
    ("gradient-vs-fd", check_gradient_vs_fd),
    ("objective-second-path", check_objective_second_path),
    ("rate-scale-invariance", check_rate_scale_invariance),
    ("coupling-symmetry", check_coupling_symmetry),
    ("recursion-defect", check_recursion_defect),
    ("tucker-closed-form", check_tucker_closed_form),
    ("tangent-recursion", check_tangent_recursion),
    ("gallery-instances", check_gallery_instances),
    ("counterexample-gradients", check_counterexample_gradients),
    ("rate-formula", check_rate_formula),
    ("assumption-monitors", check_monitors),
]


def run_checks(names=None, trials: int | None = None) -> list[CheckResult]:
    """Run the registered checks (all by default) and collect results.

    ``trials`` overrides the default trial count of every check whose
    function takes a ``trials`` argument; the others ignore it.  The
    checks that take ``gallery_traces`` or ``route_traces`` share its runs.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    selected = dict(CHECKS)
    if names is not None:
        if not "".join(names).strip():
            raise ValueError("no check names given")
        unknown = set(names) - set(selected)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        order = [n for n, _ in CHECKS if n in set(names)]
    else:
        order = [n for n, _ in CHECKS]
    shared = {
        "gallery_traces": functools.cache(_rank_one_gallery_traces),
        "route_traces": functools.cache(_route_case_traces),
    }
    if trials is not None:
        shared["trials"] = trials
    results = []
    for name in order:
        fn = selected[name]
        params = inspect.signature(fn).parameters
        try:
            ok, detail = fn(**{key: value for key, value in shared.items() if key in params})
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(ok), str(detail)))
    return results
