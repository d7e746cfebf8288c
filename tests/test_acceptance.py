"""Acceptance gate: the ten end-to-end criteria the package commits to.

One test per criterion; each prints a single [PASS]/[FAIL] line carrying
the measured numbers next to the required tolerance.

Criterion 10 is the border-rank instance ``desilva_lim``, where ALS
descends towards an infimum that no rank-2 tensor attains.  Over 1e4
sweeps it checks the laws the iteration follows there: the gap to the
infimum falls like 1/(48k) after k sweeps, the residual like
1/(2*sqrt(2k)), the rank-one term norms grow like k^(1/4) and the peak
block norm tracked by the boundedness monitor grows like k^(1/12)
(1.82x its start at 1e4 sweeps, 2.67x at 1e6).  A fixed 1e6x growth is
therefore out of reach of any feasible run, and the CLI is checked for
exit code 3 at a threshold the law crosses inside the budget.  Next to
it, an independent normal-equations CP-ALS reproduces the solver's
trajectory on that instance, so the slow growth is the iteration's, not
a defect of the Löwdin step.
"""

import contextlib
import io
import time
from dataclasses import replace

import numpy as np

from alskit.cli import main as cli_main
from alskit.diagnostics import (
    assumption_monitors,
    effective_window,
    full_gradient,
    materialize_M,
    rate_estimate,
    recursion_check,
    recursion_contexts,
    stable_tangent,
    tangent_recursion,
)
from alskit.engine import RunState, StopRule, lowdin_basis, micro_step, run
from alskit.formats import evaluate, materialize_W
from alskit.gallery import (
    blambda_example,
    counterexample_bilinear,
    desilva_lim,
    get_instance,
    mohlenkamp_example,
    totally_orthogonal,
    tucker_coupling_closed_form,
)
from alskit.oracle import brute_least_squares, finite_diff_grad, q_lambda_formula
from alskit.tensors import a_norm, inner
from alskit.verification import random_problem, rank_deficient_problem


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _solve_gallery(instance, max_sweeps: int, **stop_kwargs):
    stop = StopRule(max_sweeps=max_sweeps, **stop_kwargs)
    return run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        stop,
        reference=instance.reference,
        reference_factor=instance.reference_factor,
    )


def test_criterion_01_measured_rate_matches_closed_form():
    # blambda at coupling 0.46, n = 8, budget 400 sweeps: windowed-median
    # tangent ratio in [0.837, 0.857]; closed form 0.8470 +/- 0.0005; < 5 s
    t0 = time.perf_counter()
    trace = _solve_gallery(blambda_example(0.46, n=8, seed=7), 400)
    elapsed = time.perf_counter() - t0
    series = trace.tangent_series()
    window = effective_window(len(series), 10)
    est = rate_estimate(series, window=window)
    formula = q_lambda_formula(0.46)
    ok = (
        0.837 <= est.q_hat <= 0.857
        and abs(formula - 0.8470) <= 0.0005
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"q_hat={est.q_hat:.6f} in [0.837, 0.857]; closed form {formula:.6f} "
        f"= 0.8470 +/- 0.0005; {trace.sweeps} sweeps in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_sublinear_boundary():
    # coupling 1/2: last-window ratios in [0.99, 1.0], classified sublinear
    # within 2000 sweeps, in under 10 s
    t0 = time.perf_counter()
    trace = _solve_gallery(blambda_example(0.5, n=8, seed=7), 2000)
    elapsed = time.perf_counter() - t0
    series = trace.tangent_series()
    est = rate_estimate(series, window=effective_window(len(series), 10))
    last = est.ratios[-10:]
    ok = (
        est.classification == "sublinear"
        and all(0.99 <= r <= 1.0 for r in last)
        and trace.sweeps <= 2000
        and elapsed < 10.0
    )
    _report(
        2,
        ok,
        f"classification={est.classification}; last-window ratios in "
        f"[{min(last):.5f}, {max(last):.5f}] (need [0.99, 1.0]); "
        f"{trace.sweeps} sweeps in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_03_qlinear_family_tracks_formula():
    # measured windowed-median ratio within +/- 0.02 of the closed form
    # across the coupling grid
    worst = 0.0
    details = []
    for lam in (0.1, 0.2, 0.3, 0.44, 0.48):
        trace = _solve_gallery(blambda_example(lam, n=8, seed=7), 400)
        series = trace.tangent_series()
        est = rate_estimate(series, window=effective_window(len(series), 10))
        diff = abs(est.q_hat - q_lambda_formula(lam))
        worst = max(worst, diff)
        details.append(f"{lam}:{diff:.1e}")
    ok = worst <= 0.02
    _report(
        3,
        ok,
        f"max |q_hat - formula| = {worst:.2e} (tol 0.02); per-coupling "
        + " ".join(details),
    )


def test_criterion_04_superlinear_two_term_family():
    # factor tangent below 1e-12 within 30 sweeps; successive ratios
    # strictly decreasing once the tangent passes below 1e-2
    ok = True
    details = []
    for tau in (0.4, 0.495, 0.4999):
        trace = _solve_gallery(mohlenkamp_example(tau), 30)
        tans = [t for t in trace.sweep_tangent if t is not None]
        crossed = next((k + 1 for k, t in enumerate(tans) if t < 1e-12), None)
        ok &= crossed is not None
        start = next((k for k, t in enumerate(tans) if t < 1e-2), None)
        decreasing = True
        if start is not None:
            ratios = [
                tans[k + 1] / tans[k]
                for k in range(start, len(tans) - 1)
                if tans[k] > 0.0
            ]
            decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
        ok &= decreasing
        details.append(f"tau={tau}: crossed at sweep {crossed}, decreasing={decreasing}")
    _report(4, bool(ok), "; ".join(details))


def test_criterion_05_representation_dependent_stationarity():
    # same tensor, two parameter systems: gradient exactly zero at one,
    # exactly (0, 0, 0, -1/3) at the other, to 1e-12 per entry
    instance, stationary, nonstationary = counterexample_bilinear()
    same = np.max(
        np.abs(
            evaluate(instance.fmt, stationary).values
            - evaluate(instance.fmt, nonstationary).values
        )
    )
    g_stat = full_gradient(instance.A, instance.b, instance.fmt, stationary)
    g_non = full_gradient(instance.A, instance.b, instance.fmt, nonstationary)
    dev_stat = float(np.max(np.abs(g_stat)))
    dev_non = float(np.max(np.abs(g_non - np.array([0.0, 0.0, 0.0, -1.0 / 3.0]))))
    ok = same == 0.0 and dev_stat <= 1e-12 and dev_non <= 1e-12
    _report(
        5,
        ok,
        f"tensor match {same:.1e}; stationary gradient max {dev_stat:.2e}; "
        f"deviation from (0,0,0,-1/3): {dev_non:.2e} (tol 1e-12)",
    )


def test_criterion_06_monotone_descent_suite():
    # 100 seeded CP/TT problems with mode-wise SPD operators, 3 sweeps each:
    # f non-increasing, energy norm and target overlap non-decreasing
    # between updates (1e-12 slack); decrement and post-step identities
    # to 1e-10
    worst_chain = 0.0
    worst_dec = 0.0
    worst_post = 0.0
    steps = 0
    for t in range(100):
        kind = "cp" if t % 2 == 0 else "tt"
        A, b, fmt, p = random_problem(800 + t, kind=kind)
        b2 = inner(b, b)
        state = RunState.at(A, b, fmt, p)
        f = state.f
        nv = cv = None
        for _ in range(3):
            for mu in range(fmt.num_blocks):
                W = materialize_W(fmt, state.params, mu)
                basis = lowdin_basis(W)
                r_old = b.values - A.apply(state.v).values
                state, rec = micro_step(A, b, fmt, state, mu)
                v = state.v
                steps += 1
                worst_chain = max(worst_chain, rec.f - f)
                nv_new = a_norm(A, v)
                cv_new = inner(v, b)
                if nv is not None:
                    worst_chain = max(worst_chain, nv - nv_new, cv - cv_new)
                if not rec.degenerate:
                    V = basis.V
                    G = V.T @ A.apply_matrix(V)
                    G = 0.5 * (G + G.T)
                    z = V.T @ r_old
                    predicted = -0.5 * float(z @ np.linalg.solve(G, z)) / b2
                    worst_dec = max(worst_dec, abs(rec.decrement - predicted))
                    f_overlap = -inner(v, b) / (2.0 * b2)
                    f_energy = -(a_norm(A, v) ** 2) / (2.0 * b2)
                    worst_post = max(
                        worst_post, abs(rec.f - f_overlap), abs(rec.f - f_energy)
                    )
                f, nv, cv = rec.f, nv_new, cv_new
    ok = worst_chain <= 1e-12 and worst_dec <= 1e-10 and worst_post <= 1e-10
    _report(
        6,
        ok,
        f"{steps} micro-steps over 100 problems; chain violation "
        f"{worst_chain:.2e} (tol 1e-12); decrement identity {worst_dec:.2e}, "
        f"post-step identity {worst_post:.2e} (tol 1e-10)",
    )


def test_criterion_07_oracle_equivalence_and_min_norm():
    # 200 seeded instances, half with exactly duplicated factor columns:
    # solver block agrees with the brute solve and is kernel-orthogonal
    worst = 0.0
    worst_kernel = 0.0
    for t in range(200):
        if t % 2 == 0:
            A, b, fmt, p = random_problem(900 + t)
        else:
            A, b, fmt, p = rank_deficient_problem(900 + t)
        mu = t % fmt.num_blocks
        W = materialize_W(fmt, p, mu)
        p_new = micro_step(A, b, fmt, RunState.at(A, b, fmt, p), mu)[0].params
        want = brute_least_squares(A, b, W)
        scale = max(1.0, float(np.linalg.norm(want)))
        worst = max(worst, float(np.linalg.norm(p_new[mu] - want)) / scale)
        _, svals, vt = np.linalg.svd(W, full_matrices=True)
        null = vt[(svals > 1e-10 * max(svals[0], 1e-300)).sum():]
        if null.size:
            worst_kernel = max(
                worst_kernel, float(np.linalg.norm(null @ p_new[mu])) / scale
            )
    ok = worst <= 1e-10 and worst_kernel <= 1e-10
    _report(
        7,
        ok,
        f"200 instances; deviation from brute solve {worst:.2e}; "
        f"kernel component {worst_kernel:.2e} (tol 1e-10)",
    )


def test_criterion_08_gradient_matches_finite_differences():
    worst = 0.0
    for t in range(50):
        A, b, fmt, p = random_problem(1000 + t)
        mu = t % fmt.num_blocks
        from alskit.diagnostics import gradient_block

        got = gradient_block(A, b, fmt, p, mu)
        want = finite_diff_grad(A, b, fmt, p, mu)
        worst = max(
            worst,
            float(np.linalg.norm(got - want)) / max(1.0, float(np.linalg.norm(want))),
        )
    ok = worst <= 1e-6
    _report(8, ok, f"50 instances; max relative FD deviation {worst:.2e} (tol 1e-6)")


def test_criterion_09_recursion_identities():
    # one-step transfer matrices replayed on rank-one instances (N <= 256),
    # the coupling closed form on the orthonormal-factor target, and the
    # split factorization of the tangent propagation, all within 1e-8
    instances = [
        mohlenkamp_example(0.4),
        blambda_example(0.3, n=4, seed=11),
        totally_orthogonal(2, (3, 3, 3), seed=5),
        get_instance("tucker", dims=(3, 3, 3), t_dims=(2, 2, 2), seed=3),
    ]
    worst_defect = 0.0
    count = 0
    for instance in instances:
        trace = run(
            instance.A,
            instance.b,
            instance.fmt,
            instance.init,
            StopRule(max_sweeps=6),
            reference=instance.reference,
            reference_factor=instance.reference_factor,
            keep_params=True,
        )
        for ctx in recursion_contexts(trace):
            report = recursion_check(instance.A, instance.b, instance.fmt, ctx)
            worst_defect = max(worst_defect, report.defect)
            count += 1

    # coupling closed form on the orthonormal-factor target
    tucker = get_instance("tucker", dims=(4, 4, 4), t_dims=(2, 2, 2), seed=3)
    ttrace = run(
        tucker.A,
        tucker.b,
        tucker.fmt,
        tucker.init,
        StopRule(max_sweeps=4),
        keep_params=True,
    )
    worst_closed = 0.0
    d = tucker.fmt.num_blocks
    for i, rec in enumerate(ttrace.records):
        if rec.mu != 0:
            continue
        snapshot = ttrace.param_snapshots[i]
        probed = materialize_M(tucker.fmt, tucker.b, snapshot, 0, d - 1)
        closed = tucker_coupling_closed_form(tucker, snapshot)
        worst_closed = max(worst_closed, float(np.max(np.abs(probed - closed))))

    # tangent propagation through a committed transfer matrix
    bl = blambda_example(0.3, n=4, seed=11)
    btrace = run(
        bl.A,
        bl.b,
        bl.fmt,
        bl.init,
        StopRule(max_sweeps=6),
        reference=bl.reference,
        reference_factor=bl.reference_factor,
        keep_params=True,
    )
    worst_tan = 0.0
    for ctx in recursion_contexts(btrace):
        report = recursion_check(bl.A, bl.b, bl.fmt, ctx)
        tr = tangent_recursion(report.transfer, bl.reference.values, report.v_mid.values)
        worst_tan = max(
            worst_tan, abs(tr.tan_predicted - tr.tan_out) / max(tr.tan_out, 1e-300)
        )
        committed = stable_tangent(bl.reference.values, report.v_next.values)
        direct = stable_tangent(
            bl.reference.values, report.transfer @ report.v_mid.values
        )
        worst_tan = max(worst_tan, abs(direct - committed) / max(committed, 1e-300))

    ok = count > 0 and worst_defect <= 1e-8 and worst_closed <= 1e-8 and worst_tan <= 1e-8
    _report(
        9,
        ok,
        f"{count} step pairs replayed, max defect {worst_defect:.2e}; coupling "
        f"closed form {worst_closed:.2e}; tangent propagation {worst_tan:.2e} "
        f"(tol 1e-8)",
    )


def _fmt_ratios(ratios) -> str:
    return "[" + ", ".join(f"{r:.3f}" for r in ratios) + "]"


def _decade_profile(instance, trace, checkpoints):
    """Per checkpoint sweep k: (smallest term norm, monitor growth, |v|/|b|).

    A term norm is prod_nu |a_nu^(r)| over the CP factor columns of term
    r.  The growth ratio is the boundedness monitor's over sweeps 1..k; the
    parameters after sweep k are the snapshot taken before sweep k + 1,
    so the trace must come from ``run(..., keep_params=True)``.
    """
    fmt = instance.fmt
    nb = fmt.num_blocks
    b_norm = float(np.linalg.norm(instance.b.values))
    profile = []
    for k in checkpoints:
        p = trace.final_params if k == trace.sweeps else trace.param_snapshots[nb * k]
        head = replace(trace, records=trace.records[: nb * k], dist_a=trace.dist_a[:k])
        mats = [fmt.factor_matrix(p, mu) for mu in range(nb)]
        terms = np.prod([np.linalg.norm(m, axis=0) for m in mats], axis=0)
        v_norm = float(np.linalg.norm(evaluate(fmt, p).values))
        profile.append(
            (
                float(np.min(terms)),
                assumption_monitors(head).growth_ratio,
                v_norm / b_norm,
            )
        )
    return profile


def test_criterion_10_divergence_phenomenology():
    # border-rank instance, 1e4 sweeps: the objective falls strictly every
    # sweep towards the unattained infimum -1/2 with gap ~ 1/(48k); the
    # representation diverges while the iterate stays bounded: term norms
    # grow ~ k^(1/4) (1.78x per decade), the monitor's peak block norm
    # ~ k^(1/12) (1.21x per decade), and |v| stays at |b| since
    # |v|^2 = |b|^2 - |v - b|^2 after a Galerkin step.  The k^(1/12) law
    # passes 1.5 near sweep 900 (1e6 would take ~1e73 sweeps), so the CLI
    # must exit 3 at --growth-threshold 1.5.
    instance = desilva_lim(2)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=10**4),
        keep_params=True,
    )
    fs = trace.sweep_f
    strictly_decreasing = all(b < a for a, b in zip(fs, fs[1:]))

    gap = [f + 0.5 for f in fs]
    unattained = min(gap) > 0.0
    gap_ratios = [gap[10**e - 1] / gap[10 ** (e + 1) - 1] for e in (2, 3)]
    gap_law = unattained and all(9.0 <= r <= 11.0 for r in gap_ratios)

    decades = (10, 10**2, 10**3, 10**4)
    profile = _decade_profile(instance, trace, decades)
    term_ratios = [b[0] / a[0] for a, b in zip(profile, profile[1:])]
    peak_ratios = [b[1] / a[1] for a, b in zip(profile, profile[1:])]
    v_dev = max(abs(row[2] - 1.0) for row in profile)
    diverges = (
        all(r >= 1.4 for r in term_ratios)
        and all(r >= 1.1 for r in peak_ratios)
        and v_dev <= 0.01
    )

    cli_out = io.StringIO()
    with contextlib.redirect_stdout(cli_out):
        exit_code = cli_main(
            [
                "run",
                "--gallery",
                "desilva_lim",
                "--max-sweeps",
                "10000",
                "--growth-threshold",
                "1.5",
            ]
        )
    print(cli_out.getvalue(), end="")
    flagged = "unbounded-suspect" in cli_out.getvalue()
    ok = strictly_decreasing and gap_law and diverges and exit_code == 3 and flagged
    _report(
        10,
        ok,
        f"f strictly decreasing over {trace.sweeps} sweeps: {strictly_decreasing}; "
        f"min gap to -1/2 {min(gap):.3e} (> 0), per-decade gap ratios "
        f"{_fmt_ratios(gap_ratios)} (need [9, 11]); per-decade term-norm ratios "
        f"{_fmt_ratios(term_ratios)} (need >= 1.4), peak block-norm ratios "
        f"{_fmt_ratios(peak_ratios)} (need >= 1.1), growth {profile[-1][1]:.4f}; "
        f"max | |v|/|b| - 1 | {v_dev:.1e} (tol 0.01); exit code {exit_code} at "
        f"--growth-threshold 1.5 (need 3), unbounded-suspect reported: {flagged}",
    )


def _cp_als_normal_equations(target: np.ndarray, factors, sweeps: int):
    """Plain CP-ALS: per micro-step (f, peak factor norm) and final factors.

    Each factor is the solution of the normal equations on the
    Khatri-Rao product of the others; no Löwdin basis, no alskit code.
    """
    factors = [np.array(a, dtype=float) for a in factors]
    b2 = float(np.sum(target * target))
    steps = []
    for _ in range(sweeps):
        for mu in range(target.ndim):
            others = [a for nu, a in enumerate(factors) if nu != mu]
            kr = others[0]
            for a in others[1:]:
                kr = np.einsum("ir,jr->ijr", kr, a).reshape(-1, a.shape[1])
            unfold = np.moveaxis(target, mu, 0).reshape(target.shape[mu], -1)
            factors[mu] = np.linalg.solve(kr.T @ kr, kr.T @ unfold.T).T
            v = factors[mu] @ kr.T
            f = (0.5 * np.sum(v * v) - np.sum(v * unfold)) / b2
            steps.append((float(f), max(float(np.linalg.norm(a)) for a in factors)))
    return steps, factors


def test_border_rank_trajectory_matches_independent_cp_als():
    # the slow growth in criterion 10 is the iteration's own: over 1000
    # sweeps an independent normal-equations CP-ALS gives the same f at
    # every micro-step (1e-12 absolute) and the same peak block norm and
    # final factors (1e-10 relative); W has full rank 4 throughout, so
    # the update is unique and the minimum-norm choice plays no part
    instance = desilva_lim(2)
    fmt = instance.fmt
    sweeps = 1000
    trace = run(instance.A, instance.b, fmt, instance.init, StopRule(max_sweeps=sweeps))
    start = [fmt.factor_matrix(instance.init, mu) for mu in range(fmt.num_blocks)]
    target = instance.b.values.reshape(fmt.shape.dims)
    steps, factors = _cp_als_normal_equations(target, start, sweeps)
    assert len(steps) == len(trace.records) == sweeps * fmt.num_blocks
    assert all(rec.W_rank == 4 for rec in trace.records)
    f_dev = max(abs(rec.f - f) for rec, (f, _) in zip(trace.records, steps))
    norm_dev = max(
        abs(rec.param_norm_max - n) / n for rec, (_, n) in zip(trace.records, steps)
    )
    factor_dev = max(
        float(np.linalg.norm(fmt.factor_matrix(trace.final_params, mu) - a))
        / float(np.linalg.norm(a))
        for mu, a in enumerate(factors)
    )
    assert f_dev <= 1e-12, f"f deviates by {f_dev:.2e} (tol 1e-12)"
    assert norm_dev <= 1e-10, f"peak block norm deviates by {norm_dev:.2e} (tol 1e-10)"
    assert factor_dev <= 1e-10, f"final factors deviate by {factor_dev:.2e} (tol 1e-10)"
