"""Per-job correctness gate, run outside the timed jobs.

Each check raises ``CheckFailed`` on a wrong result and otherwise returns
an ``Outcome``: the job's signature (compared exactly between the untraced
and the traced run), its committed micro-steps and, where the job is not a
pure solve, the seconds it spent solving.  Tolerances are the acceptance
suite's: descent and post-step identities to 1e-10, replay defects and the
q_s/q_c factorisation to 1e-8, blambda's q_hat within 0.02 of the closed
form.

Iterates are recomputed here from parameters with this module's own CP,
TT and bilinear contractions and its own mode-wise operator product, so
the final objective is checked independently of alskit's evaluation code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

IDENTITY_TOL = 1e-10
REPLAY_TOL = 1e-8
RATE_TOL = 0.02


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Outcome:
    """A checked job: exact signature, committed micro-steps, solve seconds.

    ``solve_s`` None means the whole job was the solve.
    """

    signature: tuple
    microsteps: int = 0
    solve_s: float | None = None


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# --- independent contractions ------------------------------------------------


def cp_tensor(dims, rank: int, blocks) -> np.ndarray:
    """Flat CP tensor as the Khatri-Rao product of the factors times ones."""
    rows = np.ones((1, rank))
    for m, block in zip(dims, blocks):
        factor = np.asarray(block, dtype=float).reshape((m, rank), order="F")
        rows = (rows[:, None, :] * factor[None, :, :]).reshape(-1, rank)
    return rows.sum(axis=1)


def tt_tensor(dims, ranks, blocks) -> np.ndarray:
    """Flat TT tensor by left-to-right matrix products of the cores."""
    full = (1, *ranks, 1)
    left = np.ones((1, 1))
    for mu, (m, block) in enumerate(zip(dims, blocks)):
        core = np.asarray(block, dtype=float).reshape(full[mu], m * full[mu + 1])
        left = (left @ core).reshape(-1, full[mu + 1])
    return left.ravel()


def bilinear_tensor(blocks) -> np.ndarray:
    """The gallery counterexample's map U(x, y) on R^2 x R^2."""
    x, y = (np.asarray(b, dtype=float) for b in blocks)
    top = (x[0] + x[1]) * y[0]
    return np.array([top, top, x[0] * y[1], x[1] * y[1]])


def modewise_apply(factors, values) -> np.ndarray:
    """(A_1 (x) ... (x) A_d) v, one mode at a time as a matrix product."""
    dims = tuple(f.shape[0] for f in factors)
    t = np.asarray(values, dtype=float).reshape(dims)
    for nu, factor in enumerate(factors):
        moved = np.moveaxis(t, nu, 0)
        t = np.moveaxis((factor @ moved.reshape(dims[nu], -1)).reshape(moved.shape), 0, nu)
    return t.ravel()


def own_objective(apply, target, v) -> float:
    """(<Av,v>/2 - <b,v>) / <b,b> from first principles."""
    return (0.5 * float(v @ apply(v)) - float(target @ v)) / float(target @ target)


def own_iterate(fmt, blocks) -> np.ndarray:
    """Recompute U(p) for a CP, TT or counterexample format."""
    dims = fmt.shape.dims
    if fmt.name == "cp":
        return cp_tensor(dims, fmt.rank, blocks)
    if fmt.name == "tt":
        return tt_tensor(dims, fmt.ranks[1:-1], blocks)
    if fmt.name == "paired-bilinear":
        return bilinear_tensor(blocks)
    raise CheckFailed(f"no independent evaluation for format {fmt.name!r}")


def operator_apply(A):
    """Independent product for the operator variants the workloads use."""
    if A.variant == "identity":
        return lambda v: v
    if A.variant == "modewise":
        factors = [np.array(f) for f in A.factors]
        return lambda v: modewise_apply(factors, v)
    if A.variant == "dense":
        matrix = np.array(A.matrix)
        return lambda v: matrix @ v
    raise CheckFailed(f"no independent product for operator {A.variant!r}")


# --- solve traces -------------------------------------------------------------


def check_descent(trace):
    """f non-increasing, decrement = f - f_prev, for every committed step."""
    f_prev = trace.initial_f
    for rec in trace.records:
        require(
            rec.decrement <= IDENTITY_TOL,
            f"f rose by {rec.decrement:.3e} at sweep {rec.sweep} block {rec.mu}",
        )
        require(
            abs(rec.decrement - (rec.f - f_prev)) <= IDENTITY_TOL,
            f"decrement identity off at sweep {rec.sweep} block {rec.mu}",
        )
        f_prev = rec.f


def check_final(trace, fmt, apply, target) -> float:
    """Final f against the own recomputation and the post-step identity."""
    require(bool(trace.records), "empty trace")
    f_final = trace.records[-1].f
    require(f_final == trace.sweep_f[-1], "last record and sweep series disagree on f")
    v = own_iterate(fmt, trace.final_params.blocks)
    scale = max(1.0, float(np.linalg.norm(v)))
    require(
        float(np.linalg.norm(v - trace.final_v.values)) <= IDENTITY_TOL * scale,
        "final iterate differs from U(final params)",
    )
    f_own = own_objective(apply, target, v)
    require(
        abs(f_own - f_final) <= IDENTITY_TOL,
        f"final f {f_final!r} but independent recomputation gives {f_own!r}",
    )
    if not trace.records[-1].degenerate:
        post = -float(target @ v) / (2.0 * float(target @ target))
        require(abs(post - f_final) <= IDENTITY_TOL, "post-step identity f = -<v,b>/(2|b|^2) fails")
    return f_final


def check_solve(trace, fmt, apply, target) -> Outcome:
    check_descent(trace)
    f_final = check_final(trace, fmt, apply, target)
    return Outcome((f_final, len(trace.records)), len(trace.records))


# --- gallery CLI jobs ---------------------------------------------------------

Q_HAT = re.compile(r"q_hat=([^,\s)]+)")


def check_gallery(job, code, stdout, captured, csv_text, q_lambda_formula) -> Outcome:
    """CLI exit code, printed f and q_hat, CSV trace, and the solve itself."""
    require(code == job.expected_code, f"exit code {code}, expected {job.expected_code}")
    require(captured is not None, "the CLI did not solve")
    trace, A, b, fmt, solve_s = captured
    out = check_solve(trace, fmt, operator_apply(A), b.values)
    f_final = out.signature[0]
    require(f"f={f_final!r}" in stdout, "printed f differs from the trace")
    rows = csv_text.splitlines()
    require(len(rows) == len(trace.records) + 1, "CSV row count differs from the trace")
    require(rows[-1].split(",")[2] == repr(f_final), "CSV final f differs from the trace")
    if job.lam is not None:
        match = Q_HAT.search(stdout)
        require(match is not None, "blambda run printed no q_hat")
        q_hat = float(match.group(1))
        want = q_lambda_formula(job.lam)
        require(
            abs(q_hat - want) <= RATE_TOL,
            f"q_hat {q_hat:.5f} vs closed form {want:.5f} at lambda {job.lam!r}",
        )
    return Outcome((code, *out.signature), out.microsteps, solve_s)


# --- transfer-matrix replay ---------------------------------------------------


def own_tangent(reference, vec) -> float:
    ref = np.asarray(reference, dtype=float) / np.linalg.norm(reference)
    c = float(ref @ vec)
    return float(np.linalg.norm(vec - c * ref)) / abs(c)


def check_replay(report, tangent, committed_v, reference) -> Outcome:
    """Replay defect, the committed iterate, and the q_s/q_c factorisation."""
    require(report.defect <= REPLAY_TOL, f"replay defect {report.defect:.3e}")
    scale = max(1.0, float(np.linalg.norm(committed_v)))
    require(
        float(np.linalg.norm(report.v_next.values - committed_v)) <= IDENTITY_TOL * scale,
        "replayed iterate differs from the committed one",
    )
    tan_out = tangent.tan_out
    require(
        abs(tangent.tan_predicted - tan_out) <= REPLAY_TOL * tan_out,
        "tan_out differs from (q_s/q_c) tan_in",
    )
    direct = own_tangent(reference, report.transfer @ report.v_mid.values)
    require(abs(direct - tan_out) <= REPLAY_TOL * tan_out, "tan_out differs from tan(N v_mid)")
    return Outcome((report.defect, tan_out, tangent.q_s, tangent.q_c), 0, 0.0)
