"""Command-line front end: run solves, list the gallery, self-verify.

Exit codes: 0 clean, 1 usage/config errors (including unknown labels and
a solve that fails, reported as one "error:" line on stderr),
2 degenerate termination, 3 boundedness-monitor alarm.  When several
jobs run at once the most severe code wins, in the order 2, 3, 1.
Traces are written as CSV with one row per micro-step; floats are
serialized with repr() so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import gallery, verification
from .diagnostics import assumption_monitors, effective_window, rate_estimate
from .engine import StopRule, run
from .formats import CpFormat, ParamSystem, TtFormat
from .gallery import ProblemInstance
from .tensors import (
    DenseOperator,
    DenseTensor,
    IdentityOperator,
    ModeWiseOperator,
    Shape,
    index_value_rows,
    rank_one_sum,
)

CSV_HEADER = "sweep,mu,f,decrement,grad_norm,W_rank,resid_orth,param_norm_max,tan_angle,ratio"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_UNBOUNDED = 3


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with the degenerate code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt_float(x) -> str:
    return repr(float(x))


def _resolve_output(path: str) -> str:
    base = os.environ.get("ALSKIT_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def write_trace_csv(trace, num_blocks: int, path: str):
    ratios = trace.tangent_ratios()
    lines = [CSV_HEADER]
    for rec in trace.records:
        last_of_sweep = rec.mu == num_blocks - 1
        tan_cell = ""
        ratio_cell = ""
        if last_of_sweep and rec.tan_angle is not None:
            tan_cell = _fmt_float(rec.tan_angle)
            idx = rec.sweep - 1
            if 0 <= idx < len(ratios) and ratios[idx] is not None:
                ratio_cell = _fmt_float(ratios[idx])
        lines.append(
            ",".join(
                [
                    str(rec.sweep),
                    str(rec.mu),
                    _fmt_float(rec.f),
                    _fmt_float(rec.decrement),
                    _fmt_float(rec.grad_norm),
                    str(rec.W_rank),
                    _fmt_float(rec.resid_orth),
                    _fmt_float(rec.param_norm_max),
                    tan_cell,
                    ratio_cell,
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_target_csv(b: DenseTensor, path: str):
    d = b.shape.ndim
    header = ",".join(f"i{k + 1}" for k in range(d)) + ",value"
    lines = [header]
    for idx, val in index_value_rows(b):
        lines.append(",".join(str(int(i)) for i in idx) + "," + _fmt_float(val))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _tensor_from_doc(doc, shape: Shape) -> DenseTensor:
    if "dense" in doc:
        return DenseTensor(shape, np.asarray(doc["dense"], dtype=float).ravel())
    if "terms" in doc:
        terms = [(t["coeff"], t["vectors"]) for t in doc["terms"]]
        return rank_one_sum(shape, terms)
    raise CliError("tensor document needs 'dense' or 'terms'")


def _operator_from_doc(doc, shape: Shape):
    kind = doc.get("kind", "identity")
    if kind == "identity":
        return IdentityOperator(shape)
    if kind == "dense":
        return DenseOperator(shape, np.asarray(doc["matrix"], dtype=float))
    if kind == "modewise":
        return ModeWiseOperator([np.asarray(f, dtype=float) for f in doc["factors"]])
    raise CliError(f"unknown operator kind {kind!r}")


def _instance_from_problem_doc(doc) -> ProblemInstance:
    try:
        shape = Shape(tuple(int(m) for m in doc["dims"]))
        kind = doc.get("format", "cp")
        ranks = [int(r) for r in doc.get("ranks", [1])]
        if kind == "cp":
            fmt = CpFormat(shape, ranks[0])
        elif kind == "tt":
            fmt = TtFormat(shape, ranks)
        else:
            raise CliError(f"unknown format {kind!r}")
        A = _operator_from_doc(doc.get("operator", {}), shape)
        b = _tensor_from_doc(doc["target"], shape)
        init = ParamSystem(doc["init"])
        reference = None
        if "reference" in doc:
            reference = _tensor_from_doc(doc["reference"], shape)
        reference_factor = doc.get("reference_factor")
        return ProblemInstance(
            label=doc.get("label", "custom"),
            A=A,
            b=b,
            fmt=fmt,
            init=init,
            reference=reference,
            reference_factor=reference_factor,
        )
    except CliError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed problem document: {exc}") from exc


GALLERY_ARG_KEYS = {
    "mohlenkamp": {"tau"},
    "blambda": {"lam", "n", "seed"},
    "totally_orthogonal": {"r", "dims", "seed"},
    "desilva_lim": {"n"},
    "counterexample": set(),
    "tucker": {"dims", "t_dims", "seed"},
}


def _instance_from_gallery(label: str, args: dict) -> ProblemInstance:
    if label not in gallery.LABELS:
        raise CliError(f"unknown gallery label {label!r}")
    allowed = GALLERY_ARG_KEYS[label]
    unknown = set(args) - allowed
    if unknown:
        raise CliError(
            f"label {label!r} does not take {sorted(unknown)} (allowed: {sorted(allowed)})"
        )
    try:
        return gallery.get_instance(label, **args)
    except (TypeError, ValueError) as exc:
        raise CliError(f"cannot build {label!r}: {exc}") from exc


DEFAULTS = {
    "max_sweeps": 100,
    "f_tol": 0.0,
    "grad_tol": 0.0,
    "angle_tol": 1e-12,
    "eps_rank": 1e-12,
    "rate_window": 10,
    "angle_mode": "auto",
    "growth_threshold": 1e6,
}


def _job_from_config(doc: dict, overrides: dict) -> dict:
    job = dict(DEFAULTS)
    job.update({k: v for k, v in doc.items() if k not in ("args", "problem")})
    gallery_args = dict(doc.get("args", {}))
    for key, val in overrides.items():
        if key in DEFAULTS or key in ("output", "dump_target"):
            job[key] = val
        else:
            gallery_args[key] = val
    if "problem" in doc:
        if "gallery" in doc:
            raise CliError("config cannot give both 'gallery' and 'problem'")
        job["instance"] = _instance_from_problem_doc(doc["problem"])
    elif "gallery" in doc:
        job["instance"] = _instance_from_gallery(doc["gallery"], gallery_args)
    else:
        raise CliError("config needs a 'gallery' label or a 'problem' document")
    return job


def _execute_job(job: dict) -> tuple[int, list[str], str | None]:
    """Solve one job; returns (exit code, stdout lines, stderr error line)."""
    instance = job["instance"]
    try:
        stop = StopRule(
            max_sweeps=int(job["max_sweeps"]),
            f_tol=float(job["f_tol"]),
            grad_tol=float(job["grad_tol"]),
            angle_tol=(None if job["angle_tol"] is None else float(job["angle_tol"])),
        )
        trace = run(
            instance.A,
            instance.b,
            instance.fmt,
            instance.init,
            stop,
            eps_rank=float(job["eps_rank"]),
            reference=instance.reference,
            reference_factor=instance.reference_factor,
            angle_mode=job["angle_mode"],
            label=instance.label,
        )
    except ValueError as exc:
        # e.g. an operator above the SPD check cap that is not definite
        return EXIT_USAGE, [], f"error: [{instance.label}] {exc}"
    report = assumption_monitors(trace, growth_threshold=float(job["growth_threshold"]))

    lines = [
        f"[{instance.label}] sweeps={trace.sweeps} termination={trace.termination} "
        f"f={trace.sweep_f[-1]!r}"
    ]
    series = trace.tangent_series()
    finite = [t for t in series if np.isfinite(t)]
    if finite and len(finite) == len(series):
        window = effective_window(len(series), int(job["rate_window"]))
        try:
            est = rate_estimate(series, window=window)
            lines.append(
                f"  rate: {est.classification} (q_hat={est.q_hat!r}, window={est.window})"
            )
        except ValueError as exc:
            lines.append(f"  rate: unavailable ({exc})")
    elif series:
        lines.append("  rate: unavailable (non-finite tangents in series)")
    flags = ",".join(report.flags) if report.flags else "none"
    lines.append(
        f"  monitors: growth_ratio={report.growth_ratio:.6g} "
        f"threshold={report.growth_threshold:.6g} flags={flags}"
    )
    if not trace.operator_verified:
        lines.append("  warning: operator definiteness unverified (size above check cap)")
    if instance.flags:
        lines.append(f"  instance flags: {','.join(instance.flags)}")

    if job.get("output"):
        path = _resolve_output(job["output"])
        write_trace_csv(trace, instance.fmt.num_blocks, path)
        lines.append(f"  trace: {path}")
    if job.get("dump_target"):
        path = _resolve_output(job["dump_target"])
        write_target_csv(instance.b, path)
        lines.append(f"  target: {path}")

    code = EXIT_OK
    if report.unbounded_suspect:
        code = EXIT_UNBOUNDED
    if trace.termination == "degenerate":
        code = EXIT_DEGENERATE  # degenerate wins a tie
    return code, lines, None


def _combine_codes(codes) -> int:
    for severity in (EXIT_DEGENERATE, EXIT_UNBOUNDED, EXIT_USAGE):
        if severity in codes:
            return severity
    return EXIT_OK


def cmd_run(args) -> int:
    overrides = {}
    if args.lam is not None:
        overrides["lam"] = args.lam
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.n is not None:
        overrides["n"] = args.n
    if args.r is not None:
        overrides["r"] = args.r
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.dims is not None:
        overrides["dims"] = tuple(int(t) for t in args.dims.split(","))
    if args.t_dims is not None:
        overrides["t_dims"] = tuple(int(t) for t in args.t_dims.split(","))
    for key in (
        "max_sweeps",
        "f_tol",
        "grad_tol",
        "angle_tol",
        "eps_rank",
        "rate_window",
        "angle_mode",
        "growth_threshold",
        "output",
        "dump_target",
    ):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val

    jobs = []
    try:
        if args.config:
            for path in args.config:
                try:
                    with open(path) as fh:
                        doc = json.load(fh)
                except (OSError, json.JSONDecodeError) as exc:
                    raise CliError(f"cannot read config {path}: {exc}") from exc
                if not isinstance(doc, dict):
                    raise CliError(f"config {path} must be a JSON object")
                jobs.append(_job_from_config(doc, overrides))
        else:
            if not args.gallery:
                raise CliError("need --gallery LABEL or --config FILE")
            jobs.append(_job_from_config({"gallery": args.gallery}, overrides))
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if len(jobs) > 1 and args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_execute_job, jobs))
    else:
        outcomes = [_execute_job(job) for job in jobs]

    codes = []
    for code, lines, error in outcomes:
        codes.append(code)
        if error is None:
            print("\n".join(lines))
        else:
            print(error, file=sys.stderr)
    return _combine_codes(codes)


GALLERY_SUMMARIES = {
    "mohlenkamp": "weighted two-term orthogonal target; superlinear rank-one iteration",
    "blambda": "three-term coupling family with closed-form Q-linear rate",
    "totally_orthogonal": "r-term per-mode-orthonormal target; superlinear",
    "desilva_lim": "border-rank pathology: descent with unbounded parameters",
    "counterexample": "bilinear format where stationarity depends on the representative",
    "tucker": "orthonormal-factor target for the transfer-matrix closed form",
}

GALLERY_DETAILS = {
    "mohlenkamp": """\
mohlenkamp: 2 * e1^(x3) + e2^(x3) on (2,2,2), rank-one format, identity operator.
  --tau X        start (tau, 1) in every mode (default 0.4, tau >= 0).
                 tau < 1/2 converges to the e2 branch, tau > 1/2 to e1;
                 tau = 1/2 sits on the basin boundary (no reference).
  Expected: superlinear; factor tangent hits 1e-12 within a few sweeps.""",
    "blambda": """\
blambda: p^(x3) + lambda * (p(x)q(x)q + q(x)p(x)q + q(x)q(x)p) over seeded
orthonormal p, q; rank-one format, identity operator.
  --lambda X     coupling strength; meaningful range [0, 1/2] (default 0.46).
                 lambda < 1/2: Q-linear with rate q_lambda_formula(lambda);
                 lambda = 1/2: sublinear boundary (rate 1). Outside [0, 1/2]
                 the instance is built without a reference and flagged.
  --n N          mode size (default 8).
  --seed S       direction seed (default 7).""",
    "totally_orthogonal": """\
totally_orthogonal: sum of r rank-one terms with per-mode orthonormal factors
and weights (r, ..., 1); rank-one format, identity operator.
  --r R          number of terms (default 2; needs every mode size >= R).
  --dims A,B,..  mode sizes (default 4,4,4).
  --seed S       factor seed (default 0).
  Expected: superlinear convergence toward the dominant term.""",
    "desilva_lim": """\
desilva_lim: x(x)x(x)y + x(x)y(x)x + y(x)x(x)x with x = e1, y = e2; rank-two
format, identity operator. No best rank-2 approximation exists: the objective
keeps falling while parameter norms grow. Run with the boundedness monitor.
  --n N          mode size (default 2).
  The peak block norm grows only like sweeps^(1/12): 1.82x its start at 1e4
  sweeps, 2.67x at 1e6. The default --growth-threshold of 1e6 is out of reach
  of any feasible run; pass a small one (e.g. 1.5, crossed near sweep 900) to
  see exit code 3.""",
    "counterexample": """\
counterexample: custom bilinear format U(x,y) = (x1 y1 + x2 y1, x1 y1 + x2 y1,
x1 y2, x2 y2) on R^2 x R^2 with target (1,1,0,1). The parameter systems
(e1,e1) and (e2,e1) represent the same tensor but only the first is
stationary; runs start at the non-stationary one. Takes no arguments.""",
    "tucker": """\
tucker: target assembled from a super-diagonal core and seeded orthonormal
factor matrices; rank-one format, identity operator.
  --dims A,B,..  tensor mode sizes (default 4,4,4).
  --t-dims A,..  core mode sizes (default 2,2,2).
  --seed S       factor seed (default 0).
  Used by the transfer-matrix (coupling closed form) diagnostics.""",
}


def cmd_gallery(_args) -> int:
    for label in gallery.LABELS:
        print(f"{label:20s} {GALLERY_SUMMARIES[label]}")
    return EXIT_OK


def cmd_describe(args) -> int:
    label = args.label
    if label not in gallery.LABELS:
        print(f"error: unknown gallery label {label!r}", file=sys.stderr)
        return EXIT_USAGE
    print(GALLERY_DETAILS[label])
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks else None
    try:
        results = verification.run_checks(names=names, trials=args.trials)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ok_all = True
    for res in results:
        tag = "PASS" if res.ok else "FAIL"
        ok_all &= res.ok
        print(f"[{tag}] {res.name}: {res.detail}")
    print(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    return EXIT_OK if ok_all else EXIT_USAGE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by every main() call."""
    parser = _Parser(prog="alskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a problem and report diagnostics")
    p_run.add_argument("--config", action="append", help="JSON config file (repeatable)")
    p_run.add_argument("--gallery", help="gallery label to run")
    p_run.add_argument("--lambda", dest="lam", type=float, help="blambda coupling")
    p_run.add_argument("--tau", type=float, help="mohlenkamp start parameter")
    p_run.add_argument("--n", type=int, help="mode size")
    p_run.add_argument("--r", type=int, help="term count (totally_orthogonal)")
    p_run.add_argument("--seed", type=int, help="construction seed")
    p_run.add_argument("--dims", help="comma-separated mode sizes")
    p_run.add_argument("--t-dims", dest="t_dims", help="comma-separated core sizes (tucker)")
    p_run.add_argument("--max-sweeps", dest="max_sweeps", type=int)
    p_run.add_argument("--f-tol", dest="f_tol", type=float)
    p_run.add_argument("--grad-tol", dest="grad_tol", type=float)
    p_run.add_argument(
        "--angle-tol",
        dest="angle_tol",
        type=float,
        help="stop when the tangent drops below this (<= 0 disables; default 1e-12)",
    )
    p_run.add_argument("--eps-rank", dest="eps_rank", type=float)
    p_run.add_argument("--rate-window", dest="rate_window", type=int)
    p_run.add_argument(
        "--angle-mode",
        dest="angle_mode",
        choices=["auto", "factor", "full", "none"],
    )
    p_run.add_argument("--growth-threshold", dest="growth_threshold", type=float)
    p_run.add_argument("--output", help="write the per-micro-step CSV trace here")
    p_run.add_argument(
        "--dump-target", dest="dump_target", help="write the target tensor as index/value CSV"
    )
    p_run.add_argument("--jobs", type=int, default=1, help="run config files concurrently")
    p_run.set_defaults(func=cmd_run)

    p_gal = sub.add_parser("gallery", help="list built-in problem instances")
    p_gal.set_defaults(func=cmd_gallery)

    p_desc = sub.add_parser("describe", help="document one gallery label")
    p_desc.add_argument("label")
    p_desc.set_defaults(func=cmd_describe)

    p_ver = sub.add_parser("verify", help="run the invariant/oracle check suite")
    p_ver.add_argument("--trials", type=int, help="override randomized-check trial counts")
    p_ver.add_argument("--checks", help="comma-separated subset of check names")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
