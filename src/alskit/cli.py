"""Command-line front end: run solves, list the gallery, self-verify.

Exit codes: 0 clean, 1 usage/config errors (including unknown labels and
a solve that fails, reported as one "error:" line on stderr),
2 degenerate termination, 3 boundedness-monitor alarm.  When several
jobs run at once the most severe code wins, in the order 2, 3, 1.
Traces are written as CSV with one row per micro-step; floats are
serialized with repr() so identical runs produce identical bytes.

`gallery` lists the built-in instances, `describe LABEL` shows the flags
one of them takes, and `run` rejects any other gallery flag for it.  A bad
setting, from a config file or a flag, exits 1 before any solve starts.
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
from .formats import ParamSystem, format_from_doc
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
        fmt = format_from_doc({"format": "cp", "ranks": [1], **doc})
        shape = fmt.shape
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


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


# run flags for the gallery arguments: (argument name, flag, argparse type,
# help); gallery.SPECS says which label takes which argument
GALLERY_FLAGS = (
    ("lam", "--lambda", float, "blambda coupling"),
    ("tau", "--tau", float, "mohlenkamp start parameter"),
    ("n", "--n", int, "mode size"),
    ("r", "--r", int, "term count (totally_orthogonal)"),
    ("seed", "--seed", int, "construction seed"),
    ("dims", "--dims", _int_tuple, "comma-separated mode sizes"),
    ("t_dims", "--t-dims", _int_tuple, "comma-separated core sizes (tucker)"),
)


def _instance_from_gallery(label: str, args: dict) -> ProblemInstance:
    if label not in gallery.LABELS:
        raise CliError(f"unknown gallery label {label!r}")
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
SETTINGS = (*DEFAULTS, "output", "dump_target")


def _check_settings(job: dict):
    """Convert the numeric run settings in place; a bad value is a usage error.

    ``angle_mode`` is left to the solver, which rejects an unknown mode.
    """
    for key, default in DEFAULTS.items():
        val = job[key]
        if isinstance(default, str) or (key == "angle_tol" and val is None):
            continue
        try:
            job[key] = type(default)(val)
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if isinstance(default, int) else "a number"
            raise CliError(f"{key} must be {kind}, got {val!r}") from None
    for key in ("output", "dump_target"):
        if job.get(key) is not None and not isinstance(job[key], str):
            raise CliError(f"{key} must be a file path, got {job[key]!r}")


def _job_from_config(doc: dict, overrides: dict) -> dict:
    job = dict(DEFAULTS)
    job.update({k: v for k, v in doc.items() if k not in ("args", "problem")})
    gallery_args = doc.get("args", {})
    if not isinstance(gallery_args, dict):
        raise CliError(f"config 'args' must be a JSON object, got {gallery_args!r}")
    gallery_args = dict(gallery_args)
    for key, val in overrides.items():
        if key in SETTINGS:
            job[key] = val
        else:
            gallery_args[key] = val
    _check_settings(job)
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
            max_sweeps=job["max_sweeps"],
            f_tol=job["f_tol"],
            grad_tol=job["grad_tol"],
            angle_tol=job["angle_tol"],
        )
        trace = run(
            instance.A,
            instance.b,
            instance.fmt,
            instance.init,
            stop,
            eps_rank=job["eps_rank"],
            reference=instance.reference,
            reference_factor=instance.reference_factor,
            angle_mode=job["angle_mode"],
            label=instance.label,
        )
    except ValueError as exc:
        # e.g. an operator above the SPD check cap that is not definite
        return EXIT_USAGE, [], f"error: [{instance.label}] {exc}"
    report = assumption_monitors(trace, growth_threshold=job["growth_threshold"])

    lines = [
        f"[{instance.label}] sweeps={trace.sweeps} termination={trace.termination} "
        f"f={trace.sweep_f[-1]!r}"
    ]
    series = trace.tangent_series()
    finite = [t for t in series if np.isfinite(t)]
    if finite and len(finite) == len(series):
        window = effective_window(len(series), job["rate_window"])
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
    for key in (*(name for name, *_ in GALLERY_FLAGS), *SETTINGS):
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


def cmd_gallery(_args) -> int:
    for label in gallery.LABELS:
        print(f"{label:20s} {gallery.SPECS[label].summary}")
    return EXIT_OK


def cmd_describe(args) -> int:
    label = args.label
    if label not in gallery.LABELS:
        print(f"error: unknown gallery label {label!r}", file=sys.stderr)
        return EXIT_USAGE
    print(gallery.SPECS[label].details)
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
    for name, flag, kind, help_text in GALLERY_FLAGS:
        p_run.add_argument(flag, dest=name, type=kind, help=help_text)
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
