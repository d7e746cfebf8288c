"""Command-line front end: run solves, list the gallery, self-verify.

``DESCRIPTION``, the text `alskit --help` prints, gives the exit codes.
Traces are written as CSV with one row per micro-step; floats are
serialized with repr() so identical runs produce identical bytes.

`gallery` lists the built-in instances, `describe LABEL` shows the flags
one of them takes, and `run` rejects any other gallery flag for it.  The
run settings come from one table, ``RUN_SETTINGS``: each row is a flag and
a config key.  A bad setting, from a config file or a flag, exits 1 before
any solve starts; a config value must already have the setting's type.
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
from .diagnostics import (
    EPS_RANK_DEFAULT,
    GROWTH_THRESHOLD_DEFAULT,
    RATE_WINDOW_DEFAULT,
    assumption_monitors,
    effective_window,
    rate_estimate,
)
from .engine import StopRule, check_eps_rank, run
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

DESCRIPTION = (
    "Block-coordinate ALS on multilinear tensor formats: run solves, list the "
    "gallery, self-verify.  Exit codes: 0 clean; 1 usage or config error, "
    'unknown label or failed solve, reported as one "error:" line on stderr; '
    "2 degenerate termination; 3 boundedness-monitor alarm.  When several jobs "
    "run at once the most severe code wins, in the order 2, 3, 1."
)


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
        tan = ratio = None  # per-sweep values, on the sweep's last row only
        if rec.mu == num_blocks - 1:
            tan, ratio = trace.sweep_tangent[rec.sweep - 1], ratios[rec.sweep - 1]
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
                    "" if tan is None else _fmt_float(tan),
                    "" if ratio is None else _fmt_float(ratio),
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


# --angle-mode: which of the instance's references ``run`` gets, and so which
# tangent it tracks; "auto" passes both, and ``run`` takes the factor first
ANGLE_MODES = ("auto", "factor", "full", "none")


# run settings: (name, argparse type or the allowed values, default, help);
# the flag is the name with dashes, and a config file takes the name as key
RUN_SETTINGS = (
    ("max_sweeps", int, 100, None),
    ("f_tol", float, 0.0, None),
    ("grad_tol", float, 0.0, None),
    (
        "angle_tol",
        float,
        1e-12,
        "stop when the tangent drops below this (<= 0 disables; default {})",
    ),
    ("eps_rank", float, EPS_RANK_DEFAULT, None),
    ("rate_window", int, RATE_WINDOW_DEFAULT, None),
    ("angle_mode", ANGLE_MODES, "auto", None),
    ("growth_threshold", float, GROWTH_THRESHOLD_DEFAULT, None),
    ("output", str, None, "write the per-micro-step CSV trace here"),
    ("dump_target", str, None, "write the target tensor as index/value CSV"),
)


def _check_settings(job: dict):
    """Check the run settings in place; a bad value is a usage error.

    Values are checked, not converted: an integer setting takes an integer,
    a number setting an integer (stored as a float) or a float; a bool or
    a string is neither.  Builds the job's StopRule, which checks the stop
    settings.  A null from a config file turns off a setting that can be off.
    """
    for name, kind, default, _ in RUN_SETTINGS:
        val = job[name]
        if val is None and (default is None or name == "angle_tol"):
            continue
        if isinstance(kind, tuple):
            if val not in kind:
                raise CliError(f"{name} must be one of {', '.join(kind)}, got {val!r}")
        elif kind is str:
            if not isinstance(val, str):
                raise CliError(f"{name} must be a file path, got {val!r}")
        else:
            # type(), not isinstance(): a JSON true is not the integer 1
            ok = type(val) is int or (kind is float and type(val) is float)
            try:
                if not ok:
                    raise TypeError
                job[name] = kind(val)
            except (TypeError, OverflowError):
                what = "an integer" if kind is int else "a number"
                raise CliError(f"{name} must be {what}, got {val!r}") from None
    check_eps_rank(job["eps_rank"])
    if job["rate_window"] < 1:
        raise CliError(f"rate_window must be >= 1, got {job['rate_window']!r}")
    if not job["growth_threshold"] > 0:
        raise CliError(f"growth_threshold must be positive, got {job['growth_threshold']!r}")
    job["stop"] = StopRule(job["max_sweeps"], job["f_tol"], job["grad_tol"], job["angle_tol"])


# The build and the solve run with numpy's floating-point warnings off: an
# overflow or invalid operation reaches the user as the one "error:" line of
# a finiteness check, not as warning lines before it.  The state is
# thread-local, so the decorator sets it in every --jobs worker too.
@np.errstate(all="ignore")
def _job_from_config(doc: dict, overrides: dict) -> dict:
    job = {name: default for name, _, default, _ in RUN_SETTINGS}
    known = ("gallery", "problem", "args", *job)
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise CliError(f"config has unknown keys {unknown} (it takes {', '.join(known)})")
    job.update({k: v for k, v in doc.items() if k in job})
    gallery_args = doc.get("args", {})
    if not isinstance(gallery_args, dict):
        raise CliError(f"config 'args' must be a JSON object, got {gallery_args!r}")
    gallery_args = dict(gallery_args)
    for key, val in overrides.items():
        if key in job:
            job[key] = val
        else:
            gallery_args[key] = val
    _check_settings(job)
    if "problem" in doc:
        if "gallery" in doc:
            raise CliError("config cannot give both 'gallery' and 'problem'")
        given = (["args"] if "args" in doc else []) + [
            flag for key, flag, *_ in GALLERY_FLAGS if key in overrides
        ]
        if given:
            raise CliError(f"a 'problem' config takes no gallery arguments, got {', '.join(given)}")
        job["instance"] = _instance_from_problem_doc(doc["problem"])
    elif "gallery" in doc:
        job["instance"] = _instance_from_gallery(doc["gallery"], gallery_args)
    else:
        raise CliError("config needs a 'gallery' label or a 'problem' document")
    return job


@np.errstate(all="ignore")
def _execute_job(job: dict) -> tuple[int, list[str], str | None]:
    """Solve one job; returns (exit code, stdout lines, stderr error line)."""
    instance, mode = job["instance"], job["angle_mode"]
    try:
        if mode == "factor" and instance.reference_factor is None:
            raise ValueError("angle mode 'factor' needs a reference factor")
        if mode == "full" and instance.reference is None:
            raise ValueError("angle mode 'full' needs a reference tensor")
        trace = run(
            instance.A,
            instance.b,
            instance.fmt,
            instance.init,
            job["stop"],
            eps_rank=job["eps_rank"],
            reference=instance.reference if mode in ("auto", "full") else None,
            reference_factor=instance.reference_factor if mode in ("auto", "factor") else None,
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
    if series:
        window = effective_window(len(series), job["rate_window"])
        try:
            est = rate_estimate(series, window=window)
            lines.append(
                f"  rate: {est.classification} (q_hat={est.q_hat!r}, window={est.window})"
            )
        except ValueError as exc:
            lines.append(f"  rate: unavailable ({exc})")
    flags = ",".join(report.flags) if report.flags else "none"
    lines.append(
        f"  monitors: growth_ratio={report.growth_ratio:.6g} "
        f"threshold={job['growth_threshold']:.6g} flags={flags}"
    )
    if not instance.A.verified:
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


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config {path} must be a JSON object")
    return doc


def cmd_run(args) -> int:
    overrides = {}
    for key, *_ in (*GALLERY_FLAGS, *RUN_SETTINGS):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val

    jobs = []
    try:
        if args.jobs < 1:
            raise CliError(f"jobs must be >= 1, got {args.jobs}")
        if not (args.config or args.gallery):
            raise CliError("need --gallery LABEL or --config FILE")
        # read lazily: a config's job is checked before the next file is read
        docs = map(_read_config, args.config) if args.config else [{}]
        for doc in docs:
            if args.gallery:  # the flag wins over a config's label, like every flag
                doc["gallery"] = args.gallery
            jobs.append(_job_from_config(doc, overrides))
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
    parser = _Parser(prog="alskit", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a problem and report diagnostics")
    p_run.add_argument("--config", action="append", help="JSON config file (repeatable)")
    p_run.add_argument("--gallery", help="gallery label to run")
    for name, flag, kind, help_text in GALLERY_FLAGS:
        p_run.add_argument(flag, dest=name, type=kind, help=help_text)
    for name, kind, default, help_text in RUN_SETTINGS:
        kw = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        if help_text is not None:
            kw["help"] = help_text.format(default)
        p_run.add_argument("--" + name.replace("_", "-"), **kw)
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
