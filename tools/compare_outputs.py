"""Compare this tree's outputs with another tree's, number by number.

    python3 tools/compare_outputs.py PARENT_TREE

Run from anywhere; PARENT_TREE is a checkout of the tree to compare with
(for example ``git archive HEAD~1 | tar -x -C /tmp/parent``).  Each tree
runs the same inputs in its own interpreter, with its own ``src`` first on
the path and one BLAS thread:

- listing: stdout, stderr and exit code of ``alskit gallery`` and of
  ``alskit describe LABEL`` for every gallery label, the text that
  ``gallery.SPECS`` drives;
- gallery: stdout, stderr, exit code, ``--output`` CSV and
  ``--dump-target`` CSV of ``alskit run --gallery LABEL`` for every
  gallery label at its defaults, and for ``blambda`` at lambda 0.1, 0.3
  and 0.5;
- verify: stdout, stderr and exit code of ``alskit verify``;
- errors: stdout, stderr and exit code of runs that fail on overflow:
  ``run --gallery blambda --lambda 1e308``, ``run --gallery mohlenkamp
  --tau 1e308``, and the two configs of finite CP parameters whose
  unfolding factor (structured route, an SVD) or formed Gram matrix
  overflows, built as ``tests/test_cli.py`` builds them; and of seven
  problem documents rejected before any solve: a NaN reference factor,
  an inf entry in a mode-wise operator factor, fractional dims, and a
  string or a bool where a number belongs (a dense target entry, a term
  coefficient, an init entry, a dense operator entry);
- scaled: 3 sweeps on ``verification.random_problem(11)`` (TT (2, 4),
  mode-wise) with its target scaled by 1e-150 and by 1e+150, where the
  squares of the gradient's entries underflow and overflow: the trace
  fields of the ladder below;
- ladder: the ``modewise_ladder`` problems on seeds 3, 7 and 101, solved as
  the benchmark solves them: every micro-step record, ``sweep_f``,
  ``dist_a``, the final parameters and the final iterate;
- replay: the ``replay`` problems on seeds 1 and 3: the recorded run (the
  same trace fields) and, for every replayed step pair, the recursion
  defect and the tangent recursion;
- route: 3 sweeps on each identity system of ``verification.ROUTE_CASES``
  (``verification.sized_problem`` on seed 3), whose steps take the
  structured route: the trace fields of the ladder;
- gradients: ``full_gradient`` at the start state of
  ``verification.sized_problem`` on seed 3 with a mode-wise operator, for
  each of the four ``modewise_ladder`` sizes.

The ladder and replay inputs are drawn by this tree's
``perfbench/workloads.py``, which is only read.  Each output prints
"identical" (bit for bit) or how it differs: in its text, or by its largest
difference in units in the last place (ULP), numbers in text included, and
by its largest difference relative to its largest magnitude (a ULP count
near zero can be huge for a rounding-level change).  Exits 1 if any output
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GALLERY_RUNS = [[]] + [["--lambda", lam] for lam in ("0.1", "0.3", "0.5")]
LADDER_SEEDS = (3, 7, 101)
REPLAY_SEEDS = (1, 3)
SIZED_SEED = 3  # of every verification.sized_problem below

# a number in text: decimal or exponent notation, or a whole-word inf/nan
NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b")


# --- collecting one tree's outputs (run in a child interpreter) -------------------


def _text_output(text: str):
    """(skeleton, numbers): the text with its numbers cut out, and the numbers."""
    return NUMBER.sub("#", text), np.array([float(x) for x in NUMBER.findall(text)])


def _cli(alskit, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = alskit.cli.main(argv)
        except SystemExit as exc:  # argparse's exits
            code = exc.code
    return f"{out.getvalue()}\n--- stderr\n{err.getvalue()}\n--- exit {code}\n"


def listing_outputs(alskit) -> dict:
    """``alskit gallery`` and ``alskit describe LABEL`` for every label, by name."""
    outputs = {"gallery listing": _text_output(_cli(alskit, ["gallery"]))}
    for label in alskit.gallery.LABELS:
        outputs[f"describe {label}"] = _text_output(_cli(alskit, ["describe", label]))
    return outputs


def _overflow_config(alskit, dims, operator) -> dict:
    """A one-sweep CP config whose finite parameters overflow in the first step's W."""
    m = dims[0]
    A, b, fmt, p = alskit.verification.sized_problem(44, "cp", dims, 3, operator)
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    blocks[0][:m] *= 1e-300  # column 0 of the mode-0 factor
    blocks[1][0] = blocks[2][0] = 1e200
    if operator == "identity":
        op = {"kind": "identity"}
    else:
        op = {"kind": "modewise", "factors": [f.tolist() for f in A.factors]}
    problem = {
        "dims": list(dims),
        "format": "cp",
        "ranks": [3],
        "operator": op,
        "target": {"dense": b.values.tolist()},
        "init": [block.tolist() for block in blocks],
    }
    return {"problem": problem, "max_sweeps": 1}


def _bad_problem_config(change: dict) -> dict:
    """A one-sweep rank-one CP config on (2, 1) with ``change`` applied to its problem document."""
    problem = {
        "dims": [2, 1],
        "format": "cp",
        "ranks": [1],
        "target": {"dense": [1.0, 0.5]},
        "init": [[1.0, 1.0], [1.0]],
    }
    return {"problem": {**problem, **change}, "max_sweeps": 1}


def error_outputs(alskit) -> dict:
    """Runs that end in an error, by name: stdout, stderr and exit code."""
    outputs = {}
    for label, flag in (("blambda", "--lambda"), ("mohlenkamp", "--tau")):
        argv = ["run", "--gallery", label, flag, "1e308"]
        outputs[f"error {label} {flag} 1e308"] = _text_output(_cli(alskit, argv))
    configs = {
        "error overflow svd": _overflow_config(alskit, (8, 8, 8), "modewise"),
        "error overflow gram": _overflow_config(alskit, (4, 4, 4), "identity"),
    }
    # problem documents rejected before any solve
    inf_operator = {"kind": "modewise", "factors": [[[1.0, 0.0], [0.0, float("inf")]], [[1.0]]]}
    bad_problems = {
        "nan reference factor": {"reference_factor": [float("nan"), 1.0]},
        "inf modewise factor": {"operator": inf_operator},
        "fractional dims": {"dims": [2.7, 1]},
        "string dense target": {"target": {"dense": ["1", "0.5"]}},
        "string coeff": {"target": {"terms": [{"coeff": "2", "vectors": [[1.0, 0.5], [1.0]]}]}},
        "bool init": {"init": [[1.0, True], [1.0]]},
        "string operator matrix": {
            "operator": {"kind": "dense", "matrix": [[1.0, 0.0], [0.0, "1"]]}
        },
    }
    for name, change in bad_problems.items():
        configs[f"error {name}"] = _bad_problem_config(change)
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, doc) in enumerate(configs.items()):
            path = Path(tmp) / f"{i}.json"
            path.write_text(json.dumps(doc))
            outputs[name] = _text_output(_cli(alskit, ["run", "--config", str(path)]))
    return outputs


def _trace_output(trace):
    """(text, numbers) of a run trace: its records, sweep series and final state."""
    tangents = trace.sweep_tangent
    text = (
        f"termination={trace.termination} sweeps={trace.sweeps} angle_mode={trace.angle_mode} "
        f"records={len(trace.records)} tangent_none={[t is None for t in tangents]}"
    )
    parts = [
        [value for rec in trace.records for value in dataclasses.astuple(rec)],
        [trace.initial_f, trace.initial_param_norm_max],
        trace.sweep_f,
        trace.dist_a,
        [t for t in tangents if t is not None],
        *trace.final_params.blocks,
        trace.final_v.values,
    ]
    return text, np.concatenate([np.asarray(part, dtype=float).ravel() for part in parts])


def scaled_outputs(alskit) -> dict:
    """Traces of ``random_problem(11)`` with its target scaled by 1e-150 and by 1e+150, by name."""
    A, b, fmt, p = alskit.verification.random_problem(11)
    outputs = {}
    for scale in (1e-150, 1e150):
        target = alskit.DenseTensor(b.shape, scale * b.values)
        trace = alskit.run(A, target, fmt, p, alskit.StopRule(max_sweeps=3))
        outputs[f"scaled target {scale:g}"] = _trace_output(trace)
    return outputs


def collect(tree: Path) -> dict:
    """Every output of the tree at ``tree``, by name."""
    sys.path.insert(0, str(HERE / "perfbench"))
    sys.path.insert(0, str(tree / "src"))
    import alskit
    import alskit.cli
    import alskit.verification
    import workloads

    outputs = listing_outputs(alskit)
    for label in alskit.gallery.LABELS:
        runs = GALLERY_RUNS if label == "blambda" else [[]]
        for args in runs:
            argv = ["run", "--gallery", label, *args]
            text = _cli(alskit, argv + ["--output", "trace.csv", "--dump-target", "target.csv"])
            for csv in ("trace.csv", "target.csv"):
                with open(csv) as fh:
                    text += fh.read()
                os.remove(csv)
            outputs[" ".join(["gallery", label, *args])] = _text_output(text)
    outputs["verify"] = _text_output(_cli(alskit, ["verify"]))
    outputs.update(error_outputs(alskit))
    outputs.update(scaled_outputs(alskit))

    for seed in LADDER_SEEDS:
        stop = alskit.StopRule(max_sweeps=workloads.LADDER_SWEEPS)
        problems = workloads.ladder_inputs(seed)
        for prob, A, b, fmt, init in workloads.ladder_build(alskit, problems):
            trace = alskit.run(A, b, fmt, init, stop)
            outputs[f"ladder seed {seed} {prob['name']}"] = _trace_output(trace)

    for seed in REPLAY_SEEDS:
        stop = alskit.StopRule(max_sweeps=workloads.RECORD_SWEEPS)
        problems = workloads.replay_inputs(seed)
        for prob, inst in zip(problems, workloads.replay_build(alskit, problems)):
            A, b, fmt = inst.A, inst.b, inst.fmt
            trace = alskit.run(
                A, b, fmt, inst.init, stop,
                reference=inst.reference, reference_factor=inst.reference_factor,
                keep_params=True,
            )
            name = f"replay seed {seed} {prob['name']}"
            outputs[f"{name} record"] = _trace_output(trace)
            ref = (b if inst.reference is None else inst.reference).values
            replays = []
            for ctx in alskit.recursion_contexts(trace):
                report = alskit.recursion_check(A, b, fmt, ctx)
                tangent = alskit.tangent_recursion(report.transfer, ref, report.v_mid.values)
                replays.append([report.defect, *dataclasses.astuple(tangent)])
            outputs[f"{name} replays"] = (f"pairs={len(replays)}", np.array(replays).ravel())

    for case in alskit.verification.ROUTE_CASES:
        if case[3] == "identity":
            A, b, fmt, p = alskit.verification.sized_problem(SIZED_SEED, *case)
            trace = alskit.run(A, b, fmt, p, alskit.StopRule(max_sweeps=3))
            outputs["route " + " ".join(map(str, case))] = _trace_output(trace)

    for kind, dims, rank in workloads.LADDER:
        A, b, fmt, p = alskit.verification.sized_problem(SIZED_SEED, kind, dims, rank, "modewise")
        outputs[f"gradient {kind} {dims} {rank}"] = ("", alskit.full_gradient(A, b, fmt, p))
    return outputs


# --- comparing two trees' outputs --------------------------------------------------


def ulp_distance(a, b) -> int:
    """Largest distance in ULP between equal-shaped float arrays (0 and -0 are 0 apart)."""

    def ordinal(x):
        # the float64 bit patterns on one integer line: negatives count down from 0
        bits = np.asarray(x, dtype=np.float64).view(np.int64).tolist()
        return [i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF) for i in bits]

    return max((abs(x - y) for x, y in zip(ordinal(a), ordinal(b))), default=0)


def relative_difference(a, b) -> float:
    """Largest |a - b| over the entries that differ, over the largest finite magnitude in a and b.

    A differing pair with a NaN or inf in it is infinitely far apart, and
    so is any difference between arrays whose finite entries are all zero.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    differ = a.view(np.int64) != b.view(np.int64)
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = np.abs(a[differ] - b[differ])
    gap = float(np.where(np.isnan(gaps), np.inf, gaps).max(initial=0.0))
    both = np.concatenate([a.ravel(), b.ravel()])
    scale = float(np.abs(both[np.isfinite(both)]).max(initial=0.0))
    if gap == 0.0:
        return 0.0
    return gap / scale if scale else math.inf


def difference(got, want) -> str | None:
    """None if the two outputs are bit for bit the same, else how they differ."""
    (text, numbers), (want_text, want_numbers) = got, want
    if text != want_text or numbers.shape != want_numbers.shape:
        return "differs in its text"
    if numbers.tobytes() == want_numbers.tobytes():
        return None
    ulps = ulp_distance(numbers, want_numbers)
    if not ulps:
        return "differs in the sign of a zero"
    rel = relative_difference(numbers, want_numbers)
    return f"differs by at most {ulps} ULP, {rel:.2g} relative to its largest magnitude"


def _run_child(tree: Path, out: Path):
    env = dict(os.environ, **{name: "1" for name in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as cwd:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--dump", str(out), str(tree)],
            cwd=cwd, env=env, check=True,
        )
    with open(out, "rb") as fh:
        return pickle.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="the tree to compare with (its src/ is run)")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:  # child: collect the tree's outputs
        with open(args.dump, "wb") as fh:
            pickle.dump(collect(args.tree.resolve()), fh)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        want = _run_child(args.tree.resolve(), Path(tmp) / "parent.pkl")
        got = _run_child(HERE, Path(tmp) / "this.pkl")
    failures = 0
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            verdict = "only in " + ("this tree" if name in got else "the other tree")
        else:
            verdict = difference(got[name], want[name])
        failures += verdict is not None
        print(f"{name}: {verdict or 'identical'}")
    print(f"{failures} of {len(got | want)} outputs differ" if failures else f"all {len(got)} outputs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
