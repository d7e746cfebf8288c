"""Compare this tree's outputs with another tree's, number by number.

    python3 tools/compare_outputs.py PARENT_TREE

Run from anywhere; PARENT_TREE is a checkout of the tree to compare with
(for example ``git archive HEAD~1 | tar -x -C /tmp/parent``).  Each tree
runs the same inputs in its own interpreter, with its own ``src`` first on
the path and one BLAS thread:

- gallery: stdout, stderr, exit code and ``--output`` CSV of
  ``alskit run --gallery LABEL`` for every gallery label at its defaults,
  and for ``blambda`` at lambda 0.1, 0.3 and 0.5;
- verify: stdout, stderr and exit code of ``alskit verify``;
- ladder: the ``modewise_ladder`` problems on seeds 3, 7 and 101, solved as
  the benchmark solves them: every micro-step record, ``sweep_f``,
  ``dist_a``, the final parameters and the final iterate;
- replay: the ``replay`` problems on seeds 1 and 3: the recorded run (the
  same trace fields) and, for every replayed step pair, the recursion
  defect and the tangent recursion.

The ladder and replay inputs are drawn by this tree's
``perfbench/workloads.py``, which is only read.  Each output prints
"identical" (bit for bit) or how it differs: in its text, or by its largest
difference in units in the last place (ULP), numbers in text included.
Exits 1 if any output differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
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


def collect(tree: Path) -> dict:
    """Every output of the tree at ``tree``, by name."""
    sys.path.insert(0, str(HERE / "perfbench"))
    sys.path.insert(0, str(tree / "src"))
    import alskit
    import alskit.cli
    import workloads

    outputs = {}
    for label in alskit.gallery.LABELS:
        runs = GALLERY_RUNS if label == "blambda" else [[]]
        for args in runs:
            argv = ["run", "--gallery", label, *args, "--output", "trace.csv"]
            text = _cli(alskit, argv)
            with open("trace.csv") as fh:
                text += fh.read()
            os.remove("trace.csv")
            outputs[" ".join(["gallery", label, *args])] = _text_output(text)
    outputs["verify"] = _text_output(_cli(alskit, ["verify"]))

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
    return outputs


# --- comparing two trees' outputs --------------------------------------------------


def ulp_distance(a, b) -> int:
    """Largest distance in ULP between equal-shaped float arrays (0 and -0 are 0 apart)."""

    def ordinal(x):
        # the float64 bit patterns on one integer line: negatives count down from 0
        bits = np.asarray(x, dtype=np.float64).view(np.int64).tolist()
        return [i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF) for i in bits]

    return max((abs(x - y) for x, y in zip(ordinal(a), ordinal(b))), default=0)


def difference(got, want) -> str | None:
    """None if the two outputs are bit for bit the same, else how they differ."""
    (text, numbers), (want_text, want_numbers) = got, want
    if text != want_text or numbers.shape != want_numbers.shape:
        return "differs in its text"
    if numbers.tobytes() == want_numbers.tobytes():
        return None
    ulps = ulp_distance(numbers, want_numbers)
    return f"differs by at most {ulps} ULP" if ulps else "differs in the sign of a zero"


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
