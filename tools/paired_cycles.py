"""Time one benchmark workload on this tree and another, in interleaved cycles.

    python3 tools/paired_cycles.py PARENT_TREE --workload modewise_ladder [--pairs 200] [--seed 1]

Run from anywhere; PARENT_TREE is a checkout of the tree to compare with
(for example ``git archive HEAD~1 | tar -x -C /tmp/parent``).  Both trees'
``alskit`` packages are imported into one interpreter, each under its own
package name, with one BLAS thread.  The workload's inputs and cycle are
this tree's ``perfbench/workloads.py``, which is only read: its objects are
built once per tree, from the same seed.  After one warm-up cycle per side,
each pair runs one cycle on each side with the same cycle index, the side
that goes first swapped from pair to pair.  A cycle's time is the time of
its jobs alone, as ``perfbench/harness.Runner`` measures it; the checks run
after the clock stops, and a failed check makes the tool exit 1.

It prints each side's median cycle time and interquartile range (IQR), the
median over pairs of the ratio parent time / this tree's time (above 1:
this tree is faster), and how many pairs each side led.

This is a diagnostic, not the benchmark's gate.  The two sides share one
heap, one allocator state and one set of caches, so each can change how
the other allocates and faults; the gate runs each tree in a process of
its own (``perfbench/run.py``).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_package(tree: Path, name: str):
    """The ``alskit`` package under ``tree/src``, imported as ``name``, with its CLI loaded."""
    src = tree / "src" / "alskit"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _quartiles(samples) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="the tree to compare with (its src/ is run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    for var in BLAS_THREAD_VARS:  # read when numpy first loads BLAS
        os.environ[var] = "1"

    sys.dont_write_bytecode = True  # perfbench/ is only read
    sys.path.insert(0, str(HERE / "perfbench"))
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    sides = {
        "parent": load_package(args.tree.resolve(), "alskit_parent"),
        "this": load_package(HERE, "alskit_this"),
    }
    cycle_s = {side: [] for side in sides}
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        runners, objects = {}, {}
        for side, package in sides.items():
            work_dir = os.path.join(tmp, side)
            os.mkdir(work_dir)
            runners[side] = harness.Runner(work_dir)
            objects[side] = workload.build(package, workload.inputs(args.seed))
            workload.cycle(package, objects[side], 0, runners[side])  # warm-up
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                runner = runners[side]
                before = runner.wall_s
                workload.cycle(sides[side], objects[side], pair + 1, runner)
                cycle_s[side].append(runner.wall_s - before)
        for side, runner in runners.items():
            for key, error in runner.failures:
                print(f"{side} {key}: {error}")
            failures += runner.failed

    ratios = [p / t for p, t in zip(cycle_s["parent"], cycle_s["this"])]
    for side in sides:
        q1, median, q3 = _quartiles(cycle_s[side])
        print(f"{side}: median cycle {median * 1e3:.3f} ms, IQR {(q3 - q1) * 1e3:.3f} ms")
    led = sum(r > 1.0 for r in ratios)
    print(f"median ratio parent/this {statistics.median(ratios):.4f} over {len(ratios)} pairs")
    print(f"this tree led {led} pairs, the parent {sum(r < 1.0 for r in ratios)}")
    if failures:
        print(f"{failures} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
