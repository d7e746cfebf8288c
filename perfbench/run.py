"""alskit benchmark: one workload per process, closed loop, one BLAS thread.

    python3 perfbench/run.py --workload gallery_cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off, its times scaled to reference-host seconds by a
reference kernel sampled between jobs (hostspeed.py; the unscaled figures
are printed too); ``--trace 1`` runs a fixed, seed-determined job
set untraced and then again with spans recorded around every layer, and
reports the per-layer metrics.  Each run checks every job's output and
exits 1 if any job failed.  The last line of standard output is one JSON
object; the lines before it give provenance and the metrics by name.
Results and spans are also written under perfbench/results/.

Only the standard library is imported at module level: numpy must load
after the BLAS thread variables are set, in the ``__main__`` block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("gallery_cli", "modewise_ladder", "replay")  # workloads.WORKLOADS, without numpy
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import alskit, alskit.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "microsteps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics.  SELF_TIMES maps a metric to the span whose self time
# it sums over the traced run; COUNTS and RATIOS map a metric to its unit.
SELF_TIMES = {
    "cli.main_self_s": "cli.main",
    "cli.csv_s": "cli.csv",
    "gallery.build_s": "gallery.build",
    "engine.run_self_s": "engine.run",
    "engine.step_self_s": "engine.step",
    "engine.lowdin_s": "engine.lowdin",
    "formats.probe_s": "formats.probe",
    "formats.evaluate_s": "formats.evaluate",
    "tensors.apply_s": "tensors.apply",
    "tensors.inner_s": "tensors.inner",
    "tensors.apply_matrix_s": "tensors.apply_matrix",
    "tensors.operator_build_s": "tensors.operator_build",
    "diagnostics.objective_s": "diagnostics.objective",
    "diagnostics.tangent_s": "diagnostics.tangent",
    "diagnostics.rate_monitor_s": "diagnostics.rate_monitor",
    "diagnostics.replay_self_s": "diagnostics.replay",
    "diagnostics.coupling_s": "diagnostics.coupling",
    "diagnostics.tangent_recursion_s": "diagnostics.tangent_recursion",
}
COUNTS = {
    "engine.lowdin_calls": "count",
    "engine.gram_flops": "flop",
    "engine.microsteps": "count",
    "formats.probe_cols": "count",
    "formats.W_mb_max": "MB",
    "formats.evaluate_calls": "count",
    "tensors.apply_calls": "count",
    "tensors.inner_calls": "count",
    "tensors.apply_matrix_cols": "count",
}
RATIOS = {"engine.rank_kept_ratio": "ratio", "trace.overhead_ratio": "ratio"}

# Single-run figures this benchmark is reconciled against (per micro-step).
BASELINE_NOTES = {
    "cp30^3/r8": "ROADMAP ~0.94 s/step; earlier profile probe ~0.2, Lowdin ~0.16, apply ~0.27 s",
    "cp20^3/r5": "ROADMAP ~0.5 s/step",
    "tt20^3/r5,5": "no ROADMAP figure (ROADMAP times TT 30^3 ranks 8,8 at ~11.5 s/step)",
    "tt16^3/r4,4": "no ROADMAP figure",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(repeats: int) -> list[float]:
    """Wall time of ``import alskit, alskit.cli`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS would use, asked through its own API."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path.endswith(".so"):
                libs.add(path)
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(fn())
                break
    return threads


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "alskit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "alskit_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_setup(workload, alskit, inputs, repeats: int):
    """Median import plus median construction; returns (setup_s, objects)."""
    build_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        objects = workload.build(alskit, inputs)
        build_s.append(time.perf_counter() - t0)
    return statistics.median(import_seconds(repeats)) + statistics.median(build_s), objects


def per_layer(recorder, overhead_ratio: float) -> dict[str, float]:
    import spans

    own = spans.self_time_by_name(recorder)
    counts = recorder.counts
    out = {name: own.get(span, 0.0) for name, span in SELF_TIMES.items()}
    out.update({name: float(counts.get(name, 0.0)) for name in COUNTS})
    offered = counts.get("lowdin.rank_offered", 0.0)
    out["engine.rank_kept_ratio"] = counts.get("lowdin.rank_kept", 0.0) / offered if offered else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out


SPLIT = ("formats.probe", "engine.lowdin", "tensors.apply_matrix", "engine.step")


def layer_split(recorder, runner) -> list[str]:
    """Per-micro-step probe / Lowdin / apply_matrix / step-self split per ladder problem."""
    import numpy as np

    import spans

    name_id, _, _, _, job = recorder.arrays()
    step_id = recorder.names.index("engine.step")
    problem = np.array([key.split(":")[1] for key in runner.keys])
    lines = ["  problem         steps    probe   lowdin   applyM stepself     rest    total  reference"]
    for name in sorted(set(problem)):
        in_problem = np.isin(job, np.flatnonzero(problem == name))
        steps = int(np.sum(in_problem & (name_id == step_id)))
        own = spans.self_time_by_name(recorder, in_problem)
        parts = [own.get(k, 0.0) / steps for k in SPLIT]
        total = sum(own.values()) / steps
        cells = " ".join(f"{x:8.4f}" for x in [*parts, total - sum(parts), total])
        lines.append(f"  {name:14s} {steps:5d} {cells}  {BASELINE_NOTES.get(name, '')}")
    return lines


def trace_cycles(name: str, seconds: float) -> int:
    """Cycles in the traced run's fixed job set: about half of ``seconds`` untraced."""
    import workloads

    return max(1, round(seconds / (2 * workloads.NOMINAL_CYCLE_S[name])))


@dataclass
class Measurement:
    runner: object  # the runner whose wall and jobs the report describes
    runners: list  # every runner whose jobs were checked
    cycles: int
    metrics: dict[str, float]
    units: dict[str, str]
    extra: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def measure_plain(workload, alskit, inputs, work_dir, seconds) -> Measurement:
    """Tracing off, as many whole cycles as fit in ``seconds``.

    The time metrics are scaled to reference-host seconds by the host speed
    sampled between the jobs (see hostspeed.py), set-up included: it is
    over before the jobs start, but the host's phases outlast a run.  The
    unscaled figures are kept as extras.
    """
    import harness
    import hostspeed

    setup_s, objects = timed_setup(workload, alskit, inputs, SETUP_REPEATS)
    warm = harness.warm_up(workload, alskit, objects, work_dir)
    host = hostspeed.HostProbe()
    runner = harness.Runner(work_dir, host=host)
    harness.run_cycles(workload, alskit, objects, runner, cycles=1)
    # Peak RSS once every job of the cycle has run.  Later cycles repeat the
    # same jobs; the heap growth they add comes from glibc raising its mmap
    # threshold as large blocks are freed, and varies from run to run.
    peak_rss = peak_rss_mb()
    cycles = harness.run_cycles(workload, alskit, objects, runner, seconds=seconds, start=1)
    jobs_per_s = runner.attempted / runner.wall_s
    microsteps_per_s = runner.microsteps / runner.solve_s if runner.solve_s else 0.0
    metrics = {
        "setup_s": host.scale_time(setup_s),
        "jobs_per_s": host.scale_rate(jobs_per_s),
        "microsteps_per_s": host.scale_rate(microsteps_per_s),
        "peak_rss_mb": peak_rss,
    }
    extra = {
        "setup_s_raw": setup_s,
        "jobs_per_s_raw": jobs_per_s,
        "microsteps_per_s_raw": microsteps_per_s,
        "host_factor": host.factor(),
        "job_s_p50": statistics.median(runner.job_s),
        "job_s_p90": harness.percentile(runner.job_s, 0.9),
        "peak_rss_mb_all_cycles": peak_rss_mb(),
    }
    return Measurement(runner, [warm, runner], cycles, metrics, END_TO_END, extra)


def measure_traced(workload, alskit, inputs, work_dir, seconds, spans_path) -> Measurement:
    """A fixed job set untraced, then traced; per-layer metrics and result comparison."""
    import harness
    import spans

    objects = workload.build(alskit, inputs)
    warm = harness.warm_up(workload, alskit, objects, work_dir)
    cycles = trace_cycles(workload.name, seconds)
    plain = harness.Runner(work_dir)
    harness.run_cycles(workload, alskit, objects, plain, cycles=cycles)
    recorder = spans.Recorder()
    runner = harness.Runner(work_dir, recorder)
    with spans.Patches(recorder, alskit):
        span = recorder.open(harness.SETUP)
        workload.build(alskit, inputs)
        recorder.close(span)
        harness.run_cycles(workload, alskit, objects, runner, cycles=cycles)
    recorder.save(spans_path)

    failures = harness.compare_signatures(plain, runner)
    defect = spans.nesting_defect(recorder)
    if defect > 1e-6:
        failures.append(("trace", f"self times miss their root span by {defect:.3e} s"))
    extra = {
        "span_count": len(recorder.start),
        "nesting_defect_s": defect,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": runner.wall_s,
    }
    if workload.name == "modewise_ladder":
        extra["split"] = layer_split(recorder, runner)
    metrics = per_layer(recorder, runner.wall_s / plain.wall_s)
    units = {**{k: "s" for k in SELF_TIMES}, **COUNTS, **RATIOS}
    return Measurement(runner, [warm, plain, runner], cycles, metrics, units, extra, failures)


def report(args, m: Measurement) -> dict:
    """Print provenance and metrics by name; return the result object."""
    failures = [f for r in m.runners for f in r.failures] + m.failures
    attempted = sum(r.attempted for r in m.runners)
    m.extra["error_rate"] = len(failures) / attempted
    info = provenance(args.seed)
    info.update(workload=args.workload, trace=args.trace, cycles=m.cycles, jobs=m.runner.attempted,
                timed_wall_s=m.runner.wall_s, seconds=args.seconds)
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace} cycles={m.cycles} "
          f"jobs={m.runner.attempted} timed_wall_s={m.runner.wall_s:.3f}")
    for name, value in m.metrics.items():
        print(f"  {name:34s} {value:.6g} {m.units[name]}")
    for key, value in m.extra.items():
        if key == "job_s_p90" and value is None:
            value = f"n/a ({m.runner.attempted} jobs; needs >= 100 so that 10 lie beyond it)"
        elif key in ("job_s_p50", "job_s_p90"):
            value = f"{value:.6g} s"
        elif key == "peak_rss_mb_all_cycles":
            value = f"{value:.6g} MB"
        elif key.endswith("_raw"):
            value = f"{value:.6g} {END_TO_END[key[:-4]]} (unscaled)"
        elif key == "error_rate":
            value = f"{value:.6g} ({len(failures)}/{attempted})"
        elif key == "split":
            value = "per micro-step, traced (s):\n" + "\n".join(value)
        print(f"  {key:34s} {value:.6g}" if isinstance(value, float) else f"  {key:34s} {value}")
    for key, message in failures[:20]:
        print(f"FAILED {key}: {message}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": m.units[k]} for k, v in m.metrics.items()},
    }
    return {**result, "provenance": info, "extra": m.extra, "failures": failures,
            "job_s": m.runner.job_s}


def run_workload(args, out_dir: Path) -> int:
    sys.path.insert(0, str(SRC))
    import alskit
    import alskit.cli  # noqa: F401 - the gallery workload drives the CLI

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    try:
        inputs = workload.inputs(args.seed)
        if args.trace == 0:
            measured = measure_plain(workload, alskit, inputs, str(work_dir), args.seconds)
        else:
            spans_path = f"{stem}-spans.npz"
            measured = measure_traced(workload, alskit, inputs, str(work_dir), args.seconds, spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record = report(args, measured)
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None, out_dir: Path | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "alskit" / "__init__.py").is_file():
        print(f"error: no alskit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, out_dir or ROOT / "perfbench" / "results")


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads: one BLAS thread
    sys.exit(main())
