"""The three workloads: seeded inputs, program objects, and one cycle of jobs.

Every workload repeats cycles of jobs.  ``inputs(seed)`` draws plain numbers
and arrays from the seed alone; ``build(alskit, inputs)`` turns them into
the program's objects (operators with their SPD validation, targets,
formats, parameter systems), which is the set-up the benchmark times; and
``cycle(alskit, objects, index, runner)`` hands the runner one cycle of
jobs.  The gallery draws a fresh cycle of command lines per index, so a run
averages over many coupling strengths; the ladder and the replay repeat one
seeded cycle of problems, whose cost depends on sizes, not on the data.

Why these workloads:

- gallery_cli: N <= 512, so the mathematics costs microseconds and the
  jobs measure fixed per-step and per-job overhead (validation, probe
  loop, tangents, rate and monitor reporting, CSV writing).  Identity
  operators and the custom counterexample format bypass any mode-wise or
  CP/TT structured path, so such a change should not move it.
- modewise_ladder: probing W, the Gram/eigh Lowdin basis and the
  column-by-column operator apply are nearly all the time, and W reaches
  27000 x 240 (CP) and 8000 x 500 (TT middle core).  CP spreads its time
  over probing, Lowdin and apply; TT's goes mostly to Lowdin and apply on
  a wide block.
- replay: the diagnostics layer (Gram-Schmidt complement, probe-of-probes
  coupling, transfer product) does nearly all the work; the solves that
  record the step pairs are small.  The dense operator keeps the generic
  unstructured path measured.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass

import numpy as np

import checks

# Seconds one untraced cycle takes on the reference machine (2-CPU Xeon,
# one BLAS thread).  Used only to size the traced run's fixed job set.
NOMINAL_CYCLE_S = {"gallery_cli": 0.4, "modewise_ladder": 7.0, "replay": 3.2}

DESILVA_SWEEPS = 200
LADDER_SWEEPS = 2
RECORD_SWEEPS = 3


def _stratified(rng, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi)."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count
    return [float(x) for x in edges]


def _seed(rng) -> str:
    return str(int(rng.integers(0, 2**31)))


def spd_matrix(rng, m: int) -> np.ndarray:
    """Random symmetric matrix with spectrum drawn from [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    mat = (q * rng.uniform(0.5, 2.0, m)) @ q.T
    return 0.5 * (mat + mat.T)


def block_dims(kind: str, dims, rank) -> list[int]:
    if kind == "cp":
        return [m * rank for m in dims]
    full = (1, *rank, 1)
    return [full[mu] * m * full[mu + 1] for mu, m in enumerate(dims)]


def make_format(alskit, kind: str, dims, rank):
    shape = alskit.Shape(dims)
    return alskit.CpFormat(shape, rank) if kind == "cp" else alskit.TtFormat(shape, rank)


# --- gallery_cli ----------------------------------------------------------------


@dataclass(frozen=True)
class GalleryJob:
    label: str
    args: tuple[str, ...]
    lam: float | None = None
    expected_code: int = 0

    def argv(self, output: str) -> list[str]:
        return ["run", "--gallery", self.label, *self.args, "--output", output]


def gallery_cycle_jobs(seed: int, index: int) -> list[GalleryJob]:
    """Cycle ``index`` of the gallery job list: 16 seeded CLI runs."""
    rng = np.random.default_rng([seed, index])
    jobs = [
        GalleryJob("blambda", ("--lambda", repr(lam), "--n", "8", "--seed", _seed(rng)), lam)
        for lam in _stratified(rng, 0.1, 0.45, 4)
    ]
    taus = _stratified(rng, 0.05, 0.4, 1) + _stratified(rng, 0.6, 2.0, 2)
    jobs += [GalleryJob("mohlenkamp", ("--tau", repr(tau))) for tau in taus]
    jobs += [
        GalleryJob("totally_orthogonal", ("--r", str(int(rng.integers(2, 4))), "--seed", _seed(rng)))
        for _ in range(3)
    ]
    jobs += [GalleryJob("tucker", ("--seed", _seed(rng))) for _ in range(3)]
    jobs += [GalleryJob("counterexample", ())] * 2
    jobs.append(GalleryJob("desilva_lim", ("--max-sweeps", str(DESILVA_SWEEPS))))
    return [jobs[i] for i in rng.permutation(len(jobs))]


class SolveCapture:
    """Stand-in for ``cli.run`` that keeps the CLI's trace for the checks.

    It calls ``engine.run`` through the module, so a traced run still sees
    the solver's own span, and times the solve for microsteps_per_s.
    """

    def __init__(self, alskit):
        self.engine = alskit.engine
        self.last = None

    def __call__(self, A, b, fmt, init, stop, *args, **kwargs):
        t0 = time.perf_counter()
        trace = self.engine.run(A, b, fmt, init, stop, *args, **kwargs)
        self.last = (trace, A, b, fmt, time.perf_counter() - t0)
        return trace

    def pop(self):
        last, self.last = self.last, None
        return last


@contextlib.contextmanager
def captured_cli(alskit):
    capture = SolveCapture(alskit)
    original = alskit.cli.run
    alskit.cli.run = capture
    try:
        yield capture
    finally:
        alskit.cli.run = original


def gallery_cycle(alskit, seed, index, runner):
    csv_path = runner.work_file("trace.csv")
    with captured_cli(alskit) as capture:
        for pos, job in enumerate(gallery_cycle_jobs(seed, index)):
            _gallery_job(alskit, job, f"{index}:{pos}:{job.label}", capture, csv_path, runner)


def _gallery_job(alskit, job, key, capture, csv_path, runner):

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = alskit.cli.main(job.argv(csv_path))
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        with open(csv_path) as fh:
            csv_text = fh.read()
        return checks.check_gallery(
            job, code, stdout, capture.pop(), csv_text, alskit.oracle.q_lambda_formula
        )

    runner.job(key, call, check)


# --- modewise_ladder --------------------------------------------------------------

LADDER = (
    ("cp", (20, 20, 20), 5),
    ("cp", (30, 30, 30), 8),
    ("tt", (16, 16, 16), (4, 4)),
    ("tt", (20, 20, 20), (5, 5)),
)


def ladder_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    problems = []
    for kind, dims, rank in LADDER:
        problems.append(
            {
                "name": f"{kind}{dims[0]}^{len(dims)}/r{rank if kind == 'cp' else ','.join(map(str, rank))}",
                "kind": kind,
                "dims": dims,
                "rank": rank,
                "factors": [spd_matrix(rng, m) for m in dims],
                "target": rng.standard_normal(int(np.prod(dims))),
                "init": [rng.standard_normal(n) for n in block_dims(kind, dims, rank)],
            }
        )
    return problems


def ladder_build(alskit, problems) -> list[tuple]:
    built = []
    for prob in problems:
        fmt = make_format(alskit, prob["kind"], prob["dims"], prob["rank"])
        A = alskit.ModeWiseOperator(prob["factors"])
        b = alskit.DenseTensor(fmt.shape, prob["target"])
        built.append((prob, A, b, fmt, alskit.ParamSystem(prob["init"])))
    return built


def ladder_cycle(alskit, objects, index, runner):
    stop = alskit.StopRule(max_sweeps=LADDER_SWEEPS)
    for prob, A, b, fmt, init in objects:

        def call(A=A, b=b, fmt=fmt, init=init):
            return alskit.run(A, b, fmt, init, stop)

        def check(trace, A=A, b=b, fmt=fmt):
            return checks.check_solve(trace, fmt, checks.operator_apply(A), b.values)

        runner.job(f"{index}:{prob['name']}", call, check)


# --- replay -----------------------------------------------------------------------

# (name, source, dims, rank, operator); every N <= 256.  Replay jobs cost
# roughly in proportion to N^2, so the cycle falls into 12 cheap jobs
# (N = 64), 16 middle ones (N = 125) and 12 dear ones (N >= 216).  The
# middle block is one configuration, so the median job lies inside a block
# of equal-cost jobs rather than on the step between two kinds of problem.
REPLAY = (
    ("blambda-n4", "blambda", (4, 4, 4), 1, "identity"),
    ("tucker-4^3", "tucker", (4, 4, 4), 1, "identity"),
    ("tt-4^3/r2,2-dense", "tt", (4, 4, 4), (2, 2), "dense"),
    *((f"cp-5^3/r3-modewise-{i}", "cp", (5, 5, 5), 3, "modewise") for i in range(4)),
    ("blambda-n6", "blambda", (6, 6, 6), 1, "identity"),
    ("tt-6^3/r3,3-modewise", "tt", (6, 6, 6), (3, 3), "modewise"),
    ("tt-4x8x8/r2,3-dense", "tt", (4, 8, 8), (2, 3), "dense"),
)


def replay_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    lams = iter(_stratified(rng, 0.1, 0.45, 2))
    problems = []
    for name, source, dims, rank, operator in REPLAY:
        prob = {"name": name, "source": source, "dims": dims, "rank": rank, "operator": operator}
        if source == "blambda":
            prob["args"] = {"lam": next(lams), "n": dims[0], "seed": int(rng.integers(0, 2**31))}
        elif source == "tucker":
            prob["args"] = {"dims": dims, "seed": int(rng.integers(0, 2**31))}
        else:
            n = int(np.prod(dims))
            if operator == "dense":
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                mat = (q * rng.uniform(0.5, 2.0, n)) @ q.T
                prob["matrix"] = 0.5 * (mat + mat.T)
            else:
                prob["factors"] = [spd_matrix(rng, m) for m in dims]
            prob["target"] = rng.standard_normal(n)
            prob["init"] = [rng.standard_normal(k) for k in block_dims(source, dims, rank)]
        problems.append(prob)
    return problems


def replay_build(alskit, problems) -> list:
    """One problem instance per input, random ones without a reference."""
    built = []
    for prob in problems:
        if prob["source"] in ("blambda", "tucker"):
            inst = alskit.gallery.get_instance(prob["source"], **prob["args"])
        else:
            fmt = make_format(alskit, prob["source"], prob["dims"], prob["rank"])
            if prob["operator"] == "dense":
                A = alskit.DenseOperator(fmt.shape, prob["matrix"])
            else:
                A = alskit.ModeWiseOperator(prob["factors"])
            b = alskit.DenseTensor(fmt.shape, prob["target"])
            inst = alskit.gallery.ProblemInstance(prob["name"], A, b, fmt, alskit.ParamSystem(prob["init"]))
        built.append(inst)
    return built


def replay_cycle(alskit, objects, index, runner):
    stop = alskit.StopRule(max_sweeps=RECORD_SWEEPS)
    for pos, inst in enumerate(objects):
        A, b, fmt = inst.A, inst.b, inst.fmt
        name = f"{index}:{pos}-{inst.label}"
        # the tangent's reference direction: the known limit where the
        # instance has one, else the target
        ref = (b if inst.reference is None else inst.reference).values

        def record(inst=inst):
            return alskit.run(
                inst.A, inst.b, inst.fmt, inst.init, stop,
                reference=inst.reference, reference_factor=inst.reference_factor,
                keep_params=True,
            )

        def check_record(trace, A=A, b=b, fmt=fmt):
            return checks.check_solve(trace, fmt, checks.operator_apply(A), b.values)

        trace = runner.record(f"{name}:record", record, check_record)
        if trace is None:
            continue
        snapshots = trace.param_snapshots
        after = snapshots[2:] + [trace.final_params]
        position = {id(p): i for i, p in enumerate(snapshots)}
        for ctx in alskit.recursion_contexts(trace):
            committed = after[position[id(ctx.params)]]

            def call(A=A, b=b, fmt=fmt, ctx=ctx, ref=ref):
                report = alskit.recursion_check(A, b, fmt, ctx)
                return report, alskit.tangent_recursion(report.transfer, ref, report.v_mid.values)

            def check(result, fmt=fmt, committed=committed, ref=ref):
                report, tangent = result
                v = checks.own_iterate(fmt, committed.blocks)
                return checks.check_replay(report, tangent, v, ref)

            runner.job(f"{name}:{ctx.sweep}.{ctx.mu}", call, check)


# --- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object  # seed -> plain inputs
    build: object  # (alskit, inputs) -> program objects
    cycle: object  # (alskit, objects, index, runner) -> None


def _gallery_build(alskit, seed):
    # The CLI builds its own problem objects inside each job.
    return seed


def _gallery_inputs(seed):
    return seed


WORKLOADS = {
    "gallery_cli": Workload("gallery_cli", _gallery_inputs, _gallery_build, gallery_cycle),
    "modewise_ladder": Workload("modewise_ladder", ladder_inputs, ladder_build, ladder_cycle),
    "replay": Workload("replay", replay_inputs, replay_build, replay_cycle),
}
