"""Closed-loop job runner: one client, one job at a time.

The runner times each job, and only the job, into the workload's timed
wall; the correctness check runs after the clock stops.  In the traced run
it also opens the root span of each job, so every span a job causes carries
the job's id.  Given a ``hostspeed.HostProbe``, the runner samples the
host's speed after each timed unit, outside its clock.
"""

from __future__ import annotations

import math
import os
import time

JOB = "bench.job"
RECORD = "bench.record"  # a solve that records step pairs; timed, not a job
SETUP = "bench.setup"


class Runner:
    def __init__(self, work_dir: str, recorder=None, host=None):
        self.work_dir = work_dir
        self.recorder = recorder
        self.host = host
        self.keys: list[str] = []  # one per timed unit; the recorder's job id
        self.job_s: list[float] = []
        self.wall_s = 0.0
        self.solve_s = 0.0
        self.microsteps = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.signatures: list[tuple[str, tuple]] = []

    def work_file(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def _timed(self, key, fn, root):
        rec = self.recorder
        if rec is not None:
            rec.job_id = len(self.keys)
            span = rec.open(root)
        self.keys.append(key)
        error = result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing job is counted; the run goes on
            error = exc
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.close(span)
        self.wall_s += dt
        if self.host is not None:
            self.host.sample_for(dt)
        return result, error, dt

    def _check(self, key, result, error, check, dt) -> bool:
        if error is None:
            try:
                outcome = check(result)
            except Exception as exc:  # CheckFailed, or output too malformed to check
                error = exc
        if error is not None:
            self.failures.append((key, f"{type(error).__name__}: {error}"))
            return False
        self.signatures.append((key, outcome.signature))
        self.microsteps += outcome.microsteps
        self.solve_s += dt if outcome.solve_s is None else outcome.solve_s
        return True

    def job(self, key: str, fn, check):
        result, error, dt = self._timed(key, fn, JOB)
        self.attempted += 1
        self.job_s.append(dt)
        self._check(key, result, error, check, dt)

    def record(self, key: str, fn, check):
        """Timed solve that is not a job; returns its result, or None if it failed.

        A failed recording counts as one failed job, since its step pairs
        cannot be replayed.
        """
        result, error, dt = self._timed(key, fn, RECORD)
        if self._check(key, result, error, check, dt):
            return result
        self.attempted += 1
        return None

    @property
    def failed(self) -> int:
        return len(self.failures)


class WarmedUp(Exception):
    pass


class WarmupRunner(Runner):
    """Runs a cycle up to and including its first job, then stops it."""

    def job(self, key, fn, check):
        super().job(key, fn, check)
        raise WarmedUp


def warm_up(workload, alskit, objects, work_dir: str) -> Runner:
    runner = WarmupRunner(work_dir)
    try:
        workload.cycle(alskit, objects, 0, runner)
    except WarmedUp:
        pass
    return runner


def run_cycles(workload, alskit, objects, runner, *, seconds=None, cycles=None, start=0) -> int:
    """Run whole cycles from ``start``; returns the index after the last one.

    Stops after cycle ``cycles - 1``, or before a cycle that would, at the
    mean cycle time so far, end past ``seconds`` of timed wall.  A run's job
    mix is therefore always a whole number of cycles.
    """
    index = start
    while True:
        if cycles is not None and index >= cycles:
            return index
        if seconds is not None and index > 0 and runner.wall_s * (index + 1) / index > seconds:
            return index
        workload.cycle(alskit, objects, index, runner)
        index += 1


def percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank q-quantile, or None when fewer than ``min_beyond`` samples lie above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def compare_signatures(plain: Runner, traced: Runner) -> list[tuple[str, str]]:
    """Jobs whose traced result differs from the untraced one."""
    if [k for k, _ in plain.signatures] != [k for k, _ in traced.signatures]:
        return [("trace", "traced run did not complete the same jobs as the untraced run")]
    return [
        (key, f"traced result {b!r} differs from untraced {a!r}")
        for (key, a), (_, b) in zip(plain.signatures, traced.signatures)
        if a != b
    ]

