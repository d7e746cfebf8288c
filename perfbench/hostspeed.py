"""Host-speed scaling: time metrics in reference-host seconds.

The benchmark's reference machine is a shared host whose speed drifts by
tens of percent over tens of seconds to minutes as other tenants load it;
a job that takes 0.3 s in one minute takes 0.5 s in the next.  The drift
slows everything running at the time, though not all code alike (see
``kernel``), so the benchmark measures it alongside the jobs: between
timed units, outside their clock, it runs a fixed reference kernel (BLAS
and Python object work, no alskit code) for a set share of the measured
time, and scales its time metrics by the kernel's median time against
``REFERENCE_KERNEL_S``, a typical median of the kernel during a run on the
reference machine:

    host factor = kernel median / REFERENCE_KERNEL_S
    scaled rate = raw rate * host factor ** ELASTICITY
    scaled time = raw time / host factor ** ELASTICITY

A change to alskit moves the jobs and not the kernel, so it moves the
scaled figures as much as the raw ones; a slow phase of the host moves
both the jobs and the kernel, and mostly cancels.  ``ELASTICITY`` is how
far the jobs' log-time moves per unit of the kernel's: fitted over sets of
ten runs per workload it lay between 0.35 and 0.91, changing with the
phase; 0.75 kept the worst spread and the worst move of a median between
sets smallest together, for set-up time as well.  The kernel never runs
inside a timed unit, so the raw figures are unaffected; they are printed
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 0.95e-3  # typical kernel median in a run, reference machine
ELASTICITY = 0.75
SHARE = 0.05  # kernel time per second of measured time
SESSION_S = 5e-3  # least sampling time paid at once
WARM_UP_RUNS = 20

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64))
_LARGE = _rng.standard_normal((200, 200))


def kernel():
    """A fixed unit of small-BLAS, cache-sized BLAS and object-allocation work.

    The parts were chosen by how closely the jobs' times follow theirs over
    the host's slow and fast phases: in one five-minute sample a job's
    log-time moved 0.7-1.3 times as much as each part's, and only 0.4-0.8
    times as much as a pure-interpreter arithmetic loop's.
    """
    for _ in range(24):
        _SMALL @ _SMALL
    _LARGE @ _LARGE
    rows = [(i % 97, str(i), [i]) for i in range(500)]
    rows.sort()
    return len(rows)


class HostProbe:
    """Samples the host's current speed with the reference kernel.

    Sampling is owed at ``SHARE`` seconds per measured second and paid in
    sessions of at least ``SESSION_S``.  Each session first runs the kernel
    once untimed, so the timed samples find its data in cache whatever the
    job before them left there.
    """

    def __init__(self):
        self.owed = 0.0
        self.samples: list[float] = []
        for _ in range(WARM_UP_RUNS):
            kernel()

    def sample_for(self, busy_s: float):
        """Owe ``SHARE * busy_s`` seconds of sampling; pay once a session is due."""
        self.owed += SHARE * busy_s
        if self.owed < SESSION_S:
            return
        kernel()
        while self.owed > 0:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.owed -= dt

    def factor(self) -> float:
        """Kernel median over the reference: > 1 when the host runs slow."""
        return statistics.median(self.samples) / REFERENCE_KERNEL_S

    def scale_rate(self, rate: float) -> float:
        """A rate per second, in reference-host seconds."""
        return rate * self.factor() ** ELASTICITY

    def scale_time(self, seconds: float) -> float:
        """A time, in reference-host seconds."""
        return seconds / self.factor() ** ELASTICITY
