"""Span recorder for the traced benchmark run.

The recorder times alskit's layers from outside the package: it swaps
timing wrappers into every module attribute that holds one of the public
functions listed in ``LAYERS`` (``engine.materialize_W`` as well as
``formats.materialize_W``, and so on) and into the operator classes'
methods, and restores the originals afterwards.  Each call becomes a span
(name, start, end, parent, job); spans are kept in compact arrays in memory
and written out once, when the benchmark ends.

A layer's self time is its span's duration minus the durations of its
direct children.  Spans of one thread nest, so the self times of all spans
under a job's root span add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

NO_PARENT = -1


def _count_lowdin(counts, args, out):
    W = args[0]
    n, k = W.shape
    counts["engine.lowdin_calls"] += 1
    counts["engine.gram_flops"] += n * k * k
    counts["lowdin.rank_kept"] += out.rank
    counts["lowdin.rank_offered"] += k


def _count_probe(counts, args, out):
    n, k = out.shape
    counts["formats.probe_cols"] += k
    counts["formats.W_mb_max"] = max(counts["formats.W_mb_max"], n * k * 8 / 1e6)


def _count_apply_matrix(counts, args, out):
    counts["tensors.apply_matrix_cols"] += out.shape[1]


def _counter(name):
    def count(counts, args, out):
        counts[name] += 1

    return count


# span name -> (module, function name) pairs whose function object is wrapped
# wherever it is bound, plus the counter updated after each recorded call.
LAYERS = {
    "cli.main": ([("cli", "main")], None),
    "cli.csv": ([("cli", "write_trace_csv")], None),
    "gallery.build": ([("gallery", "get_instance")], None),
    "engine.run": ([("engine", "run")], None),
    "engine.step": ([("engine", "micro_step")], _counter("engine.microsteps")),
    "engine.lowdin": ([("engine", "lowdin_basis")], _count_lowdin),
    "formats.probe": ([("formats", "materialize_W")], _count_probe),
    "formats.evaluate": ([("formats", "evaluate")], _counter("formats.evaluate_calls")),
    "tensors.inner": ([("tensors", "inner")], _counter("tensors.inner_calls")),
    "diagnostics.objective": ([("diagnostics", "objective")], None),
    "diagnostics.tangent": ([("diagnostics", "stable_tangent")], None),
    "diagnostics.rate_monitor": (
        [("diagnostics", "rate_estimate"), ("diagnostics", "assumption_monitors")],
        None,
    ),
    "diagnostics.replay": ([("diagnostics", "recursion_check")], None),
    "diagnostics.coupling": ([("diagnostics", "materialize_M")], None),
    "diagnostics.tangent_recursion": ([("diagnostics", "tangent_recursion")], None),
}

# span name -> (method name, counter) wrapped on every operator class that
# defines the method itself
METHOD_LAYERS = {
    "tensors.apply": ("apply", _counter("tensors.apply_calls")),
    "tensors.apply_matrix": ("apply_matrix", _count_apply_matrix),
    "tensors.operator_build": ("__init__", None),
}

OPERATOR_CLASSES = ("SpdOperator", "IdentityOperator", "DenseOperator", "ModeWiseOperator")

# Calls made directly inside these spans are folded into them: the
# column-by-column applies of the generic apply_matrix belong to
# apply_matrix, and materialize_M's probe-of-probes belongs to coupling.
FOLD = {
    "tensors.apply": "tensors.apply_matrix",
    "formats.probe": "diagnostics.coupling",
}

MODULES = ("cli", "diagnostics", "engine", "formats", "gallery", "oracle", "tensors", "verification")


class Recorder:
    """In-memory span store: one entry per recorded call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.job_id = NO_PARENT
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn, count=None):
        fold_into = FOLD.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold_into is not None and self.current() == fold_into:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def arrays(self):
        """Spans as numpy arrays: (name_id, start, end, parent, job)."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=float),
            np.frombuffer(self.end, dtype=float),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.job, dtype=np.int32),
        )

    def save(self, path):
        name_id, start, end, parent, job = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            job=job,
        )


class Patches:
    """Swap recorder wrappers into alskit and put the originals back on exit."""

    def __init__(self, recorder: Recorder, package):
        self.recorder = recorder
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [self.package] + [getattr(self.package, m) for m in MODULES]
        for span, (targets, count) in LAYERS.items():
            for mod_name, fn_name in targets:
                original = getattr(getattr(self.package, mod_name), fn_name)
                wrapped = self.recorder.wrap(span, original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapped)
        tensors = self.package.tensors
        for cls_name in OPERATOR_CLASSES:
            cls = getattr(tensors, cls_name)
            for span, (method, count) in METHOD_LAYERS.items():
                if method in vars(cls):
                    self._set(cls, method, self.recorder.wrap(span, vars(cls)[method], count))
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        return False


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has_parent = parent != NO_PARENT
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def root_of(parent) -> np.ndarray:
    """Index of the outermost span above each span (itself for roots).

    Parents are opened before their children, so one pass in index order
    resolves every chain.
    """
    parent = np.asarray(parent)
    root = np.arange(parent.size)
    for i in range(parent.size):
        if parent[i] != NO_PARENT:
            root[i] = root[parent[i]]
    return root


def self_time_by_name(recorder: Recorder, spans=None) -> dict[str, float]:
    """Summed self time per span name, optionally over a boolean span mask."""
    name_id, start, end, parent, _ = recorder.arrays()
    own = self_times(start, end, parent)
    if spans is not None:
        name_id, own = name_id[spans], own[spans]
    sums = np.bincount(name_id, weights=own, minlength=len(recorder.names))
    return {name: float(sums[i]) for i, name in enumerate(recorder.names)}


def nesting_defect(recorder: Recorder) -> float:
    """Largest |sum of self times under a root - root duration|, in seconds."""
    _, start, end, parent, _ = recorder.arrays()
    if start.size == 0:
        return 0.0
    own = self_times(start, end, parent)
    root = root_of(parent)
    sums = np.bincount(root, weights=own, minlength=start.size)
    roots = parent == NO_PARENT
    return float(np.max(np.abs(sums[roots] - (end - start)[roots])))
