"""Tests of the benchmark's own logic: job lists, percentiles, spans, the failure gate."""

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import alskit  # noqa: E402
import alskit.cli  # noqa: E402,F401
import checks  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _same(x, y) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y


def test_job_list_depends_only_on_the_seed():
    assert workloads.gallery_cycle_jobs(5, 0) == workloads.gallery_cycle_jobs(5, 0)
    assert workloads.gallery_cycle_jobs(5, 0) != workloads.gallery_cycle_jobs(6, 0)
    assert workloads.gallery_cycle_jobs(5, 0) != workloads.gallery_cycle_jobs(5, 1)
    for make in (workloads.ladder_inputs, workloads.replay_inputs):
        assert _same(make(5), make(5))
        assert not _same(make(5), make(6))


def test_p90_reported_only_with_ten_samples_beyond_it():
    assert harness.percentile(range(1, 100), 0.9) is None
    assert harness.percentile(range(1, 101), 0.9) == 90
    assert harness.percentile(range(1, 201), 0.9) == 180


def test_host_probe_samples_after_each_job_and_scales_by_its_median(tmp_path):
    probe = hostspeed.HostProbe()
    probe.samples.clear()
    runner = harness.Runner(str(tmp_path), host=probe)
    runner.job("job", lambda: time.sleep(0.12), lambda _: checks.Outcome(("ok",)))
    assert runner.failures == [] and len(probe.samples) >= 1
    assert sum(probe.samples) >= hostspeed.SHARE * runner.job_s[0]  # outside the job's clock
    probe.samples[:] = [hostspeed.REFERENCE_KERNEL_S, 2 * hostspeed.REFERENCE_KERNEL_S, 9.0]
    assert probe.factor() == 2.0
    assert probe.scale_rate(3.0) == 3.0 * 2.0**hostspeed.ELASTICITY
    assert probe.scale_time(3.0) == 3.0 / 2.0**hostspeed.ELASTICITY


def _synthetic_recorder():
    # job 0: root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    # job 1: root [20, 22]
    rec = spans.Recorder()
    rows = [
        ("bench.job", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("bench.job", 20.0, 22.0, -1, 1),
    ]
    for name, start, end, parent, job in rows:
        rec.name_id.append(rec._intern(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.job.append(job)
    return rec


def test_self_time_arithmetic_on_a_span_tree():
    rec = _synthetic_recorder()
    _, start, end, parent, _ = rec.arrays()
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert spans.root_of(parent).tolist() == [0, 0, 0, 0, 4]
    assert spans.self_time_by_name(rec) == {"bench.job": 5.0, "a": 2.0, "a1": 1.0, "b": 4.0}
    assert spans.self_time_by_name(rec, np.array([False, True, True, False, False])) == {
        "bench.job": 0.0, "a": 2.0, "a1": 1.0, "b": 0.0,
    }
    assert spans.nesting_defect(rec) == 0.0


def test_patches_cover_every_binding_and_are_undone():
    engine_probe = alskit.engine.materialize_W
    shape = alskit.Shape((3, 3, 3))
    rng = np.random.default_rng(0)
    fmt = alskit.CpFormat(shape, 2)
    A = alskit.ModeWiseOperator([workloads.spd_matrix(rng, 3) for _ in range(3)])
    b = alskit.DenseTensor(shape, rng.standard_normal(27))
    init = alskit.ParamSystem([rng.standard_normal(6) for _ in range(3)])
    plain = alskit.run(A, b, fmt, init, alskit.StopRule(max_sweeps=2))

    rec = spans.Recorder()
    with spans.Patches(rec, alskit):
        assert alskit.engine.materialize_W is alskit.formats.materialize_W is not engine_probe
        root = rec.open(harness.JOB)
        traced = alskit.run(A, b, fmt, init, alskit.StopRule(max_sweeps=2))
        rec.close(root)
    assert alskit.engine.materialize_W is engine_probe
    assert [r.f for r in traced.records] == [r.f for r in plain.records]
    assert rec.counts["engine.microsteps"] == len(plain.records) == 6
    assert rec.counts["formats.probe_cols"] == 6 * 6
    own = spans.self_time_by_name(rec)
    assert abs(sum(own.values()) - (rec.end[0] - rec.start[0])) < 1e-9
    assert own["tensors.apply_matrix"] > 0 and own["engine.lowdin"] > 0


def test_metric_names_match_benchmark_json():
    assert list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert list(bench.WORKLOAD_NAMES) == [w["name"] for w in BENCHMARK["workloads"]]
    assert list(bench.END_TO_END) == [m["name"] for m in BENCHMARK["end_to_end"]]
    layer_names = list(bench.SELF_TIMES) + list(bench.COUNTS) + list(bench.RATIOS)
    assert sorted(layer_names) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    units = {**{k: "s" for k in bench.SELF_TIMES}, **bench.COUNTS, **bench.RATIOS, **bench.END_TO_END}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert units[metric["name"]] == metric["unit"]


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_reports_every_layer(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    argv = ["--workload", "gallery_cli", "--seed", "2", "--seconds", "0.6", "--trace", "1"]
    assert bench.main(argv, out_dir=tmp_path) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert result["metrics"]["engine.microsteps"]["value"] > 0


def test_perturbed_f_fails_the_job_and_the_command(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    real = checks.own_objective
    monkeypatch.setattr(checks, "own_objective", lambda *args: real(*args) + 1e-6)
    argv = ["--workload", "gallery_cli", "--seed", "3", "--seconds", "0.3", "--trace", "0"]
    assert bench.main(argv, out_dir=tmp_path) == 1
    result = _last_json(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    record = json.loads((tmp_path / "gallery_cli-seed3-trace0.json").read_text())
    assert record["extra"]["error_rate"] == 1.0
    assert "independent recomputation" in record["failures"][0][1]
