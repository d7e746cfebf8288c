"""The command-line front end: exit codes, CSV traces, config handling."""

import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import alskit
from alskit import cli, engine
from alskit.cli import (
    CSV_HEADER,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_UNBOUNDED,
    EXIT_USAGE,
    GALLERY_FLAGS,
    _combine_codes,
    build_parser,
    main,
)
from alskit.gallery import LABELS, SPECS
from alskit.tensors import SPD_VERIFY_CAP
from alskit.verification import sized_problem

DEGENERATE_PROBLEM = {
    "problem": {
        "dims": [2, 2, 2],
        "format": "cp",
        "ranks": [1],
        "operator": {"kind": "identity"},
        "target": {"terms": [{"coeff": 1.0, "vectors": [[1, 0], [1, 0], [1, 0]]}]},
        "init": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    }
}


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# exit codes


def test_gallery_run_exits_clean(capsys):
    assert run_cli(["run", "--gallery", "mohlenkamp", "--max-sweeps", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[mohlenkamp]" in out
    assert "termination=" in out
    assert "monitors:" in out


def test_unknown_gallery_label_is_usage_error(capsys):
    assert run_cli(["run", "--gallery", "bogus"]) == EXIT_USAGE
    assert "unknown gallery label" in capsys.readouterr().err


def test_missing_problem_is_usage_error(capsys):
    assert run_cli(["run"]) == EXIT_USAGE
    assert "need --gallery" in capsys.readouterr().err


def test_bad_flag_exits_one_not_two():
    # argparse's default exit code 2 would collide with the degenerate code
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--no-such-flag"])
    assert exc.value.code == EXIT_USAGE


def test_degenerate_run_exits_two(tmp_path, capsys):
    cfg = tmp_path / "degen.json"
    cfg.write_text(json.dumps(DEGENERATE_PROBLEM))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_DEGENERATE
    assert "termination=degenerate" in capsys.readouterr().out


def test_degenerate_wins_tie_against_unbounded(tmp_path):
    cfg = tmp_path / "degen.json"
    cfg.write_text(json.dumps(DEGENERATE_PROBLEM))
    # growth ratio is exactly 1.0; a threshold of 0.9 trips the monitor too
    code = run_cli(["run", "--config", str(cfg), "--growth-threshold", "0.9"])
    assert code == EXIT_DEGENERATE


def test_growth_monitor_exits_three(capsys):
    code = run_cli(
        [
            "run",
            "--gallery",
            "desilva_lim",
            "--max-sweeps",
            "200",
            "--growth-threshold",
            "1.05",
        ]
    )
    assert code == EXIT_UNBOUNDED
    assert "unbounded-suspect" in capsys.readouterr().out


def test_combine_codes_severity_order():
    assert _combine_codes([0, 0]) == EXIT_OK
    assert _combine_codes([0, 1]) == EXIT_USAGE
    assert _combine_codes([1, 3]) == EXIT_UNBOUNDED
    assert _combine_codes([3, 2, 1]) == EXIT_DEGENERATE
    assert _combine_codes([]) == EXIT_OK


# ---------------------------------------------------------------------------
# CSV traces


def test_trace_csv_layout(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli(
        [
            "run",
            "--gallery",
            "blambda",
            "--lambda",
            "0.3",
            "--n",
            "4",
            "--seed",
            "11",
            "--max-sweeps",
            "3",
            "--angle-tol",
            "0",
            "--output",
            str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3  # header + sweeps x blocks
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    # tangent/ratio cells appear only on the last block of each sweep
    for row in lines[1:]:
        cells = row.split(",")
        if cells[1] == "2":
            assert cells[8] != ""
        else:
            assert cells[8] == "" and cells[9] == ""
    # ratio needs a predecessor sweep
    assert lines[3].split(",")[9] == ""
    assert lines[6].split(",")[9] != ""
    # floats round-trip exactly through repr
    f_cell = float(lines[1].split(",")[2])
    assert repr(f_cell) == lines[1].split(",")[2]


@pytest.mark.parametrize("mode", ["factor", "none"])
def test_trace_csv_tangent_cells_are_the_sweep_series(tmp_path, monkeypatch, mode):
    traces = []

    def keep(*args, **kwargs):
        traces.append(engine.run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "run", keep)
    out = tmp_path / "trace.csv"
    argv = ["run", "--gallery", "blambda", "--lambda", "0.3", "--n", "4", "--seed", "11"]
    argv += ["--max-sweeps", "6", "--angle-tol", "0", "--angle-mode", mode, "--output", str(out)]
    assert run_cli(argv) == EXIT_OK
    (trace,) = traces
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    last = [row for row in rows if row[1] == "2"]
    assert [row[0] for row in last] == ["1", "2", "3", "4", "5", "6"]
    assert all(row[8] == row[9] == "" for row in rows if row[1] != "2")
    if mode == "none":
        assert all(row[8] == row[9] == "" for row in last)
    else:
        ratios = trace.tangent_ratios()
        assert [row[8] for row in last] == [repr(t) for t in trace.sweep_tangent]
        assert [row[9] for row in last] == ["" if q is None else repr(q) for q in ratios]
        assert all(q is not None for q in ratios[1:])


def test_trace_csv_is_deterministic(tmp_path):
    args = [
        "run",
        "--gallery",
        "totally_orthogonal",
        "--r",
        "2",
        "--dims",
        "3,3,3",
        "--seed",
        "5",
        "--max-sweeps",
        "4",
    ]
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    assert run_cli(args + ["--output", str(out1)]) == EXIT_OK
    assert run_cli(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_config_and_flags_produce_identical_traces(tmp_path):
    out_flag = tmp_path / "flags.csv"
    out_cfg = tmp_path / "config.csv"
    cfg = tmp_path / "job.json"
    cfg.write_text(
        json.dumps(
            {
                "gallery": "blambda",
                "args": {"lam": 0.3, "n": 4, "seed": 11},
                "max_sweeps": 3,
                "angle_tol": 0,
                "output": str(out_cfg),
            }
        )
    )
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_OK
    assert (
        run_cli(
            [
                "run",
                "--gallery",
                "blambda",
                "--lambda",
                "0.3",
                "--n",
                "4",
                "--seed",
                "11",
                "--max-sweeps",
                "3",
                "--angle-tol",
                "0",
                "--output",
                str(out_flag),
            ]
        )
        == EXIT_OK
    )
    assert out_flag.read_bytes() == out_cfg.read_bytes()


def test_flags_override_config_fields(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"gallery": "mohlenkamp", "max_sweeps": 50}))
    assert run_cli(["run", "--config", str(cfg), "--max-sweeps", "2"]) == EXIT_OK
    assert "sweeps=2" in capsys.readouterr().out


def test_dump_target_csv(tmp_path):
    out = tmp_path / "target.csv"
    code = run_cli(
        ["run", "--gallery", "mohlenkamp", "--max-sweeps", "1", "--dump-target", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "i1,i2,i3,value"
    assert len(lines) == 1 + 8
    assert lines[1] == "0,0,0,2.0"  # dominant corner of the two-term target
    assert lines[-1] == "1,1,1,1.0"


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ALSKIT_OUTPUT_DIR", str(tmp_path))
    code = run_cli(
        ["run", "--gallery", "mohlenkamp", "--max-sweeps", "1", "--output", "rel.csv"]
    )
    assert code == EXIT_OK
    assert (tmp_path / "rel.csv").exists()


def test_absolute_output_ignores_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ALSKIT_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "abs.csv"
    code = run_cli(
        [
            "run",
            "--gallery",
            "mohlenkamp",
            "--max-sweeps",
            "1",
            "--output",
            str(target),
        ]
    )
    assert code == EXIT_OK
    assert target.exists()


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_gallery_and_problem_together(tmp_path, capsys):
    cfg = tmp_path / "both.json"
    doc = dict(DEGENERATE_PROBLEM)
    doc["gallery"] = "mohlenkamp"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert "both" in capsys.readouterr().err


README_PROBLEM = {
    "problem": {
        "dims": [2, 2],
        "format": "cp",
        "ranks": [1],
        "target": {"dense": [1.0, 0.5, 0.5, 2.0]},
        "init": [[1.0, 1.0], [1.0, 0.5]],
    },
    "max_sweeps": 5,
}


@pytest.mark.parametrize(
    "args, flags, given",
    [
        ({"lam": 3}, ["--lambda", "0.3", "--seed", "4"], "args, --lambda, --seed"),
        ({"lam": 3}, [], "args"),
        ({}, [], "args"),
        (None, ["--tau", "1.5"], "--tau"),
        (None, ["--dims", "2,2"], "--dims"),
    ],
    ids=["args_and_flags", "args", "empty_args", "tau_flag", "dims_flag"],
)
def test_problem_config_rejects_gallery_arguments(tmp_path, capsys, no_solve, args, flags, given):
    doc = dict(README_PROBLEM)
    if args is not None:
        doc["args"] = args
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: a 'problem' config takes no gallery arguments, got {given}"
    ]
    assert captured.out == ""


def test_readme_problem_config_solves(tmp_path):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps(README_PROBLEM))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_OK


def test_gallery_flag_replaces_a_config_label(tmp_path, capsys):
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"gallery": "mohlenkamp", "max_sweeps": 3}))
    assert run_cli(["run", "--gallery", "blambda", "--config", str(cfg)]) == EXIT_OK
    (first, *_) = capsys.readouterr().out.splitlines()
    assert first.startswith("[blambda] sweeps=3 ")


def test_gallery_flag_next_to_a_problem_config_is_one_error_line(tmp_path, capsys, no_solve):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps(README_PROBLEM))
    assert run_cli(["run", "--gallery", "blambda", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: config cannot give both 'gallery' and 'problem'"]
    assert captured.out == ""


def test_config_rejects_unknown_gallery_args(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"gallery": "mohlenkamp", "args": {"lam": 0.3}}))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert "does not take" in capsys.readouterr().err


def test_flag_for_wrong_label_is_rejected(capsys):
    assert run_cli(["run", "--gallery", "mohlenkamp", "--lambda", "0.3"]) == EXIT_USAGE
    assert "does not take" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"gallery": "mohlenkamp", "growth_threshold": "x"},
            "error: growth_threshold must be a number, got 'x'",
        ),
        (
            {"gallery": "mohlenkamp", "rate_window": "x"},
            "error: rate_window must be an integer, got 'x'",
        ),
        (
            {"gallery": "mohlenkamp", "args": [1, 2]},
            "error: config 'args' must be a JSON object, got [1, 2]",
        ),
        (
            {"gallery": "blambda", "max_sweep": 3},
            "error: config has unknown keys ['max_sweep'] (it takes gallery, problem, "
            "args, max_sweeps, f_tol, grad_tol, angle_tol, eps_rank, rate_window, "
            "angle_mode, growth_threshold, output, dump_target)",
        ),
        (
            {"gallery": "mohlenkamp", "max_sweeps": 3.7},
            "error: max_sweeps must be an integer, got 3.7",
        ),
        (
            {"gallery": "mohlenkamp", "max_sweeps": True},
            "error: max_sweeps must be an integer, got True",
        ),
        (
            {"gallery": "mohlenkamp", "rate_window": True},
            "error: rate_window must be an integer, got True",
        ),
        (
            {"gallery": "mohlenkamp", "eps_rank": "1e-9"},
            "error: eps_rank must be a number, got '1e-9'",
        ),
    ],
    ids=[
        "growth_threshold",
        "rate_window",
        "args_list",
        "misspelt_key",
        "fractional_int",
        "bool_int",
        "bool_window",
        "numeric_string",
    ],
)
def test_bad_config_setting_is_one_error_line(tmp_path, capsys, no_solve, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


def test_integer_config_value_for_a_number_setting_becomes_a_float():
    job = cli._job_from_config({"gallery": "mohlenkamp", "f_tol": 0, "max_sweeps": 3}, {})
    assert type(job["f_tol"]) is float and type(job["max_sweeps"]) is int


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_one_error_line(capsys, no_solve, jobs):
    assert run_cli(["run", "--gallery", "mohlenkamp", "--jobs", jobs]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: jobs must be >= 1, got {jobs}"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--gallery", "totally_orthogonal", "--dims", "4,x"],
        ["--gallery", "tucker", "--t-dims", "2,,2"],
    ],
    ids=["dims", "t_dims"],
)
def test_malformed_dims_flag_is_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", *args])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        f"alskit run: error: argument {args[2]}: "
        f"expected comma-separated integers, got {args[3]!r}"
    ]
    assert "Traceback" not in err


@pytest.mark.parametrize("ranks", [[], [1, 7]], ids=["no_rank", "two_ranks"])
def test_cp_problem_document_needs_exactly_one_rank(tmp_path, capsys, ranks):
    doc = json.loads(json.dumps(DEGENERATE_PROBLEM))
    doc["problem"]["ranks"] = ranks
    cfg = tmp_path / "ranks.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: malformed problem document: cp document needs exactly one rank"
    ]
    assert captured.out == ""


def test_malformed_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert "cannot read config" in capsys.readouterr().err
    assert run_cli(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE


def test_malformed_problem_document(tmp_path, capsys):
    cfg = tmp_path / "noinit.json"
    doc = json.loads(json.dumps(DEGENERATE_PROBLEM))
    del doc["problem"]["init"]
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert "malformed problem document" in capsys.readouterr().err


def test_non_spd_operator_above_verify_cap_is_usage_error(tmp_path, capsys):
    # N = 576 exceeds the SPD check cap, so the dense -I is only caught
    # when the projected system fails to factor
    dims = [9, 8, 8]
    n = int(np.prod(dims))
    assert n > SPD_VERIFY_CAP
    bad = tmp_path / "negative.json"
    bad.write_text(
        json.dumps(
            {
                "problem": {
                    "dims": dims,
                    "operator": {"kind": "dense", "matrix": (-np.eye(n)).tolist()},
                    "target": {"terms": [{"coeff": 1.0, "vectors": [[1.0] * m for m in dims]}]},
                    "init": [[1.0] * m for m in dims],
                },
                "max_sweeps": 3,
            }
        )
    )
    assert run_cli(["run", "--config", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: [custom] projected operator not positive definite"]
    assert "Traceback" not in err
    # a good job next to it still reports; the combined code stays 1
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"gallery": "mohlenkamp", "max_sweeps": 3}))
    assert run_cli(["run", "--config", str(good), "--config", str(bad)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "[mohlenkamp]" in captured.out
    assert "not positive definite" in captured.err


def test_overflowing_unfolding_factor_exits_one_with_a_message(tmp_path, capsys, monkeypatch):
    # finite parameters whose CP unfolding factor overflows: an error, not a hang
    real = engine._thin_svd

    def finite_only(a):
        # fails instead of handing gesdd a matrix it may never return from
        assert np.isfinite(a).all(), "non-finite matrix handed to the SVD"
        return real(a)

    monkeypatch.setattr(engine, "_thin_svd", finite_only)
    A, b, fmt, p = sized_problem(44, "cp", (8, 8, 8), 3)
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    blocks[0][:8] *= 1e-300
    blocks[1][0] = blocks[2][0] = 1e200
    doc = {
        "problem": {
            "dims": [8, 8, 8],
            "format": "cp",
            "ranks": [3],
            "operator": {"kind": "modewise", "factors": [f.tolist() for f in A.factors]},
            "target": {"dense": b.values.tolist()},
            "init": [block.tolist() for block in blocks],
        },
        "max_sweeps": 1,
    }
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(doc))
    with np.errstate(over="ignore"):
        assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: [custom] SVD did not converge"]


def test_overflowing_gram_matrix_exits_one_with_a_message(tmp_path, capsys):
    # finite parameters whose formed W, and so its Gram matrix, overflows
    A, b, fmt, p = sized_problem(44, "cp", (4, 4, 4), 3, "identity")
    blocks = [p[mu].copy() for mu in range(fmt.num_blocks)]
    blocks[0][:4] *= 1e-300
    blocks[1][0] = blocks[2][0] = 1e200
    doc = {
        "problem": {
            "dims": [4, 4, 4],
            "format": "cp",
            "ranks": [3],
            "operator": {"kind": "identity"},
            "target": {"dense": b.values.tolist()},
            "init": [block.tolist() for block in blocks],
        },
        "max_sweeps": 1,
    }
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: [custom] Eigenvalues did not converge"]


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["--gallery", "blambda", "--lambda", "inf"],
            "error: cannot build 'blambda': tensor entries must be finite",
        ),
        (["--gallery", "mohlenkamp", "--tau", "1e308"], "error: [mohlenkamp] tensor entries must be finite"),
    ],
    ids=["build", "solve"],
)
def test_overflow_reaches_stderr_as_one_error_line(args, message):
    # numpy's warnings go to the process's stderr, so run a real process
    src = str(Path(alskit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "alskit", "run", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


def test_overflow_in_jobs_workers_warns_nothing(tmp_path, capsys):
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"gallery": "mohlenkamp", "args": {"tau": 1e308}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["run", "--config", str(cfg), "--config", str(cfg), "--jobs", "2"])
    assert code == EXIT_USAGE
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.splitlines() == ["error: [mohlenkamp] tensor entries must be finite"] * 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--gallery", "blambda", "--max-sweeps", "0"], "error: max_sweeps must be >= 1"),
        (
            ["--gallery", "desilva_lim", "--angle-mode", "factor"],
            "error: [desilva_lim] angle mode 'factor' needs a reference factor",
        ),
        (
            ["--gallery", "blambda", "--lambda", "0.7", "--angle-mode", "factor"],
            "error: [blambda] angle mode 'factor' needs a reference factor",
        ),
        (
            ["--gallery", "tucker", "--angle-mode", "full"],
            "error: [tucker] angle mode 'full' needs a reference tensor",
        ),
    ],
)
def test_solver_rejections_are_usage_errors(args, message, capsys):
    assert run_cli(["run", *args]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if any job reaches the solver."""

    def refuse(*args, **kwargs):
        raise AssertionError("a job solved")

    monkeypatch.setattr(cli, "run", refuse)


OUT_OF_RANGE = [
    *(
        ("--eps-rank", v, f"eps_rank must be nonnegative and below 1, got {float(v)!r}")
        for v in ("1", "2", "nan", "inf")
    ),
    ("--f-tol", "nan", "f_tol must be nonnegative, got nan"),
    ("--f-tol", "-1", "f_tol must be nonnegative, got -1.0"),
    ("--grad-tol", "nan", "grad_tol must be nonnegative, got nan"),
    ("--angle-tol", "nan", "angle_tol must be a number, got nan"),
    ("--growth-threshold", "nan", "growth_threshold must be positive, got nan"),
    ("--growth-threshold", "0", "growth_threshold must be positive, got 0.0"),
    ("--rate-window", "0", "rate_window must be >= 1, got 0"),
    ("--rate-window", "-4", "rate_window must be >= 1, got -4"),
]


@pytest.mark.parametrize(
    "flag, value, message", OUT_OF_RANGE, ids=[f"{f[2:]}={v}" for f, v, _ in OUT_OF_RANGE]
)
def test_out_of_range_setting_is_one_error_line(capsys, no_solve, flag, value, message):
    assert run_cli(["run", "--gallery", "blambda", flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


def test_config_angle_mode_is_checked_before_any_solve(tmp_path, capsys, no_solve):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"gallery": "mohlenkamp", "max_sweeps": 3}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gallery": "mohlenkamp", "angle_mode": "bogus"}))
    assert run_cli(["run", "--config", str(ok), "--config", str(bad)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: angle_mode must be one of auto, factor, full, none, got 'bogus'"
    ]


def test_angle_mode_choices_are_the_engine_modes():
    (run_parser,) = [
        action.choices["run"]
        for action in build_parser()._actions
        if isinstance(action.choices, dict)
    ]
    (mode,) = [a for a in run_parser._actions if a.dest == "angle_mode"]
    assert tuple(mode.choices) == cli.ANGLE_MODES == ("auto", "factor", "full", "none")


@pytest.mark.parametrize(
    "mode, reference, reference_factor",
    [("auto", True, True), ("factor", False, True), ("full", True, False), ("none", False, False)],
)
def test_angle_mode_chooses_the_references_run_gets(monkeypatch, mode, reference, reference_factor):
    calls = []

    def keep(*args, **kwargs):
        calls.append(kwargs)
        return engine.run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", keep)
    argv = ["run", "--gallery", "mohlenkamp", "--max-sweeps", "2", "--angle-mode", mode]
    assert run_cli(argv) == EXIT_OK
    (kwargs,) = calls
    assert (kwargs["reference"] is not None, kwargs["reference_factor"] is not None) == (
        reference,
        reference_factor,
    )


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_top_level_help_is_the_description_not_the_module_docstring():
    description = build_parser().description
    assert description != cli.__doc__
    assert "Exit codes:" in description
    for code in (EXIT_OK, EXIT_USAGE, EXIT_DEGENERATE, EXIT_UNBOUNDED):
        assert re.search(rf"\b{code} \w", description), code


def test_multiple_configs_and_jobs_flag(tmp_path, capsys):
    cfgs = []
    for k, tau in enumerate((0.3, 0.7)):
        path = tmp_path / f"job{k}.json"
        path.write_text(
            json.dumps(
                {"gallery": "mohlenkamp", "args": {"tau": tau}, "max_sweeps": 5}
            )
        )
        cfgs.append(str(path))
    code = run_cli(
        ["run", "--config", cfgs[0], "--config", cfgs[1], "--jobs", "2"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[mohlenkamp]") == 2


def test_multiple_configs_combine_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"gallery": "mohlenkamp", "max_sweeps": 3}))
    degen = tmp_path / "degen.json"
    degen.write_text(json.dumps(DEGENERATE_PROBLEM))
    code = run_cli(["run", "--config", str(good), "--config", str(degen)])
    assert code == EXIT_DEGENERATE


# ---------------------------------------------------------------------------
# gallery / describe / verify subcommands


def test_gallery_lists_all_labels(capsys):
    assert run_cli(["gallery"]) == EXIT_OK
    out = capsys.readouterr().out
    for label in LABELS:
        assert label in out
    assert len(out.strip().splitlines()) == len(LABELS)


def test_describe_blambda_documents_the_range(capsys):
    assert run_cli(["describe", "blambda"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[0, 1/2]" in out
    assert "--lambda" in out


def test_describe_every_label(capsys):
    for label in LABELS:
        assert run_cli(["describe", label]) == EXIT_OK
    assert run_cli(["describe", "bogus"]) == EXIT_USAGE


def test_describe_names_exactly_the_flags_each_label_takes():
    flag_of = {name: flag for name, flag, _, _ in GALLERY_FLAGS}
    gallery_flags = set(flag_of.values())
    for label, spec in SPECS.items():
        named = set(re.findall(r"--[a-z][a-z-]*", spec.details)) & gallery_flags
        assert named == {flag_of[name] for name in spec.args}, label


def test_describe_defaults_are_the_constructor_defaults():
    name_of = {flag: name for name, flag, _, _ in GALLERY_FLAGS}
    for label, spec in SPECS.items():
        params = inspect.signature(spec.build).parameters
        assert all(params[n].default is not inspect.Parameter.empty for n in spec.args), label
        documented = re.findall(
            r"^  (--[a-z-]+) .*\(default ([\d.]+(?:,[\d.]+)*)", spec.details, re.M
        )
        assert len(documented) == spec.details.count("(default"), label
        for flag, text in documented:
            want = params[name_of[flag]].default
            if isinstance(want, tuple):
                got = tuple(int(x) for x in text.split(","))
            else:
                got = type(want)(text)
            assert got == want, (label, flag)


def test_verify_subset_passes(capsys):
    code = run_cli(
        ["verify", "--checks", "rate-formula,counterexample-gradients", "--trials", "3"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] rate-formula" in out
    assert "2/2 checks passed" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_trials_below_one_is_usage_error(capsys, trials):
    assert run_cli(["verify", "--trials", trials, "--checks", "oracle-equivalence"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: trials must be >= 1, got {trials}"]
    assert captured.out == ""


def test_verify_unknown_check_is_usage_error(capsys):
    assert run_cli(["verify", "--checks", "made-up"]) == EXIT_USAGE
    assert "unknown checks" in capsys.readouterr().err


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    import alskit.verification as verification

    def broken():
        return False, "instrumented failure"

    monkeypatch.setattr(
        verification,
        "CHECKS",
        [("rate-formula", broken)],
    )
    assert run_cli(["verify", "--checks", "rate-formula"]) == EXIT_USAGE
    out = capsys.readouterr().out
    assert "[FAIL] rate-formula: instrumented failure" in out
    assert "0/1 checks passed" in out


def test_rate_line_reports_classification(capsys):
    code = run_cli(
        [
            "run",
            "--gallery",
            "blambda",
            "--lambda",
            "0.46",
            "--max-sweeps",
            "100",
            "--angle-tol",
            "0",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "rate: linear" in out
    assert "q_hat=0.847" in out


def test_rate_line_with_an_infinite_tangent_is_unavailable(tmp_path, capsys):
    # the iterate ends on e1 (x) e1, orthogonal to the reference factor e2
    cfg = tmp_path / "orthogonal.json"
    problem = {
        "dims": [2, 2],
        "format": "cp",
        "ranks": [1],
        "target": {"dense": [1, 0, 0, 0]},
        "init": [[1, 0], [1, 0]],
        "reference_factor": [0, 1],
    }
    cfg.write_text(json.dumps({"problem": problem, "max_sweeps": 4}))
    assert run_cli(["run", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == [
        "[custom] sweeps=1 termination=grad_small f=-0.5",
        "  rate: unavailable (tangent series must be finite and nonnegative)",
    ]


@pytest.mark.parametrize(
    "args",
    [["gallery"], ["run", "--gallery", "blambda", "--max-sweeps", "3"]],
    ids=["gallery", "run"],
)
def test_closed_stdout_pipe_exits_one_without_traceback(args):
    src = str(Path(alskit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "alskit", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""  # in particular, no BrokenPipeError traceback
    assert proc.returncode == EXIT_USAGE
