"""The self-check registry: happy paths, fault injection, trial scaling."""

import numpy as np
import pytest

from alskit import engine
from alskit.formats import CpFormat, TtFormat
from alskit.verification import (
    CHECKS,
    check_decrement_identity,
    check_monotone_chain,
    check_oracle_equivalence,
    random_problem,
    rank_deficient_problem,
    run_checks,
)

FAST_CHECKS = [
    "inner-bilinearity",
    "format-multilinearity",
    "lowdin-properties",
    "post-step-identities",
    "decrement-identity",
    "oracle-equivalence",
    "rate-formula",
    "counterexample-gradients",
]


def test_registry_names_are_unique_and_stable():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names))
    assert len(names) == 26
    assert "oracle-equivalence" in names
    assert "recursion-defect" in names


def test_problem_generators_are_seeded():
    a1 = random_problem(42)
    a2 = random_problem(42)
    assert np.array_equal(a1[1].values, a2[1].values)
    assert type(a1[2]) is type(a2[2])
    b1 = rank_deficient_problem(7)
    b2 = rank_deficient_problem(7)
    assert np.array_equal(b1[3][0], b2[3][0])


def test_random_problem_covers_both_formats():
    kinds = {type(random_problem(seed)[2]) for seed in range(12)}
    assert CpFormat in kinds and TtFormat in kinds


def test_rank_deficient_blocks_duplicate_a_column():
    _, _, fmt, p = rank_deficient_problem(3)
    mat = fmt.factor_matrix(p, 0)
    assert np.array_equal(mat[:, 0], mat[:, 1])


def test_fast_checks_pass_at_reduced_trials():
    results = run_checks(names=FAST_CHECKS, trials=5)
    assert len(results) == len(FAST_CHECKS)
    for res in results:
        assert res.ok, f"{res.name}: {res.detail}"


def test_full_registry_passes_at_default_trials():
    # what `alskit verify` runs, including the replay checks the fast list skips
    results = run_checks()
    assert [r.name for r in results] == [name for name, _ in CHECKS]
    failed = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert not failed and len(results) == 26


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(names=["no-such-check"])


def test_run_checks_preserves_registry_order():
    results = run_checks(names=["rate-formula", "inner-bilinearity"], trials=2)
    assert [r.name for r in results] == ["inner-bilinearity", "rate-formula"]


def test_crashing_check_reports_failure(monkeypatch):
    # a check that raises is reported as failed, not propagated
    import alskit.verification as verification

    def boom(trials=1):
        raise RuntimeError("instrumented crash")

    idx = [i for i, (n, _) in enumerate(CHECKS) if n == "inner-bilinearity"][0]
    monkeypatch.setattr(
        verification, "CHECKS", CHECKS[:idx] + [("inner-bilinearity", boom)] + CHECKS[idx + 1:]
    )
    results = verification.run_checks(names=["inner-bilinearity"])
    assert not results[0].ok
    assert "instrumented crash" in results[0].detail


# ---------------------------------------------------------------------------
# fault injection: corrupt the solver, watch the checks catch it


def test_decrement_check_catches_corrupted_records(monkeypatch):
    true_step = engine.micro_step

    def skewed(*args, **kwargs):
        p_new, v_new, Av_new, rec = true_step(*args, **kwargs)
        rec.decrement += 1e-6
        return p_new, v_new, Av_new, rec

    monkeypatch.setattr(engine, "micro_step", skewed)
    ok, detail = check_decrement_identity(trials=5)
    assert not ok


def test_monotone_check_catches_ascent(monkeypatch):
    true_step = engine.micro_step

    def skewed(*args, **kwargs):
        p_new, v_new, Av_new, rec = true_step(*args, **kwargs)
        rec.f += 1e-3  # pretend the objective went up
        rec.decrement += 1e-3
        return p_new, v_new, Av_new, rec

    monkeypatch.setattr(engine, "micro_step", skewed)
    ok, detail = check_monotone_chain(trials=5, sweeps=2)
    assert not ok


def test_oracle_check_catches_wrong_solution(monkeypatch):
    true_step = engine.micro_step

    def skewed(A, b, fmt, p, mu, *args, **kwargs):
        p_new, v_new, Av_new, rec = true_step(A, b, fmt, p, mu, *args, **kwargs)
        bumped = p_new[mu].copy()
        bumped[0] += 1e-4
        return p_new.replace(mu, bumped), v_new, Av_new, rec

    monkeypatch.setattr(engine, "micro_step", skewed)
    ok, detail = check_oracle_equivalence(trials=6)
    assert not ok


def test_unpatched_checks_recover():
    # the previous monkeypatches must not leak
    ok, detail = check_decrement_identity(trials=5)
    assert ok, detail
