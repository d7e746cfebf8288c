"""The self-check registry: happy paths, fault injection, trial scaling."""

import hashlib

import numpy as np
import pytest

from alskit import engine, verification
from alskit.formats import CpFormat, TtFormat
from alskit.verification import (
    CHECKS,
    check_decrement_identity,
    check_monotone_chain,
    check_oracle_equivalence,
    ROUTE_CASES,
    random_problem,
    rank_deficient_problem,
    run_checks,
    sized_problem,
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


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]


# The draws of verify's problems at seeds verify uses: the function, its
# arguments, the dims, and the digests of the blocks, the target and the
# operator factors as float64 bytes, so a change in any draw, its order or
# its layout fails here.
PINNED_DRAWS = [
    (
        random_problem,
        (400,),
        (2, 2, 3, 2),
        ("b49a7ab7951ad8d6", "0a00e2bc234c1dad", "1b290e18d604b4fd"),
    ),
    (
        random_problem,
        (500,),
        (3, 3, 4),
        ("49822b8df041e70b", "2fcd367e0f344cd9", "ced03c75e365636c"),
    ),
    (
        random_problem,
        (900,),
        (2, 3, 2),
        ("a07ecd411d2ec270", "d4fba131f894e8f9", "8b457decf3f2e791"),
    ),
    (
        sized_problem,
        (110, *ROUTE_CASES[1]),
        (8, 8, 8),
        ("0a64388e0da04641", "9ac7b2c3f71ee5a4", "6b588ca662df0017"),
    ),
    (
        sized_problem,
        (1100, *ROUTE_CASES[-1]),
        (8, 8, 6),
        ("f300cb6f70deddea", "6d52c0648314d397", "98cfa43ea98e1f6f"),
    ),
    (
        sized_problem,
        (1403, *ROUTE_CASES[3]),
        (7, 8, 6),
        ("221e96b2c3cc8be6", "db9d3f219b72c154", "8ba7248cd7c67cbe"),
    ),
    (
        rank_deficient_problem,
        (402,),
        (2, 2, 4),
        ("ffa7a7f2ac56b6cf", "e3653dceee639392", "b2c4cbd8ebddc44a"),
    ),
    (
        rank_deficient_problem,
        (901,),
        (4, 3, 4),
        ("34ddc8c22afddbb6", "02acbbe54632ba88", "be31696e9b3ccbc0"),
    ),
    (
        rank_deficient_problem,
        (903,),
        (2, 4, 4),
        ("565997279be248da", "0e61bf58fb55175b", "c56d7a479966cd6d"),
    ),
]


@pytest.mark.parametrize(
    "draw, args, dims, digests",
    PINNED_DRAWS,
    ids=[f"{draw.__name__}-{args[0]}" for draw, args, _, _ in PINNED_DRAWS],
)
def test_verify_problem_draws_are_pinned(draw, args, dims, digests):
    A, b, fmt, p = draw(*args)
    assert fmt.shape.dims == dims
    assert (_digest(p.blocks), _digest([b.values]), _digest(A.factors)) == digests


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
        state, rec = true_step(*args, **kwargs)
        rec.decrement += 1e-6
        return state, rec

    monkeypatch.setattr(engine, "micro_step", skewed)
    ok, detail = check_decrement_identity(trials=5)
    assert not ok


def test_monotone_check_catches_ascent(monkeypatch):
    true_step = engine.micro_step

    def skewed(*args, **kwargs):
        state, rec = true_step(*args, **kwargs)
        rec.f += 1e-3  # pretend the objective went up
        rec.decrement += 1e-3
        return state, rec

    monkeypatch.setattr(engine, "micro_step", skewed)
    ok, detail = check_monotone_chain(trials=5, sweeps=2)
    assert not ok


def test_oracle_check_catches_wrong_solution(monkeypatch):
    true_step = engine.micro_step

    def skewed(A, b, fmt, state, mu, *args, **kwargs):
        new, rec = true_step(A, b, fmt, state, mu, *args, **kwargs)
        bumped = new.params[mu].copy()
        bumped[0] += 1e-4
        return new._replace(params=new.params.replace(mu, bumped)), rec

    monkeypatch.setattr(engine, "micro_step", skewed)
    ok, detail = check_oracle_equivalence(trials=6)
    assert not ok


def test_unpatched_checks_recover():
    # the previous monkeypatches must not leak
    ok, detail = check_decrement_identity(trials=5)
    assert ok, detail


def test_the_replay_checks_make_each_gallery_run_once(monkeypatch):
    # recursion-defect replays the four rank-one gallery runs and
    # tangent-recursion the blambda one, and both replay the ROUTE_CASES
    # runs: one verify makes each run once
    made = []
    real = verification._gallery_trace
    real_run = engine.run
    runs = []

    def counted(instance, sweeps):
        made.append((instance.label, sweeps))
        return real(instance, sweeps)

    def counted_run(A, b, fmt, p, stop, **kwargs):
        runs.append((fmt.shape.dims, stop.max_sweeps))
        return real_run(A, b, fmt, p, stop, **kwargs)

    monkeypatch.setattr(verification, "_gallery_trace", counted)
    monkeypatch.setattr(engine, "run", counted_run)
    results = run_checks(["recursion-defect", "tangent-recursion"])
    assert [r.ok for r in results] == [True, True]
    labels = ["mohlenkamp", "blambda", "totally_orthogonal", "tucker"]
    assert made == [(label, 6) for label in labels]
    assert len(runs) == len(labels) + len(ROUTE_CASES) == 9
    assert runs[len(labels):] == [(case[1], 3) for case in ROUTE_CASES]
    for name in ("recursion-defect", "tangent-recursion"):  # alone, each makes its own
        runs.clear()
        assert run_checks([name])[0].ok
        assert len(runs) == 9
