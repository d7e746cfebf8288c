"""The built-in problem instances and their documented behaviors."""

import numpy as np
import pytest

from alskit.diagnostics import full_gradient, materialize_M
from alskit.engine import StopRule, run
from alskit.formats import evaluate
from alskit.gallery import (
    LABELS,
    blambda_example,
    counterexample_bilinear,
    default_tucker_args,
    desilva_lim,
    get_instance,
    mohlenkamp_example,
    totally_orthogonal,
    tucker_coupling_closed_form,
    tucker_middle_contraction,
    tucker_target,
)
from alskit.tensors import DenseTensor, Shape, rank_one_sum


def test_labels_are_the_documented_six():
    assert LABELS == (
        "mohlenkamp",
        "blambda",
        "totally_orthogonal",
        "desilva_lim",
        "counterexample",
        "tucker",
    )
    for label in LABELS:
        instance = get_instance(label)
        assert instance.label == label
        assert instance.b.norm() > 0.0


def test_get_instance_unknown_label():
    with pytest.raises(ValueError, match="unknown label"):
        get_instance("nonsense")


def test_constructors_are_deterministic():
    for build in (
        lambda: blambda_example(0.3, n=5, seed=2),
        lambda: totally_orthogonal(2, (3, 4, 3), seed=9),
        lambda: get_instance("tucker", dims=(3, 3, 3), t_dims=(2, 2, 2), seed=4),
    ):
        one, two = build(), build()
        assert np.array_equal(one.b.values, two.b.values)
        for mu in range(len(one.init)):
            assert np.array_equal(one.init[mu], two.init[mu])


# ---------------------------------------------------------------------------
# mohlenkamp


def test_mohlenkamp_target_structure():
    instance = mohlenkamp_example(0.4)
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    want = rank_one_sum(
        Shape((2, 2, 2)), [(2.0, [e1, e1, e1]), (1.0, [e2, e2, e2])]
    )
    assert np.array_equal(instance.b.values, want.values)
    for mu in range(3):
        assert np.array_equal(instance.init[mu], [0.4, 1.0])


def test_mohlenkamp_reference_switches_at_half():
    low = mohlenkamp_example(0.3)
    assert np.array_equal(low.reference_factor, [0.0, 1.0])
    high = mohlenkamp_example(0.7)
    assert np.array_equal(high.reference_factor, [1.0, 0.0])
    boundary = mohlenkamp_example(0.5)
    assert boundary.reference is None
    assert boundary.reference_factor is None


def test_mohlenkamp_rejects_negative_tau():
    with pytest.raises(ValueError, match="nonnegative"):
        mohlenkamp_example(-0.1)


# ---------------------------------------------------------------------------
# blambda


def test_blambda_directions_are_orthonormal():
    instance = blambda_example(0.46)
    p, q = instance.extra["p"], instance.extra["q"]
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(p @ q)) < 1e-12
    assert instance.b.shape.dims == (8, 8, 8)
    # target: p^(x3) plus the three symmetrized coupling terms
    shape = instance.b.shape
    want = rank_one_sum(
        shape,
        [(1.0, [p, p, p]), (0.46, [p, q, q]), (0.46, [q, p, q]), (0.46, [q, q, p])],
    )
    assert np.allclose(instance.b.values, want.values, atol=1e-14)
    assert np.array_equal(instance.reference_factor, p)


def test_blambda_outside_range_is_flagged():
    instance = blambda_example(0.75)
    assert "reference-outside-range" in instance.flags
    assert instance.reference is None
    assert instance.reference_factor is None
    inside = blambda_example(0.5)
    assert inside.flags == ()
    assert inside.reference is not None


def test_blambda_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        blambda_example(-0.2)
    with pytest.raises(ValueError, match="n >= 2"):
        blambda_example(0.3, n=1)


# ---------------------------------------------------------------------------
# totally_orthogonal


def test_totally_orthogonal_default_weights_and_reference():
    instance = totally_orthogonal(3, (4, 4, 4), seed=5)
    weights = instance.extra["weights"]
    assert np.array_equal(weights, [3.0, 2.0, 1.0])
    factors = instance.extra["factors"]
    for B in factors:
        assert np.max(np.abs(B.T @ B - np.eye(3))) < 1e-12
    # dominant-term reference
    want_ref = rank_one_sum(
        instance.b.shape, [(3.0, [B[:, 0] for B in factors])]
    )
    assert np.allclose(instance.reference.values, want_ref.values, atol=1e-14)
    assert np.array_equal(instance.reference_factor, factors[0][:, 0])


def test_totally_orthogonal_validation():
    with pytest.raises(ValueError, match="r too large"):
        totally_orthogonal(5, (4, 4, 4))
    with pytest.raises(ValueError, match="^need at least one term$"):
        totally_orthogonal(0, (4, 4, 4))


# ---------------------------------------------------------------------------
# desilva_lim


def test_desilva_target_and_init():
    instance = desilva_lim(2)
    x, y = [1.0, 0.0], [0.0, 1.0]
    want = rank_one_sum(
        Shape((2, 2, 2)), [(1.0, [x, x, y]), (1.0, [x, y, x]), (1.0, [y, x, x])]
    )
    assert np.array_equal(instance.b.values, want.values)
    # start = (x+y)(x)(x+y)(x)(x+y) - x(x)x(x)x, split over the two columns
    v0 = evaluate(instance.fmt, instance.init)
    start = rank_one_sum(
        Shape((2, 2, 2)),
        [(1.0, [[1, 1], [1, 1], [1, 1]]), (-1.0, [x, x, x])],
    )
    assert np.allclose(v0.values, start.values, atol=1e-14)


def test_desilva_needs_two_dims():
    with pytest.raises(ValueError, match="n >= 2"):
        desilva_lim(1)


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_same_tensor_different_stationarity():
    instance, stationary, nonstationary = counterexample_bilinear()
    v1 = evaluate(instance.fmt, stationary)
    v2 = evaluate(instance.fmt, nonstationary)
    assert np.array_equal(v1.values, v2.values)
    g_stat = full_gradient(instance.A, instance.b, instance.fmt, stationary)
    g_non = full_gradient(instance.A, instance.b, instance.fmt, nonstationary)
    assert np.max(np.abs(g_stat)) <= 1e-12
    assert np.max(np.abs(g_non - [0.0, 0.0, 0.0, -1.0 / 3.0])) <= 1e-12
    # init is the non-stationary representative
    for mu in range(2):
        assert np.array_equal(instance.init[mu], nonstationary[mu])


def test_counterexample_takes_no_arguments():
    with pytest.raises(ValueError, match="no arguments"):
        get_instance("counterexample", tau=0.4)


# ---------------------------------------------------------------------------
# tucker


def test_tucker_default_core_is_super_diagonal():
    core, factors = default_tucker_args((4, 4, 4), (2, 2, 2), seed=0)
    arr = core.as_array()
    assert arr[0, 0, 0] == 2.0 and arr[1, 1, 1] == 1.0
    off = arr.copy()
    off[0, 0, 0] = off[1, 1, 1] = 0.0
    assert np.max(np.abs(off)) == 0.0
    for B in factors:
        assert B.shape == (4, 2)
        assert np.max(np.abs(B.T @ B - np.eye(2))) < 1e-12


def test_tucker_target_assembles_core_and_factors():
    core = DenseTensor.from_array(np.array([[1.0, 0.0], [0.0, 2.0]]))
    factors = [np.eye(3)[:, :2], np.eye(4)[:, :2]]
    instance = tucker_target(core, factors)
    want = np.zeros((3, 4))
    want[0, 0] = 1.0
    want[1, 1] = 2.0
    assert np.array_equal(instance.b.as_array(), want)


def test_tucker_target_rejects_non_orthonormal_factors():
    core = DenseTensor.from_array(np.eye(2))
    with pytest.raises(ValueError, match="non-orthonormal"):
        tucker_target(core, [np.ones((3, 2)), np.eye(3)[:, :2]])
    with pytest.raises(ValueError, match="one factor matrix per core mode"):
        tucker_target(core, [np.eye(3)[:, :2]])


def test_tucker_closed_form_matches_probed_coupling():
    instance = get_instance("tucker", dims=(3, 3, 3), t_dims=(2, 2, 2), seed=3)
    trace = run(
        instance.A,
        instance.b,
        instance.fmt,
        instance.init,
        StopRule(max_sweeps=3),
        keep_params=True,
    )
    d = instance.fmt.num_blocks
    for i, rec in enumerate(trace.records):
        if rec.mu != 0:
            continue
        p = trace.param_snapshots[i]
        probed = materialize_M(instance.fmt, instance.b, p, 0, d - 1)
        closed = tucker_coupling_closed_form(instance, p)
        assert np.max(np.abs(probed - closed)) < 1e-12


def test_tucker_closed_form_and_its_contraction_reject_what_they_cannot_form():
    one_mode = tucker_target(DenseTensor.from_array(np.ones(2)), [np.eye(3)[:, :2]])
    instance = get_instance("tucker", dims=(3, 3, 3), t_dims=(2, 2, 2), seed=3)
    zero_middle = instance.init.replace(1, np.zeros(3))
    for form in (tucker_coupling_closed_form, tucker_middle_contraction):
        with pytest.raises(ValueError, match="^closed form needs at least two modes$"):
            form(one_mode, one_mode.init)
        with pytest.raises(ValueError, match="^closed form undefined at a zero middle block$"):
            form(instance, zero_middle)


def test_tucker_middle_contraction_is_diagonal_for_the_super_diagonal_core():
    instance = get_instance("tucker", dims=(4, 4, 4), t_dims=(2, 2, 2), seed=3)
    gamma, scale = tucker_middle_contraction(instance, instance.init)
    assert gamma.shape == (2, 2)
    assert np.array_equal(gamma, np.diag(np.diag(gamma)))
    assert scale == np.linalg.norm(instance.init[1])


def test_tucker_unknown_kwargs_rejected():
    with pytest.raises(ValueError, match="unknown arguments"):
        get_instance("tucker", bogus=3)


@pytest.mark.parametrize(
    "dims, t_dims, message",
    [
        ((4, 4, 4), (2, 2), "core order must match mode count"),
        ((4, 4, 4), (2, 5, 2), "core mode sizes cannot exceed tensor mode sizes"),
    ],
)
def test_tucker_arguments_are_checked(dims, t_dims, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        default_tucker_args(dims, t_dims, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        get_instance("tucker", dims=dims, t_dims=t_dims)


# ---------------------------------------------------------------------------
# instance validation


def test_instance_rejects_mismatched_pieces():
    instance = mohlenkamp_example(0.4)
    from alskit.gallery import ProblemInstance
    from alskit.tensors import IdentityOperator

    with pytest.raises(ValueError, match="incompatible shapes"):
        ProblemInstance(
            label="bad",
            A=IdentityOperator(Shape((3, 3))),
            b=instance.b,
            fmt=instance.fmt,
            init=instance.init,
        )
    with pytest.raises(ValueError, match="target must be nonzero"):
        ProblemInstance(
            label="bad",
            A=instance.A,
            b=DenseTensor.zeros(Shape((2, 2, 2))),
            fmt=instance.fmt,
            init=instance.init,
        )


@pytest.mark.parametrize(
    "change, message",
    [
        ({"reference": "zero"}, "reference must be nonzero"),
        ({"reference_factor": [np.nan, 1.0]}, "reference factor must be finite"),
        ({"reference_factor": [0.0, 0.0]}, "reference factor must be nonzero"),
    ],
    ids=["zero_reference", "nan_factor", "zero_factor"],
)
def test_instance_rejects_a_reference_with_no_angle(change, message):
    instance = mohlenkamp_example(0.4)
    from alskit.gallery import ProblemInstance

    if change.get("reference") == "zero":
        change = {"reference": DenseTensor.zeros(instance.b.shape)}
    pieces = dict(label="bad", A=instance.A, b=instance.b, fmt=instance.fmt, init=instance.init)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProblemInstance(**pieces, **change)


@pytest.mark.parametrize(
    "label, kwargs, message",
    [
        ("totally_orthogonal", {"r": 2.7}, "r must be an integer, got 2.7"),
        ("totally_orthogonal", {"dims": (4.5, 4, 4)}, "mode size must be an integer, got 4.5"),
        ("desilva_lim", {"n": 2.9}, "n must be an integer, got 2.9"),
        ("blambda", {"n": 8.0}, "n must be an integer, got 8.0"),
        ("blambda", {"seed": True}, "seed must be an integer, got True"),
        ("tucker", {"t_dims": (2, 2, 1.5)}, "core mode size must be an integer, got 1.5"),
    ],
)
def test_gallery_integer_arguments_are_not_truncated(label, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        get_instance(label, **kwargs)


def test_gallery_takes_numpy_integer_arguments():
    got = totally_orthogonal(np.int64(2), np.array([3, 4, 3]), seed=np.int64(9))
    want = totally_orthogonal(2, (3, 4, 3), seed=9)
    assert np.array_equal(got.b.values, want.b.values)
    assert desilva_lim(np.int32(3)).b.shape.dims == (3, 3, 3)
