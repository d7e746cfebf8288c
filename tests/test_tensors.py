"""Dense tensors, SPD operators, and the inner-product helpers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alskit.tensors import (
    ENTRY_CAP,
    DenseOperator,
    DenseTensor,
    IdentityOperator,
    ModeWiseOperator,
    Shape,
    SpdOperator,
    a_norm,
    index_value_rows,
    inner,
    rank_one_sum,
)

TOL = 1e-12


def random_spd(rng, m):
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * rng.uniform(0.5, 2.0, size=m)) @ Q.T


# ---------------------------------------------------------------------------
# Shape


def test_shape_basics():
    shape = Shape((2, 3, 4))
    assert shape.ndim == 3
    assert shape.size == 24


@pytest.mark.parametrize("dims", [(5,), (2, 3), (4, 1, 3), (2, 3, 4, 5)])
def test_shape_size_is_the_product_of_dims(dims):
    shape = Shape(dims)
    assert shape.size == int(np.prod(dims))
    assert type(shape.size) is int
    assert shape == Shape(dims) and hash(shape) == hash(Shape(dims))


def test_shape_rejects_bad_dims():
    with pytest.raises(ValueError, match="at least one mode"):
        Shape(())
    with pytest.raises(ValueError, match=">= 1"):
        Shape((2, 0))


def test_shape_entry_cap():
    for dims in [(1000, 1000, 1000), (1000, 1001)]:
        with pytest.raises(ValueError, match="entry cap exceeded"):
            Shape(dims)
    # the cap itself is admitted
    assert Shape((1000, 1000)).size == ENTRY_CAP == 10**6


# ---------------------------------------------------------------------------
# DenseTensor


def test_dense_tensor_roundtrip_and_norm():
    arr = np.arange(6, dtype=float).reshape(2, 3)
    v = DenseTensor.from_array(arr)
    assert v.shape.dims == (2, 3)
    assert np.array_equal(v.as_array(), arr)
    assert v.norm() == pytest.approx(np.linalg.norm(arr))


def test_dense_tensor_is_immutable():
    v = DenseTensor(Shape((2, 2)), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(AttributeError):
        v.values = np.zeros(4)
    with pytest.raises(ValueError):
        v.values[0] = 9.0  # numpy read-only buffer


def test_dense_tensor_validates_input():
    with pytest.raises(ValueError, match="incompatible shapes"):
        DenseTensor(Shape((2, 2)), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        DenseTensor(Shape((2,)), [1.0, np.nan])


def test_dense_tensor_arithmetic():
    shape = Shape((2, 2))
    u = DenseTensor(shape, [1.0, 2.0, 3.0, 4.0])
    v = DenseTensor(shape, [4.0, 3.0, 2.0, 1.0])
    assert np.array_equal((u + v).values, np.full(4, 5.0))
    assert np.array_equal((u - v).values, [-3.0, -1.0, 1.0, 3.0])
    assert np.array_equal((-u).values, [-1.0, -2.0, -3.0, -4.0])
    assert np.array_equal((2.0 * u).values, (u * 2.0).values)
    with pytest.raises(ValueError, match="incompatible shapes"):
        u + DenseTensor(Shape((4,)), np.ones(4))


def test_zeros_constructor():
    z = DenseTensor.zeros(Shape((3, 2)))
    assert z.norm() == 0.0


# ---------------------------------------------------------------------------
# inner product


@settings(deadline=None, max_examples=30)
@given(
    al=st.floats(-10, 10, allow_nan=False),
    be=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_inner_is_bilinear_and_symmetric(al, be, seed):
    rng = np.random.default_rng(seed)
    shape = Shape((3, 2, 2))
    u = DenseTensor(shape, rng.standard_normal(shape.size))
    v = DenseTensor(shape, rng.standard_normal(shape.size))
    w = DenseTensor(shape, rng.standard_normal(shape.size))
    lhs = inner(al * u + be * v, w)
    rhs = al * inner(u, w) + be * inner(v, w)
    assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)
    assert inner(u, v) == pytest.approx(inner(v, u), rel=1e-14, abs=1e-14)


def test_inner_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="incompatible shapes"):
        inner(DenseTensor.zeros(Shape((2, 2))), DenseTensor.zeros(Shape((4,))))


# ---------------------------------------------------------------------------
# operators


def test_identity_operator():
    shape = Shape((2, 3))
    A = IdentityOperator(shape)
    v = DenseTensor(shape, np.arange(6, dtype=float))
    assert A.apply(v) is v
    assert A.verified


def test_dense_operator_matches_matrix():
    rng = np.random.default_rng(3)
    shape = Shape((2, 2))
    mat = random_spd(rng, 4)
    A = DenseOperator(shape, mat)
    v = DenseTensor(shape, rng.standard_normal(4))
    assert np.allclose(A.apply(v).values, mat @ v.values, atol=TOL)
    assert A.verified


def test_dense_operator_rejects_asymmetric_and_indefinite():
    shape = Shape((2,))
    with pytest.raises(ValueError, match="not symmetric"):
        DenseOperator(shape, [[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        DenseOperator(shape, [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="incompatible shapes"):
        DenseOperator(shape, np.eye(3))


def test_large_dense_operator_is_unverified():
    # above the eigendecomposition cap the operator is trusted, not checked
    n = 1024
    shape = Shape((n,))
    A = DenseOperator(shape, np.eye(n))
    assert not A.verified


def test_modewise_matches_kron():
    rng = np.random.default_rng(4)
    dims = (2, 3, 2)
    mats = [random_spd(rng, m) for m in dims]
    A = ModeWiseOperator(mats)
    K = np.kron(np.kron(mats[0], mats[1]), mats[2])
    v = DenseTensor(Shape(dims), rng.standard_normal(12))
    assert np.allclose(A.apply(v).values, K @ v.values, atol=1e-10)


def test_modewise_validates_factors():
    with pytest.raises(ValueError, match="not symmetric"):
        ModeWiseOperator([[[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="not positive definite"):
        ModeWiseOperator([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="at least one factor"):
        ModeWiseOperator([])


def test_apply_matrix_agrees_with_columnwise_apply():
    rng = np.random.default_rng(5)
    dims = (2, 2)
    A = ModeWiseOperator([random_spd(rng, m) for m in dims])
    M = rng.standard_normal((4, 3))
    got = A.apply_matrix(M)
    want = np.column_stack(
        [A.apply(DenseTensor(A.shape, M[:, j])).values for j in range(3)]
    )
    assert np.allclose(got, want, atol=TOL)


@settings(deadline=None, max_examples=40)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_modewise_apply_matrix_matches_generic_path(dims, k, seed):
    rng = np.random.default_rng(seed)
    A = ModeWiseOperator([random_spd(rng, m) for m in dims])
    M = rng.standard_normal((A.shape.size, k))
    got = A.apply_matrix(M)
    want = SpdOperator.apply_matrix(A, M)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_modewise_apply_matrix_edge_cases():
    rng = np.random.default_rng(7)
    A = ModeWiseOperator([random_spd(rng, m) for m in (3, 4, 2)])
    empty = A.apply_matrix(np.zeros((24, 0)))
    assert empty.shape == (24, 0)
    M = rng.standard_normal((5, 24)).T  # transposed, not C-contiguous
    assert not M.flags.c_contiguous
    assert np.allclose(A.apply_matrix(M), A.apply_matrix(M.copy()), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="incompatible shapes"):
        A.apply_matrix(np.ones((23, 2)))
    mat = random_spd(rng, 6)
    one = ModeWiseOperator([mat])
    X = rng.standard_normal((6, 3))
    assert np.allclose(one.apply_matrix(X), mat @ X, rtol=0, atol=1e-14)


def test_modewise_apply_matrix_allocates_output_plus_one_slab():
    # the mode-0 product goes straight into the output; later modes reuse
    # one scratch buffer of N * k / m_0 entries
    rng = np.random.default_rng(8)
    dims, k = (10, 12, 8), 20
    A = ModeWiseOperator([random_spd(rng, m) for m in dims])
    n = A.shape.size
    M = rng.standard_normal((n, k))
    A.apply_matrix(M)
    tracemalloc.start()
    try:
        out = A.apply_matrix(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (n * k // dims[0]) * 8 + 4096


def test_energy_inner_and_norm():
    rng = np.random.default_rng(6)
    dims = (3, 2)
    A = ModeWiseOperator([random_spd(rng, m) for m in dims])
    u = DenseTensor(A.shape, rng.standard_normal(6))
    v = DenseTensor(A.shape, rng.standard_normal(6))
    assert inner(A.apply(u), v) == pytest.approx(inner(A.apply(v), u), rel=1e-10)
    assert a_norm(A, u) == pytest.approx(np.sqrt(inner(A.apply(u), u)))
    assert a_norm(A, DenseTensor.zeros(A.shape)) == 0.0
    assert a_norm(A, u) > 0.0


# ---------------------------------------------------------------------------
# rank-one sums and CSV rows


def test_rank_one_sum_single_term():
    shape = Shape((2, 2))
    b = rank_one_sum(shape, [(2.0, [[1.0, 0.0], [0.0, 1.0]])])
    # 2 * e1 (x) e2 has its only entry at flat index 1
    assert np.array_equal(b.values, [0.0, 2.0, 0.0, 0.0])


def test_rank_one_sum_empty_is_zero():
    assert rank_one_sum(Shape((2, 3)), []).norm() == 0.0


def test_rank_one_sum_validates_terms():
    shape = Shape((2, 2))
    with pytest.raises(ValueError, match="supplies 1 vectors"):
        rank_one_sum(shape, [(1.0, [[1.0, 0.0]])])
    with pytest.raises(ValueError, match="length"):
        rank_one_sum(shape, [(1.0, [[1.0, 0.0, 0.0], [1.0, 0.0]])])


def test_index_value_rows_order():
    v = DenseTensor(Shape((2, 2)), [10.0, 11.0, 12.0, 13.0])
    rows = list(index_value_rows(v))
    assert [tuple(int(i) for i in idx) for idx, _ in rows] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert [val for _, val in rows] == [10.0, 11.0, 12.0, 13.0]
