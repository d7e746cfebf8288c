"""Dense tensors, SPD operators, and the inner-product helpers."""

import copy
import functools
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from alskit.engine import StopRule, run
from alskit.formats import CpFormat, ParamSystem
from alskit.tensors import (
    ENTRY_CAP,
    KRON_CHUNK_ENTRIES,
    SPD_VERIFY_CAP,
    DenseOperator,
    DenseTensor,
    IdentityOperator,
    ModeWiseOperator,
    Shape,
    SpdOperator,
    a_norm,
    check_int,
    index_value_rows,
    inner,
    kron_apply,
    rank_one_sum,
    vector_norm,
)
from alskit.verification import random_problem
from alskit.verification import random_spd_matrix as random_spd

TOL = 1e-12


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


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None])
def test_mode_sizes_and_counts_must_be_integers(bad):
    # nothing is truncated: 2.7 is not the mode size 2
    message = f"^mode size must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        Shape((bad, 2, 2))
    with pytest.raises(ValueError, match="^count must be an integer"):
        check_int(bad, "count")


def test_numpy_integers_are_integers():
    for value in (np.int64(3), np.int32(3), np.uint8(3)):
        assert check_int(value, "count") == 3 and type(check_int(value, "count")) is int
    assert Shape((np.int64(2), 3)).dims == (2, 3)


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


@settings(deadline=None, max_examples=200)
@given(
    x=st.lists(st.floats(-1e3, 1e3), max_size=8),
    k=st.integers(-600, 600),
)
def test_vector_norm_neither_underflows_nor_overflows(x, k):
    # bitwise np.linalg.norm where the squares sum to a normal double;
    # elsewhere, where sqrt(x . x) would read 0 or inf, math.hypot's
    y = np.ldexp(np.array(x, dtype=float), k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = vector_norm(y)
    with np.errstate(over="ignore"):
        squares = float(y.dot(y))
    if 2.0**-1022 <= squares < math.inf:
        assert got == float(np.linalg.norm(y))
    else:
        assert got == pytest.approx(math.hypot(*y), rel=1e-15, abs=0.0)
    assert math.isfinite(got) and (got > 0.0) == bool(np.any(y))


def test_vector_norm_of_non_finite_and_empty_vectors():
    assert math.isnan(vector_norm(np.array([1.0, np.nan])))
    assert vector_norm(np.array([1.0, -np.inf])) == math.inf
    assert vector_norm(np.array([1.5e308, 1.5e308])) == math.inf  # beyond the double range
    assert vector_norm(np.zeros(3)) == vector_norm(np.zeros(0)) == 0.0


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_a_scaled_target_reads_no_zero_or_inf_norm(scale):
    # TT (2, 4), mode-wise: block 1's W and residual scale with the target,
    # so the squares of its gradient's entries underflow or overflow
    A, b, fmt, p = random_problem(11)
    stop = StopRule(max_sweeps=3)
    plain = run(A, b, fmt, p, stop)
    trace = run(A, DenseTensor(b.shape, scale * b.values), fmt, p, stop)
    assert trace.termination != "grad_small"
    for rec in trace.records:
        assert 0.0 < rec.grad_norm < math.inf and 0.0 < rec.resid_orth < math.inf
    # the second step's gradient is scale invariant
    want = plain.records[1].grad_norm
    assert trace.records[1].grad_norm == pytest.approx(want, rel=1e-14, abs=0.0)


def test_dense_tensor_is_immutable():
    v = DenseTensor(Shape((2, 2)), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(AttributeError):
        v.values = np.zeros(4)
    with pytest.raises(ValueError):
        v.values[0] = 9.0  # numpy read-only buffer


def test_dense_tensor_wrap_skips_the_scan_and_is_immutable():
    # the solver's path for values it has just computed
    vals = np.array([1.0, np.inf, 3.0])
    v = DenseTensor._wrap(Shape((3,)), vals)
    assert v.values is not vals and np.array_equal(v.values, vals)
    assert vals.flags.writeable
    with pytest.raises(ValueError):
        v.values[0] = 9.0
    with pytest.raises(AttributeError):
        v.values = np.zeros(3)


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
    assert np.array_equal(A.apply(v).values, v.values)
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_operators_reject_non_finite_entries_when_built(value):
    # NaN and inf slipped past the symmetry test, and PSD verification
    # stops at SPD_VERIFY_CAP
    with pytest.raises(ValueError, match="^mode-1 factor entries must be finite$"):
        ModeWiseOperator([np.eye(2), np.diag([1.0, value]), np.eye(2)])
    with pytest.raises(ValueError, match="^operator matrix entries must be finite$"):
        DenseOperator(Shape((2, 2)), np.diag([1.0, 1.0, 1.0, value]))
    n = SPD_VERIFY_CAP + 1  # an operator that is trusted, not verified
    mat = np.eye(n)
    mat[n - 1, n - 1] = value
    with pytest.raises(ValueError, match="^operator matrix entries must be finite$"):
        DenseOperator(Shape((n,)), mat)


def test_large_dense_operator_is_unverified():
    # above the verification cap the operator is trusted, not factored
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


@settings(deadline=None, max_examples=40)
@given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=4), seed=st.integers(0, 2**16))
def test_modewise_apply_is_bitwise_apply_matrix_on_one_column(dims, seed):
    rng = np.random.default_rng(seed)
    A = ModeWiseOperator([random_spd(rng, m) for m in dims])
    v = DenseTensor(A.shape, rng.standard_normal(A.shape.size))
    assert np.array_equal(A.apply(v).values, A.apply_matrix(v.values[:, None])[:, 0])


def test_modewise_validates_factors():
    with pytest.raises(ValueError, match="not symmetric"):
        ModeWiseOperator([[[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="not positive definite"):
        ModeWiseOperator([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="at least one factor"):
        ModeWiseOperator([])
    with pytest.raises(ValueError, match="^factor 1 is not square$"):
        ModeWiseOperator([np.eye(2), np.ones((2, 3))])
    with pytest.raises(ValueError, match="^factor 0 is not square$"):
        ModeWiseOperator([np.ones(3)])
    for factors in ([np.zeros((0, 0))], [np.eye(2), np.zeros((0, 0))]):
        with pytest.raises(ValueError, match="^every mode size must be >= 1$"):
            ModeWiseOperator(factors)


def test_modewise_keeps_the_cholesky_factor_of_each_symmetrized_factor():
    # the factor a structured step solves with: bitwise dpotrf of
    # 0.5 (K + K^T); one factor is asymmetric within SYMMETRY_RTOL, so the
    # symmetrization shows
    rng = np.random.default_rng(12)
    factors = [random_spd(rng, m) for m in (1, 3, 5)]
    factors[2][0, 1] += 1e-14
    A = ModeWiseOperator(factors)
    assert len(A.cholesky) == len(factors)
    for K, kept in zip(A.factors, A.cholesky):
        want, info = lapack.dpotrf(0.5 * (K + K.T), lower=1, clean=0)
        assert info == 0
        assert np.array_equal(kept, want)


def test_modewise_survives_a_pickle_round_trip():
    # an operator pickles and deep-copies as its factors, rebuilt bit for bit
    rng = np.random.default_rng(14)
    A = ModeWiseOperator([random_spd(rng, m) for m in (3, 4)])
    for B in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A)):
        assert all(map(np.array_equal, B.cholesky, A.cholesky))
        X = rng.standard_normal((4, 2))
        assert B.mode_solve(1, X).tobytes() == A.mode_solve(1, X).tobytes()


def test_operators_are_verified_by_one_cholesky_and_no_eigensolver(monkeypatch):
    # the Cholesky factorization is the one definiteness verdict: building
    # a mode-wise operator, or a dense one at the cap, solves no eigenproblem
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(13)
    factors = [random_spd(rng, m) for m in (2, 30)]
    A = ModeWiseOperator(factors)
    for K, kept in zip(factors, A.cholesky):
        assert np.array_equal(kept, lapack.dpotrf(0.5 * (K + K.T), lower=1, clean=0)[0])
    assert DenseOperator(Shape((SPD_VERIFY_CAP,)), random_spd(rng, SPD_VERIFY_CAP)).verified
    # semidefinite and indefinite matrices are still rejected, a tiny
    # positive pivot is still accepted
    with pytest.raises(ValueError, match="^mode-1 factor is not positive definite"):
        ModeWiseOperator([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="^operator matrix is not positive definite"):
        DenseOperator(Shape((3,)), [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert ModeWiseOperator([np.diag([1.0, 1e-300])]).verified
    assert DenseOperator(Shape((2,)), np.diag([1.0, 1e-300])).verified


def test_apply_matrix_agrees_with_columnwise_apply():
    rng = np.random.default_rng(5)
    dims = (2, 2)
    A = ModeWiseOperator([random_spd(rng, m) for m in dims])
    M = rng.standard_normal((4, 3))
    got = A.apply_matrix(M)
    columnwise = np.column_stack(
        [A.apply(DenseTensor(A.shape, M[:, j])).values for j in range(3)]
    )
    # apply is apply_matrix on one column, so the dense Kronecker product
    # is the independent reference; relative, with no rtol slack to hide
    # a rounding-level error in one mode's product
    want = functools.reduce(np.kron, A.factors) @ M
    for x in (got, columnwise):
        assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)


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
    want = functools.reduce(np.kron, A.factors) @ M
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
    # one scratch buffer of at most max(one slab of N * k / m_0 entries,
    # KRON_CHUNK_ENTRIES) entries
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
    assert peak <= out.nbytes + max(n * k // dims[0], 2**15) * 8 + 4096


@settings(deadline=None, max_examples=60)
@given(
    dims=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    k=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_kron_apply_matches_dense_kronecker_product(dims, k, seed):
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((m, m)) for m in dims]
    n = int(np.prod(dims))
    M = rng.standard_normal((2 * k, n)).T[:, ::2]  # neither C- nor F-contiguous
    assert k < 2 or not (M.flags.c_contiguous or M.flags.f_contiguous)
    want = functools.reduce(np.kron, factors) @ M
    got = kron_apply(factors, M)
    assert got.shape == (n, k)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _slab_loop_kron_apply(factors, M):
    # the mode-1-slab-at-a-time loop that kron_apply's chunks batch
    dims = tuple(mat.shape[0] for mat in factors)
    n, k = M.shape
    out = np.empty((n, k))
    slab = n // dims[0] * k
    np.matmul(factors[0], M.reshape(dims[0], slab), out=out.reshape(dims[0], slab))
    scratch = np.empty(slab)
    for row in out.reshape(dims[0], slab):
        outer = 1
        for mat, m in zip(factors[1:], dims[1:]):
            view = row.reshape(outer, m, -1)
            buf = scratch.reshape(view.shape)
            np.matmul(mat, view, out=buf)
            view[...] = buf
            outer *= m
    return out


@pytest.mark.parametrize("dims, k", [((40, 30, 20), 6), ((50, 8, 9, 10), 5)])
def test_kron_apply_in_chunks_is_bitwise_the_slab_loop(dims, k):
    rng = np.random.default_rng(9)
    factors = [rng.standard_normal((m, m)) for m in dims]
    M = rng.standard_normal((int(np.prod(dims)), k))
    rows_per_chunk = KRON_CHUNK_ENTRIES // (M.size // dims[0])
    assert dims[0] >= 3 * rows_per_chunk and dims[0] % rows_per_chunk  # a short last chunk
    assert np.array_equal(kron_apply(factors, M), _slab_loop_kron_apply(factors, M))


@pytest.mark.parametrize(
    "dims, k",
    [
        # n * k == KRON_CHUNK_ENTRIES, then below it; one to four factors,
        # so zero to three later modes: an odd and an even number of
        # turns of the two buffers
        ((8,), 4096),
        ((32, 32), 32),
        ((16, 16, 16), 8),
        ((8, 8, 8, 8), 8),
        ((7,), 3),
        ((7, 3), 5),
        ((4, 5, 6), 3),
        ((2, 3, 4, 5), 7),
        ((1, 6, 1), 2),
    ],
)
def test_kron_apply_on_small_operands_is_bitwise_the_slab_loop(dims, k):
    rng = np.random.default_rng(10 + len(dims))
    factors = [rng.standard_normal((m, m)) for m in dims]
    n = int(np.prod(dims))
    assert n * k <= KRON_CHUNK_ENTRIES
    M = rng.standard_normal((n, k))
    strided = rng.standard_normal((2 * k, n)).T[:, ::2]  # neither C- nor F-contiguous
    for operand in (M, np.asfortranarray(M), strided):
        got = kron_apply(factors, operand)
        assert got.shape == (n, k) and got.flags.c_contiguous and got.base is None
        assert got.tobytes() == _slab_loop_kron_apply(factors, operand).tobytes()


# ---------------------------------------------------------------------------
# one product per operator: apply is apply_matrix on one column


class PositiveDiagonal(SpdOperator):
    """The least an operator defines: its shape, its flag and apply_matrix."""

    variant = "diagonal"

    def __init__(self, shape, diag):
        self.shape = shape
        self.verified = True
        self.diag = np.asarray(diag, dtype=float)

    def apply_matrix(self, M):
        return self.diag[:, None] * M


def shipped_operators(rng, dims):
    n = int(np.prod(dims))
    return [
        IdentityOperator(Shape(dims)),
        DenseOperator(Shape(dims), random_spd(rng, n)),
        ModeWiseOperator([random_spd(rng, m) for m in dims]),
    ]


def test_an_operator_that_defines_only_apply_matrix_runs_like_its_dense_matrix():
    rng = np.random.default_rng(11)
    shape = Shape((3, 4, 2))
    d = rng.uniform(0.5, 2.0, size=shape.size)
    b = DenseTensor(shape, rng.standard_normal(shape.size))
    fmt = CpFormat(shape, 2)
    init = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    stop = StopRule(max_sweeps=4)
    got = run(PositiveDiagonal(shape, d), b, fmt, init, stop)
    want = run(DenseOperator(shape, np.diag(d)), b, fmt, init, stop)
    assert got.records == want.records and len(got.records) == 12
    assert np.array_equal(got.final_v.values, want.final_v.values)


@pytest.mark.parametrize("dims", [(5,), (2, 3), (3, 1, 4)])
def test_apply_is_bitwise_apply_matrix_on_one_column(dims):
    rng = np.random.default_rng(12)
    for A in shipped_operators(rng, dims):
        v = DenseTensor(A.shape, rng.standard_normal(A.shape.size))
        assert np.array_equal(A.apply(v).values, A.apply_matrix(v.values[:, None])[:, 0])


def test_apply_rejects_a_wrong_shaped_operand():
    rng = np.random.default_rng(13)
    for A in [*shipped_operators(rng, (2, 3)), PositiveDiagonal(Shape((2, 3)), np.ones(6))]:
        for dims in [(3, 2), (6,)]:
            with pytest.raises(ValueError, match="incompatible shapes"):
                A.apply(DenseTensor.zeros(Shape(dims)))


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


@settings(deadline=None, max_examples=40)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    coeffs=st.lists(st.sampled_from([1.0, -0.0, -2.5, 1e-300, 3.0e200, 0.1]), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_rank_one_sum_is_bitwise_the_scaled_outer_product_chain(dims, coeffs, seed):
    rng = np.random.default_rng(seed)
    terms = [(c, [rng.standard_normal(m) for m in dims]) for c in coeffs]
    kept = [[vec.copy() for vec in vectors] for _, vectors in terms]
    want = np.zeros(dims)
    for c, vectors in terms:
        t = vectors[0]
        for vec in vectors[1:]:
            t = np.multiply.outer(t, vec)
        want += c * t
    got = rank_one_sum(Shape(tuple(dims)), terms).values
    assert np.array_equal(got, want.ravel())
    assert all(np.array_equal(a, b) for (_, vs), ks in zip(terms, kept) for a, b in zip(vs, ks))


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
    for dims in [(3,), (2, 3, 4), (1, 5, 1, 2)]:  # row k is flat entry k, unravelled
        v = DenseTensor(Shape(dims), np.random.default_rng(8).standard_normal(math.prod(dims)))
        rows = list(index_value_rows(v))
        assert len(rows) == v.shape.size
        for flat, (idx, val) in enumerate(rows):
            assert idx == tuple(int(i) for i in np.unravel_index(flat, dims))
            assert type(val) is float and val == v.values[flat]
