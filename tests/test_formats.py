"""Parameter systems, CP/TT/custom formats, and materialized block maps."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alskit.formats import (
    CpFormat,
    MultilinearFormat,
    ParamSystem,
    TtFormat,
    evaluate,
    materialize_W,
    params_from_json,
    params_to_json,
    probe_map,
)
from alskit.tensors import Shape
from reference_kernels import fold, kron_all, tt_factors_seeded, unfold

TOL = 1e-12


# ---------------------------------------------------------------------------
# ParamSystem


def _assert_norm(got, x):
    """Bitwise np.linalg.norm where x . x is a normal double, else math.hypot's to 1e-15."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        squares = float(x.dot(x))
    if 2.0**-1022 <= squares < math.inf:
        assert got == float(np.linalg.norm(x))
    else:
        assert got == pytest.approx(math.hypot(*x), rel=1e-15, abs=0.0)


def test_param_system_is_immutable():
    p = ParamSystem([[1.0, 2.0], [3.0]])
    assert len(p) == 2
    with pytest.raises(AttributeError):
        p.blocks = ()
    with pytest.raises(ValueError):
        p[0][0] = 9.0  # numpy read-only buffer


@settings(deadline=None, max_examples=30)
@given(
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    steps=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1.0, 1e-160, 1e150])), max_size=6),
    seed=st.integers(0, 2**16),
)
def test_carried_norms_are_bitwise_np_linalg_norm(sizes, steps, seed):
    rng = np.random.default_rng(seed)
    p = ParamSystem([rng.standard_normal(n) for n in sizes])
    for mu, scale in [(None, None), *steps]:
        if mu is not None:
            mu %= len(sizes)
            p = p.replace(mu, scale * rng.standard_normal(sizes[mu]))
        for got, block in zip(p.norms(), p.blocks):
            _assert_norm(got, block)
        assert p.max_norm() == max(p.norms())


def test_overflowing_block_norm_is_inf_without_a_warning():
    # squares that overflow do not make the norm inf; only a norm beyond the double range is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ParamSystem([[1e200, 1.0], [3.0, 4.0], [1.5e308, 1.5e308]])
        q = ParamSystem([[1.0], [2.0]]).replace(1, [1e300, 1e300])
    assert p.norms() == [1e200, 5.0, float("inf")]
    assert p.max_norm() == float("inf")
    with np.errstate(over="ignore"):
        assert float(np.linalg.norm(p[0])) == float("inf")
    assert q.norms()[0] == 1.0
    _assert_norm(q.norms()[1], [1e300, 1e300])


def test_param_system_copies_input():
    src = np.array([1.0, 2.0])
    p = ParamSystem([src])
    src[0] = 99.0
    assert p[0][0] == 1.0


def test_param_system_replace_and_norms():
    p = ParamSystem([[3.0, 4.0], [1.0]])
    assert p.norms() == [5.0, 1.0]
    assert p.max_norm() == 5.0
    q = p.replace(1, [7.0])
    assert q[1][0] == 7.0
    assert p[1][0] == 1.0  # original untouched


def test_param_system_replace_takes_the_indices_of_its_blocks():
    p = ParamSystem([[1.0, 2.0], [3.0]])
    # an index outside the system grows or reorders nothing
    for mu in (2, 5, -3, np.int64(2)):
        with pytest.raises(IndexError):
            p.replace(mu, [0.0])
    # a negative index counts from the end, as on the tuple of blocks
    q = p.replace(-1, [4.0])
    assert [b.tolist() for b in q.blocks] == [[1.0, 2.0], [4.0]]
    assert q.norms() == [math.sqrt(5.0), 4.0]
    q = p.replace(np.int64(-2), [0.0, 5.0])
    assert [b.tolist() for b in q.blocks] == [[0.0, 5.0], [3.0]] and q.norms() == [5.0, 3.0]
    assert q[1] is p[1]
    assert [b.tolist() for b in p.blocks] == [[1.0, 2.0], [3.0]]


def test_param_system_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        ParamSystem([[1.0, np.inf]])


def test_param_system_replace_shares_frozen_blocks_and_checks_the_new_one():
    p = ParamSystem([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]])
    src = np.array([7.0, 8.0])
    q = p.replace(0, src)
    assert q[1] is p[1] and q[2] is p[2]  # unchanged blocks are shared
    src[0] = 99.0
    assert q[0].tolist() == [7.0, 8.0]  # the new block is a copy
    assert not q[0].flags.writeable
    with pytest.raises(ValueError):
        q[0][0] = 9.0
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="parameter entries must be finite"):
            p.replace(2, [1.0, bad, 0.0])
    assert [b.tolist() for b in p.blocks] == [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
    with pytest.raises(AttributeError):
        q.blocks = ()


@settings(deadline=None, max_examples=100)
@given(
    size=st.integers(1, 6),
    entries=st.lists(
        st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e200, 1e160, 1.0]), max_size=4
    ),
    seed=st.integers(0, 2**16),
)
def test_param_system_rejects_exactly_the_non_finite_blocks(size, entries, seed):
    # a finite norm rules out NaN and inf; a non-finite one is scanned
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(size)
    for entry in entries:
        vec[rng.integers(size)] = entry
    finite = bool(np.isfinite(vec).all())
    makers = (
        lambda: ParamSystem([vec, [1.0]]),
        lambda: ParamSystem([[1.0], [2.0]]).replace(0, vec),
    )
    for make in makers:
        try:
            p = make()
        except ValueError as exc:
            assert str(exc) == "parameter entries must be finite" and not finite
        else:
            assert finite
            _assert_norm(p.norms()[0], vec)  # finite where the squares overflow
            assert np.array_equal(p[0], vec)


# ---------------------------------------------------------------------------
# CP format


def test_cp_block_layout_is_column_major():
    shape = Shape((3, 2))
    fmt = CpFormat(shape, 2)
    assert fmt.num_blocks == 2
    assert fmt.block_dim(0) == 6
    mat = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    p = ParamSystem([mat.ravel(order="F"), np.eye(2).ravel(order="F")])
    assert np.array_equal(fmt.factor_matrix(p, 0), mat)


def test_cp_rank_one_is_outer_product():
    shape = Shape((2, 3))
    fmt = CpFormat(shape, 1)
    p = ParamSystem([[1.0, 2.0], [3.0, 4.0, 5.0]])
    want = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
    assert np.allclose(evaluate(fmt, p).as_array(), want, atol=TOL)


def test_cp_rank_two_sums_terms():
    shape = Shape((2, 2))
    fmt = CpFormat(shape, 2)
    # columns (e1, e2) in both modes: e1(x)e1 + e2(x)e2 = identity matrix
    blocks = [np.eye(2).ravel(order="F")] * 2
    assert np.allclose(evaluate(fmt, ParamSystem(blocks)).as_array(), np.eye(2), atol=TOL)


def test_cp_evaluation_scans_its_values_once(monkeypatch):
    fmt = CpFormat(Shape((3, 4, 5)), 2)
    rng = np.random.default_rng(5)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    want = evaluate(fmt, p).values
    scanned = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        scanned.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    assert np.array_equal(evaluate(fmt, p).values, want)
    assert scanned == [60]


def test_cp_rejects_bad_rank():
    with pytest.raises(ValueError, match="rank"):
        CpFormat(Shape((2, 2)), 0)


@settings(deadline=None, max_examples=25)
@given(
    al=st.floats(-5, 5, allow_nan=False),
    be=st.floats(-5, 5, allow_nan=False),
    mu=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_cp_evaluation_is_multilinear(al, be, mu, seed):
    rng = np.random.default_rng(seed)
    shape = Shape((2, 3, 2))
    fmt = CpFormat(shape, 2)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(m)) for m in range(3)])
    x = rng.standard_normal(fmt.block_dim(mu))
    y = rng.standard_normal(fmt.block_dim(mu))
    lhs = evaluate(fmt, p.replace(mu, al * x + be * y)).values
    rhs = (
        al * evaluate(fmt, p.replace(mu, x)).values
        + be * evaluate(fmt, p.replace(mu, y)).values
    )
    assert np.allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# TT format


def test_tt_ranks_and_block_dims():
    fmt = TtFormat(Shape((2, 3, 4)), (2, 3))
    assert fmt.ranks == (1, 2, 3, 1)
    assert [fmt.block_dim(mu) for mu in range(3)] == [4, 18, 12]


def test_tt_matches_per_entry_core_products():
    rng = np.random.default_rng(11)
    shape = Shape((2, 3, 2))
    fmt = TtFormat(shape, (2, 2))
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    cores = [fmt.core(p, mu) for mu in range(3)]
    got = evaluate(fmt, p).as_array()
    for idx in np.ndindex(*shape.dims):
        mat = cores[0][:, idx[0], :]
        for mu in range(1, 3):
            mat = mat @ cores[mu][:, idx[mu], :]
        assert got[idx] == pytest.approx(float(mat[0, 0]), abs=TOL)


def test_tt_validates_ranks():
    with pytest.raises(ValueError, match="internal ranks"):
        TtFormat(Shape((2, 2, 2)), (2,))
    with pytest.raises(ValueError, match=">= 1"):
        TtFormat(Shape((2, 2)), (0,))


@pytest.mark.parametrize("bad", [1.9, 2.0, True, "2"])
def test_ranks_and_block_dims_must_be_integers(bad):
    shape = Shape((2, 2))
    shown = re.escape(repr(bad))
    with pytest.raises(ValueError, match=f"^cp rank must be an integer, got {shown}$"):
        CpFormat(shape, bad)
    with pytest.raises(ValueError, match=f"^tt rank must be an integer, got {shown}$"):
        TtFormat(shape, (bad,))
    with pytest.raises(ValueError, match=f"^block dim must be an integer, got {shown}$"):
        MultilinearFormat(shape, (2, bad), lambda blocks: np.zeros(4))
    doc = {"format": "cp", "dims": [2, 2], "ranks": [1], "blocks": [[1.0, 0.0], [0.0, 1.0]]}
    for key, value, what in [("dims", [bad, 2], "mode size"), ("ranks", [bad], "cp rank")]:
        with pytest.raises(ValueError, match=f"^{what} must be an integer, got {shown}$"):
            params_from_json(json.dumps({**doc, key: value}))


def test_numpy_integer_ranks_are_integers():
    shape = Shape(np.array([2, 3]))
    assert CpFormat(shape, np.int64(2)).rank == 2
    assert TtFormat(shape, np.array([3])).ranks == (1, 3, 1)
    assert type(shape.dims[0]) is int and shape.size == 6


# ---------------------------------------------------------------------------
# custom formats


def test_custom_format_evaluates_callable():
    shape = Shape((2, 2))

    def bilinear(blocks):
        x, y = blocks
        return np.outer(x, y).ravel()

    fmt = MultilinearFormat(shape, (2, 2), bilinear, name="outer")
    p = ParamSystem([[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(evaluate(fmt, p).values, [0.0, 2.0, 0.0, 0.0])
    assert fmt.name == "outer"


def test_custom_format_rejects_wrong_output_size():
    fmt = MultilinearFormat(Shape((2, 2)), (2, 2), lambda blocks: np.ones(3))
    with pytest.raises(ValueError, match="returned 3 values"):
        evaluate(fmt, ParamSystem([[1.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# shared plumbing


def test_check_params_validates_count_and_length():
    fmt = CpFormat(Shape((2, 2)), 1)
    with pytest.raises(ValueError, match="format needs 2"):
        fmt.check_params(ParamSystem([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="block 1 has length 3"):
        fmt.check_params(ParamSystem([[1.0, 0.0], [1.0, 0.0, 0.0]]))
    tt = TtFormat(Shape((2, 3, 2)), (2, 2))
    tt.check_params(ParamSystem([np.ones(4), np.ones(12), np.ones(4)]))
    with pytest.raises(ValueError, match=r"^block 1 has length 11, expected 12$"):
        tt.check_params(ParamSystem([np.ones(4), np.ones(11), np.ones(5)]))
    with pytest.raises(ValueError, match=r"^parameter system has 4 blocks, format needs 3$"):
        tt.check_params(ParamSystem([np.ones(4), np.ones(12), np.ones(4), np.ones(1)]))


def test_param_dim_range_check():
    # block indices run over exactly [0, num_blocks): both edges are accepted
    # with W of width block_dim, one past either edge is rejected
    fmt = CpFormat(Shape((2, 2)), 1)
    p = ParamSystem([[1.0, 0.0], [1.0, 0.0]])
    assert fmt.block_dim(0) == 2
    assert materialize_W(fmt, p, 0).shape == (4, fmt.block_dim(0))
    assert materialize_W(fmt, p, 1).shape == (4, fmt.block_dim(1))
    with pytest.raises(ValueError, match="out of range"):
        materialize_W(fmt, p, 2)
    with pytest.raises(ValueError, match="out of range"):
        materialize_W(fmt, p, -1)


def test_materialize_W_factorizes_evaluation():
    # W(p) @ p_mu must reproduce U(p) for every block of every format
    rng = np.random.default_rng(12)
    shape = Shape((2, 3, 2))
    for fmt in (CpFormat(shape, 2), TtFormat(shape, (2, 2))):
        p = ParamSystem(
            [rng.standard_normal(fmt.block_dim(mu)) for mu in range(fmt.num_blocks)]
        )
        v = evaluate(fmt, p).values
        for mu in range(fmt.num_blocks):
            W = materialize_W(fmt, p, mu)
            assert W.shape == (shape.size, fmt.block_dim(mu))
            assert np.allclose(W @ p[mu], v, atol=1e-10)


def test_materialize_W_range_check():
    fmt = CpFormat(Shape((2, 2)), 1)
    p = ParamSystem([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="out of range"):
        materialize_W(fmt, p, 5)
    with pytest.raises(ValueError, match="out of range"):
        materialize_W(fmt, p, -1)


def _random_blocks(fmt, rng, zero_block):
    blocks = [rng.standard_normal(fmt.block_dim(mu)) for mu in range(fmt.num_blocks)]
    if zero_block is not None:
        blocks[zero_block % fmt.num_blocks][:] = 0.0
    return blocks


local_map_cases = dict(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    rank=st.integers(1, 3),
    zero_block=st.one_of(st.none(), st.integers(0, 3)),
    seed=st.integers(0, 2**16),
)


@settings(deadline=None, max_examples=40)
@given(**local_map_cases)
def test_cp_local_map_equals_probe_exactly(dims, rank, zero_block, seed):
    rng = np.random.default_rng(seed)
    fmt = CpFormat(Shape(tuple(dims)), rank)
    blocks = _random_blocks(fmt, rng, zero_block)
    for mu in range(fmt.num_blocks):
        got = fmt.local_map(blocks, mu)
        assert got.shape == (fmt.shape.size, fmt.block_dim(mu))
        assert np.array_equal(got, probe_map(fmt, blocks, mu))


def _outer_product_loop(fmt, blocks):
    # CP evaluation as one outer-product chain per term, summed in term order
    mats = [b.reshape((m, fmt.rank), order="F") for b, m in zip(blocks, fmt.shape.dims)]
    out = np.zeros(fmt.shape.dims)
    for j in range(fmt.rank):
        t = mats[0][:, j]
        for mat in mats[1:]:
            t = np.multiply.outer(t, mat[:, j])
        out += t
    return out.ravel()


@settings(deadline=None, max_examples=40)
@given(**local_map_cases)
def test_cp_evaluation_is_bitwise_the_local_map_of_the_last_block(dims, rank, zero_block, seed):
    # one GEMM, as for TT below; the outer-product loop is an independent
    # reference: both form each term's product in the same order and add
    # `rank` terms, so they differ by at most rank * eps times the sum of
    # the terms' magnitudes (the loop on the absolute factors)
    rng = np.random.default_rng(seed)
    fmt = CpFormat(Shape(tuple(dims)), rank)
    blocks = _random_blocks(fmt, rng, zero_block)
    last = fmt.num_blocks - 1
    Z = kron_all(fmt.unfolding_factors(blocks, last))
    F = unfold(blocks[last], rank, dims[last])
    got = evaluate(fmt, ParamSystem(blocks)).values
    assert np.array_equal(got, fold(F @ Z.T, Z.shape[0], dims[last]))
    magnitudes = _outer_product_loop(fmt, [np.abs(b) for b in blocks])
    bound = rank * np.finfo(float).eps * magnitudes
    assert np.all(np.abs(got - _outer_product_loop(fmt, blocks)) <= bound)


@settings(deadline=None, max_examples=60)
@given(
    dims=local_map_cases["dims"],
    rank=st.integers(1, 4),
    zero_block=local_map_cases["zero_block"],
    seed=local_map_cases["seed"],
)
def test_tt_evaluation_is_bitwise_the_local_map_of_the_last_core(dims, rank, zero_block, seed):
    # one-core trains (dims of length 1) and rank-1 trains included
    rng = np.random.default_rng(seed)
    ranks = tuple(int(x) for x in rng.integers(1, rank + 1, size=len(dims) - 1))
    fmt = TtFormat(Shape(tuple(dims)), ranks)
    blocks = _random_blocks(fmt, rng, zero_block)
    last = fmt.num_blocks - 1
    Z = kron_all(fmt.unfolding_factors(blocks, last))
    F = unfold(blocks[last], fmt.ranks[last], dims[last])
    want = fold(F @ Z.T, Z.shape[0], dims[last])  # W q of the last core's local map
    assert np.array_equal(evaluate(fmt, ParamSystem(blocks)).values, want)


@settings(deadline=None, max_examples=40)
@given(**local_map_cases)
def test_tt_local_map_matches_probe(dims, rank, zero_block, seed):
    rng = np.random.default_rng(seed)
    ranks = tuple(int(x) for x in rng.integers(1, rank + 1, size=len(dims) - 1))
    fmt = TtFormat(Shape(tuple(dims)), ranks)
    blocks = _random_blocks(fmt, rng, zero_block)
    for mu in range(fmt.num_blocks):
        got = fmt.local_map(blocks, mu)
        want = probe_map(fmt, blocks, mu)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@settings(deadline=None, max_examples=40)
@given(
    dims=local_map_cases["dims"], rank=local_map_cases["rank"], seed=local_map_cases["seed"]
)
# a TT Z that is one entry left by cancellation: the probe multiplies the
# same cores in another order, 3.5e-14 off relative to |Z|
@example(dims=[2, 1, 1, 1], rank=2, seed=1)
def test_blocks_are_cores_and_tensors_are_mode_views(dims, rank, seed):
    # block mu is an (a, m_mu, c) core: probing its entry (a, i, c) gives
    # column (a, c) of Z on slice i of the (L, m_mu, R) view and zeros on
    # the other slices, so F[i, (a, c)] is core entry (a, i, c).  The
    # probe's own products round in another order, so a slice is bound by
    # the magnitude of the summands, the same product on |cores|.
    rng = np.random.default_rng(seed)
    shape = Shape(tuple(dims))
    ranks = tuple(int(x) for x in rng.integers(1, rank + 1, size=len(dims) - 1))
    for fmt in (CpFormat(shape, rank), TtFormat(shape, ranks)):
        blocks = _random_blocks(fmt, rng, None)
        for mu, m in enumerate(dims):
            a, c = fmt.block_axes(mu)
            L, m_mu, R = fmt.mode_view(mu)
            assert (L, m_mu, R) == (math.prod(dims[:mu]), m, math.prod(dims[mu + 1:]))
            Z = kron_all(fmt.unfolding_factors(blocks, mu)).reshape(L, R, a, c)
            scale = np.linalg.norm(kron_all(fmt.unfolding_factors([abs(b) for b in blocks], mu)))
            W = probe_map(fmt, blocks, mu).reshape(L, m, R, a, m, c)
            for i in range(m):
                assert np.linalg.norm(W[:, i, :, :, i, :] - Z) <= 1e-14 * scale
                assert not np.delete(W[:, :, :, :, i, :], i, axis=1).any()
    # the (L, m_mu, R) view of a tensor is its mode-mu slices
    x = rng.standard_normal(shape.size)
    for mu, m in enumerate(dims):
        view = x.reshape(fmt.mode_view(mu))
        want = np.moveaxis(x.reshape(dims), mu, 0).reshape(m, -1)
        assert np.array_equal(np.moveaxis(view, 1, 0).reshape(m, -1), want)


def test_cp_block_core_is_the_factor_matrix():
    fmt = CpFormat(Shape((3, 4)), 2)
    p = ParamSystem([np.arange(6.0), np.arange(8.0)])
    assert fmt.block_axes(1) == (2, 1)
    # F[i, (a, c)] is core entry (a, i, c): the column-major factor matrix
    F = p[1].reshape(2, 4, 1).transpose(1, 0, 2).reshape(4, 2)
    assert np.array_equal(F, fmt.factor_matrix(p, 1))
    assert np.array_equal(F, np.arange(8.0).reshape((4, 2), order="F"))


def _fancy_cp_local_map(fmt, blocks, mu):
    """CP's (Khatri-Rao factor, W) built from ones in C order and by a two-array scatter."""
    dims, r = fmt.shape.dims, fmt.rank
    kr = np.ones((1, r))
    for nu, (b, m) in enumerate(zip(blocks, dims)):
        if nu != mu:
            factor = np.array(b.reshape((m, r), order="F"), order="C")
            kr = (kr[:, None, :] * factor[None]).reshape(-1, r)
    m = dims[mu]
    left = int(np.prod(dims[:mu]))
    W = np.zeros((left, m, kr.shape[0] // left, r, m))
    diag = np.arange(m)
    W[:, diag, :, :, diag] = kr.reshape(left, -1, r)
    return kr, W.reshape(fmt.shape.size, fmt.block_dim(mu))


def _fancy_tt_local_map(fmt, blocks, mu):
    """TT's W from its interfaces by a two-array scatter; a missing end interface is [1]."""
    factors = fmt.unfolding_factors(blocks, mu)
    one = np.ones((1, 1))
    P = one if mu == 0 else factors[0]
    Qt = one if mu == fmt.num_blocks - 1 else factors[-1]
    m = fmt.shape.dims[mu]
    W = np.zeros((P.shape[0], m, Qt.shape[0], fmt.ranks[mu], m, fmt.ranks[mu + 1]))
    diag = np.arange(m)
    W[:, diag, :, :, diag, :] = P[:, None, :, None] * Qt[None, :, None, :]
    return W.reshape(fmt.shape.size, fmt.block_dim(mu))


def _signed_zero_blocks(fmt, rng, zero_block):
    """Random blocks with +0 and -0 entries, so that W holds zeros of both signs."""
    blocks = _random_blocks(fmt, rng, zero_block)
    for block in blocks:
        hit = rng.random(block.size) < 0.3
        block[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
    return blocks


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(deadline=None, max_examples=40)
@given(**local_map_cases)
# d = 2 leaves one frozen factor, the transposed view of a block, which is
# copied: at m = 1 the view is (1, 2) with strides (8, 8), the copy (16, 8)
@example(dims=[1, 1], rank=2, zero_block=None, seed=0)
@example(dims=[3, 4], rank=3, zero_block=None, seed=0)
def test_cp_local_map_is_bitwise_the_scatter_assembly(dims, rank, zero_block, seed):
    rng = np.random.default_rng(seed)
    fmt = CpFormat(Shape(tuple(dims)), rank)
    blocks = _signed_zero_blocks(fmt, rng, zero_block)
    for mu in range(fmt.num_blocks):
        kr, W = _fancy_cp_local_map(fmt, blocks, mu)
        (got_kr,) = fmt.unfolding_factors(blocks, mu)
        # the same layout too, so the products taken with it agree bit for bit
        assert _same_bits(got_kr, kr) and got_kr.strides == kr.strides
        assert _same_bits(fmt.local_map(blocks, mu), W)


@settings(deadline=None, max_examples=40)
@given(**local_map_cases)
def test_tt_local_map_is_bitwise_the_scatter_assembly(dims, rank, zero_block, seed):
    rng = np.random.default_rng(seed)
    ranks = tuple(int(x) for x in rng.integers(1, rank + 1, size=len(dims) - 1))
    fmt = TtFormat(Shape(tuple(dims)), ranks)
    blocks = _signed_zero_blocks(fmt, rng, zero_block)
    for mu in range(fmt.num_blocks):
        assert _same_bits(fmt.local_map(blocks, mu), _fancy_tt_local_map(fmt, blocks, mu))


@pytest.mark.parametrize("dims", [(5,), (4, 5), (4, 5, 3), (3, 4, 2, 3)])
def test_unfolding_factors_are_the_interfaces_a_block_has(dims):
    d = len(dims)
    rng = np.random.default_rng(d)
    shape = Shape(dims)
    tt = TtFormat(shape, (2, 3, 2)[: d - 1])
    cp = CpFormat(shape, 3)
    for fmt in (tt, cp):
        blocks = _random_blocks(fmt, rng, None)
        for mu in range(d):
            factors = fmt.unfolding_factors(blocks, mu)
            a, c = fmt.block_axes(mu)
            assert kron_all(factors).shape == (shape.size // dims[mu], a * c)
            if fmt is cp:
                assert len(factors) == 1
            elif d == 1:
                assert len(factors) == 1 and np.array_equal(factors[0], np.ones((1, 1)))
            elif mu == 0:  # Q^T alone
                (Qt,) = factors
                assert Qt.shape == (math.prod(dims[1:]), tt.ranks[1])
            elif mu == d - 1:  # P alone
                (P,) = factors
                assert P.shape == (math.prod(dims[:-1]), tt.ranks[-2])
            else:
                P, Qt = factors
                assert P.shape == (math.prod(dims[:mu]), tt.ranks[mu])
                assert Qt.shape == (math.prod(dims[mu + 1:]), tt.ranks[mu + 1])
    # a numpy integer block index selects the same factors
    tt_blocks = _random_blocks(tt, rng, None)
    for mu in range(d):
        want = tt.unfolding_factors(tt_blocks, mu)
        got = tt.unfolding_factors(tt_blocks, np.int64(mu))
        assert len(got) == len(want) and all(map(np.array_equal, got, want))


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize(
    "dims, ranks",
    [
        ((5,), ()),
        ((4, 5), (3,)),
        ((4, 5), (1,)),
        ((4, 5, 3), (2, 3)),
        ((4, 5, 3), (1, 1)),
        ((3, 4, 2, 3), (2, 3, 2)),
        ((3, 4, 2, 3), (1, 2, 1)),
        ((3, 4, 2, 3), (1, 1, 1)),
    ],
)
def test_tt_factors_are_bitwise_the_chains_seeded_with_one(dims, ranks):
    # each chain starts from its outer core plus 0.0, not from a product
    # with [1]; -0.0, subnormal and zero entries come out as that product
    # leaves them, -0.0 as +0.0
    rng = np.random.default_rng(len(dims) * 10 + sum(ranks))
    fmt = TtFormat(Shape(dims), ranks)
    blocks = ParamSystem(_random_blocks(fmt, rng, None)).blocks
    specials = [-0.0, 0.0, 5e-324, -1e-310]
    blocks = ParamSystem(
        [np.where(np.arange(b.size) % 3 == 0, specials[nu % 4], b) for nu, b in enumerate(blocks)]
    ).blocks
    assert any(np.signbit(b[0]) and b[0] == 0.0 for b in blocks)
    for mu in range(len(dims)):
        got = fmt.unfolding_factors(blocks, mu)
        want = tt_factors_seeded(fmt, blocks, mu)
        assert [f.shape for f in got] == [f.shape for f in want]
        assert all(_bits(g) == _bits(w) for g, w in zip(got, want))
        # a factor is the format's own array, not a view of a frozen block
        assert not any(np.shares_memory(f, b) for f in got for b in blocks)


def test_custom_format_local_map_is_the_probe():
    fmt = MultilinearFormat(
        Shape((2, 3)), (2, 3), lambda blocks: np.outer(blocks[0], blocks[1]).ravel()
    )
    p = ParamSystem([[1.0, 2.0], [3.0, 4.0, 5.0]])
    assert np.array_equal(materialize_W(fmt, p, 0), np.kron(np.eye(2), p[1][:, None]))
    assert np.array_equal(materialize_W(fmt, p, 1), np.kron(p[0][:, None], np.eye(3)))


# ---------------------------------------------------------------------------
# JSON round trips


def test_cp_params_json_roundtrip():
    rng = np.random.default_rng(13)
    shape = Shape((2, 3))
    fmt = CpFormat(shape, 2)
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(2)])
    fmt2, p2 = params_from_json(params_to_json(fmt, p))
    assert isinstance(fmt2, CpFormat)
    assert fmt2.shape.dims == (2, 3) and fmt2.rank == 2
    for mu in range(2):
        assert np.array_equal(p[mu], p2[mu])


def test_tt_params_json_roundtrip():
    rng = np.random.default_rng(14)
    shape = Shape((2, 2, 3))
    fmt = TtFormat(shape, (2, 2))
    p = ParamSystem([rng.standard_normal(fmt.block_dim(mu)) for mu in range(3)])
    fmt2, p2 = params_from_json(params_to_json(fmt, p))
    assert isinstance(fmt2, TtFormat)
    assert fmt2.ranks == (1, 2, 2, 1)
    for mu in range(3):
        assert np.array_equal(p[mu], p2[mu])


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([["1", 0.0], [0.0, 1.0]], "blocks must hold numbers only, got '1'"),
        ([[1.0, True], [0.0, 1.0]], "blocks must hold numbers only, got True"),
        ([[1.0, 0.0], [None, 1.0]], "blocks must hold numbers only, got None"),
        ([[1.0, 0.0], "01"], "blocks must hold numbers only, got '01'"),
        ([[10**400, 0.0], [0.0, 1.0]], "malformed parameter document: int too large to convert to float"),
    ],
    ids=["string", "bool", "null", "string_block", "huge_int"],
)
def test_params_json_takes_json_numbers_only(blocks, message):
    # numpy would parse each of the first four as floats
    doc = {"format": "cp", "dims": [2, 2], "ranks": [1], "blocks": blocks}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        params_from_json(json.dumps(doc))
    fmt, p = params_from_json(json.dumps({**doc, "blocks": [[1, 0.0], [0.0, 1]]}))
    assert fmt.shape.dims == (2, 2) and p[0].dtype == float


def test_params_json_rejects_custom_and_malformed():
    fmt = MultilinearFormat(Shape((2,)), (2,), lambda blocks: blocks[0])
    with pytest.raises(ValueError, match="no JSON form"):
        params_to_json(fmt, ParamSystem([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="malformed parameter document"):
        params_from_json('{"format": "cp", "dims": [2, 2]}')
    with pytest.raises(ValueError, match="unknown format"):
        params_from_json(
            '{"format": "tucker", "dims": [2], "ranks": [1], "blocks": [[1, 0]]}'
        )
    with pytest.raises(ValueError, match="exactly one rank"):
        params_from_json(
            '{"format": "cp", "dims": [2, 2], "ranks": [1, 1], "blocks": [[1, 0], [1, 0]]}'
        )
