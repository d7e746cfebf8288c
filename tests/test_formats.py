"""Parameter systems, CP/TT/custom formats, and materialized block maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alskit.formats import (
    CpFormat,
    MultilinearFormat,
    ParamSystem,
    TensorFormat,
    TtFormat,
    evaluate,
    materialize_W,
    params_from_json,
    params_to_json,
    total_param_dim,
)
from alskit.tensors import Shape

TOL = 1e-12


# ---------------------------------------------------------------------------
# ParamSystem


def test_param_system_is_immutable():
    p = ParamSystem([[1.0, 2.0], [3.0]])
    assert len(p) == 2
    with pytest.raises(AttributeError):
        p.blocks = ()
    with pytest.raises(ValueError):
        p[0][0] = 9.0  # numpy read-only buffer


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
    assert total_param_dim(fmt) == 34


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
        assert np.array_equal(got, TensorFormat.local_map(fmt, blocks, mu))


@settings(deadline=None, max_examples=40)
@given(**local_map_cases)
def test_tt_local_map_matches_probe(dims, rank, zero_block, seed):
    rng = np.random.default_rng(seed)
    ranks = tuple(int(x) for x in rng.integers(1, rank + 1, size=len(dims) - 1))
    fmt = TtFormat(Shape(tuple(dims)), ranks)
    blocks = _random_blocks(fmt, rng, zero_block)
    for mu in range(fmt.num_blocks):
        got = fmt.local_map(blocks, mu)
        want = TensorFormat.local_map(fmt, blocks, mu)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


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
