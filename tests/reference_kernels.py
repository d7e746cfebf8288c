"""Reference kernels shared by the engine and format tests: unfoldings, Kronecker products,
the Gram cut on singular values and the TT interface chains."""

import bisect
import functools

import numpy as np

from alskit.formats import kron


def unfold(x, a, m):
    """x viewed as (a, m, rest), with the middle axis moved first: an m-row matrix."""
    return x.reshape(a, m, -1).transpose(1, 0, 2).reshape(m, -1)


def fold(X, a, m):
    """Inverse of ``unfold``: the flat array whose unfolding is the m-row matrix X."""
    return X.reshape(m, a, -1).transpose(1, 0, 2).ravel()


def kron_all(factors):
    """The Kronecker product of the factors, in order (Z, for unfolding factors)."""
    return functools.reduce(kron, factors)


def gram_cut(sigma, eps_rank):
    """(kept count, ratios) of the cut (sigma / sigma_1)^2 > eps_rank on descending sigma, in numpy.

    The ratios array is ``(sigma / sigma[0]) ** 2`` (NaN throughout at
    sigma_1 = 0), and the count is a bisection of its ascending reverse.
    """
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (sigma / sigma[0]) ** 2
    return len(ratios) - bisect.bisect_right(ratios[::-1].tolist(), eps_rank), ratios


def tt_factors_seeded(fmt, blocks, mu):
    """The TT interfaces of core mu, each chain seeded with the 1 x 1 factor [1]."""
    ranks = fmt.ranks
    P = np.ones((1, 1))
    for nu in range(mu):
        P = P.reshape(-1, ranks[nu]) @ blocks[nu].reshape(ranks[nu], -1)
    P = P.reshape(-1, ranks[mu])
    if mu == fmt.num_blocks - 1:
        return [P]
    Q = np.ones((1, 1))
    for nu in range(fmt.num_blocks - 1, mu, -1):
        Q = blocks[nu].reshape(-1, ranks[nu + 1]) @ Q.reshape(ranks[nu + 1], -1)
    return [P, Q.reshape(ranks[mu + 1], -1).T][int(mu == 0):]
