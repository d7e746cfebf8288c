"""Reference kernels shared by the engine and format tests: unfoldings and Kronecker products."""

import functools

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
