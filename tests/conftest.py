from typing import Any, NamedTuple

import numpy as np
import pytest
import scipy.optimize

from lipfree.composition import LipschitzMap
from lipfree.metric_core import PointedMetricSpace, from_weighted_graph


def scaled(space_or_map, s: float):
    """The space, or the map with both of its spaces, with every distance
    multiplied by s. A map whose domain is its codomain keeps one space.
    The family metadata (an interval net's coordinates) is dropped,
    since it no longer describes the distances."""
    if isinstance(space_or_map, LipschitzMap):
        domain = scaled(space_or_map.domain, s)
        codomain = (domain if space_or_map.codomain is space_or_map.domain
                    else scaled(space_or_map.codomain, s))
        return LipschitzMap(domain, codomain, space_or_map.image)
    space = space_or_map
    return PointedMetricSpace(space.labels, space.base, space.dist * s, {"family": "scaled"})


def integer_space(rng, n):
    """A graph metric with integer weights 1-3 on a path plus a few chords:
    every distance is an integer, so quotients of integer values tie often."""
    edges = [(k, k + 1, int(rng.integers(1, 4))) for k in range(n - 1)]
    edges += [(int(a), int(b), int(rng.integers(1, 4)))
              for a, b in rng.integers(n, size=(n // 2, 2))]
    return from_weighted_graph(n, edges)


def brute_vertices(space):
    """The vertex pairs from the whole detour tensor d(x, z) + d(z, y)."""
    d = space.dist
    through = d[:, :, None] + d[None, :, :]  # (x, z, y)
    idx = np.arange(space.n)
    through[idx, idx, :] = np.inf  # z = x
    through[:, idx, idx] = np.inf  # z = y
    return np.argwhere(np.triu(through.min(axis=1) > d + space.tol, k=1))


def whole_quotients(num, den):
    """num / den over one whole matrix, -1 on the diagonal."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = num / den
    np.fill_diagonal(q, -1.0)
    return q


def first_maximum(q):
    """The largest entry of a square matrix and its first row-major
    position, smaller index first, with the number of positions holding it."""
    i, j = divmod(int(np.argmax(q)), len(q))
    return float(q[i, j]), (min(i, j), max(i, j)), int(np.count_nonzero(q == q[i, j]))


class LPSolve(NamedTuple):
    """One HiGHS solve: the shapes of its inequality and equality
    constraint matrices (None when absent) and its result."""

    a_ub: tuple[int, int] | None
    a_eq: tuple[int, int] | None
    result: Any


@pytest.fixture
def lp_solves(monkeypatch):
    """The HiGHS solves made through scipy.optimize.linprog while the
    test runs, in call order. Constraint matrices are read from the
    keyword arguments, which is how lipfree passes them."""
    solves = []
    original = scipy.optimize.linprog

    def shape(matrix):
        return None if matrix is None else tuple(np.shape(matrix))

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        solves.append(LPSolve(shape(kwargs.get("A_ub")), shape(kwargs.get("A_eq")), result))
        return result

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    return solves
