"""Finite pointed metric spaces: validation, constructors, betweenness.

A space is a finite set of points with a distinguished base point (index
0 for every generated family) and a metric: a distance matrix, frozen, that
:func:`validate_space` checks or the constructor that built it proves. It
computes its vertex pairs, the pairs no third point lies between, once, off
validation's detour pass, the only one, which constructor-built matrices read
too. Pairwise passes that would otherwise hold an n x n temporary read rows in
the ranges of :func:`row_blocks`, the one place that sizes one.

Every module follows one tolerance policy, kept here: a distance is compared
within ``space.tol`` (``REL_TOL`` times the largest distance), and a
dimensionless quantity (a map norm or Lipschitz constant against 1, a face
pairing, an LP in normalised units, two transport norms) within ``REL_TOL``,
so verdicts ignore the unit of distance; no function value is compared with a
bound, since a base value is subtracted. Three
finer constants stay, as ``REL_TOL`` would loosen their checks:
``freespace.ZERO_SUM_REL`` admits a vector's sum, the simplex's 2e-13 pivot
fixes the optimum the dual must match, and the vertex LP's 1e-10 weight cut
keeps certificates that rebuild their molecule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AsymmetricDistance,
    BadBaseIndex,
    DisconnectedGraph,
    MalformedInput,
    NegativeDistance,
    NonzeroSelfDistance,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)

REL_TOL = 1e-9
BLOCK = 1 << 17  # elements in one temporary of a blocked whole-array pass (1 MiB)


@dataclass(frozen=True, eq=False)
class PointedMetricSpace:
    """A finite metric space with a distinguished base point.

    Built by :func:`validate_space`, which checks the metric axioms, or by a
    constructor that proves them: :func:`from_weighted_graph`, :func:`line_net`,
    :func:`interval_net`, :func:`circle_net` or :func:`snowflake`. ``edges``
    are the pairs x < y of the graph it was built from (read-only, row-major).
    """

    labels: tuple[str, ...]
    base: int
    dist: np.ndarray
    meta: Mapping[str, Any] = field(default_factory=dict)
    edges: np.ndarray | None = field(default=None, repr=False)
    diameter: float = field(init=False, repr=False)
    tol: float = field(init=False, repr=False)  # metric comparison tolerance
    _vertex_mask: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if self.edges is not None:
            self.edges.setflags(write=False)
        object.__setattr__(self, "diameter", float(d.max()))
        object.__setattr__(self, "tol", REL_TOL * self.diameter)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @cached_property
    def vertices(self) -> np.ndarray:
        """:func:`vertex_pairs`, computed once, as a read-only ``(k, 2)`` ``intp`` array."""
        found = vertex_pairs(self)
        found.setflags(write=False)
        object.__setattr__(self, "_vertex_mask", None)  # n * n bytes, read no more
        return found

    def d(self, i: int, j: int) -> float:
        n = len(self.dist)
        if 0 <= i < n and 0 <= j < n:  # a negative index is no point
            try:
                return self.dist.item(i, j)
            except TypeError:  # a bool or a float, which point_indices reads or refuses
                pass
        return self.dist.item(*point_indices(self, (i, j)).tolist())

    def pairs(self) -> Iterator["PointPair"]:
        """All ordered-up-to-sign pairs (i < j)."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield PointPair(i, j)

    def __repr__(self) -> str:
        fam = self.meta.get("family", "space")
        return f"<PointedMetricSpace {fam} n={self.n} base={self.base}>"


@dataclass(frozen=True)
class PointPair:
    """An ordered pair of distinct nonnegative point indices."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == self.y or min(self.x, self.y) < 0:
            raise ValueError(f"pair points must be distinct and >= 0, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def validate_space(
    dist: Sequence[Sequence[float]] | np.ndarray,
    base: int = 0,
    labels: Sequence[str] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> PointedMetricSpace:
    """Check the metric axioms of a copy of the matrix and wrap it in a space.

    One min-plus pass over the detours of the pairs x < y checks the triangle
    inequality and marks the space's vertex pairs, both within ``space.tol``,
    ``REL_TOL * max(d)``. A violation is reported as the triple (i, j, k) of
    the first third point j that breaks a pair and the first pair (i, k) it
    breaks; nothing is repaired. A matrix not square or of fewer than two
    points, or a label list of the wrong length, is malformed input at its path
    in a space file (``metric.d`` or ``labels``), as is a distance above half
    the largest float, since two of them sum to inf.
    """
    d = np.array(dist, dtype=float)  # the caller's array stays theirs, and writeable
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MalformedInput("metric.d", f"expected a square matrix, got shape {d.shape}")
    n = d.shape[0]
    if labels is not None and len(labels) != n:
        raise MalformedInput("labels", f"expected {n} labels, got {len(labels)}")
    if n < 2:
        raise MalformedInput("metric.d", f"expected at least two points, got {n}")
    if not (0 <= base < n):
        raise BadBaseIndex(base, n)
    if not (np.isfinite(d).all() and d.min() >= 0 and not d.diagonal().any()):
        for bad in (~np.isfinite(d), d < 0):
            if bad.any():  # a non-finite, then a negative entry
                i, j = (int(v) for v in np.argwhere(bad)[0])
                raise NegativeDistance(i, j, float(d[i, j]))
        i = int(np.flatnonzero(d.diagonal())[0])  # then a nonzero diagonal entry
        raise NonzeroSelfDistance(i, float(d[i, i]))
    if not np.array_equal(d, d.T):
        i, j = np.argwhere(d != d.T)[0]
        raise AsymmetricDistance(int(i), int(j), float(d[i, j]), float(d[j, i]))
    if np.count_nonzero(d == 0) > n:  # zeros off the all-zero diagonal
        i, j = np.argwhere((d == 0) & ~np.eye(n, dtype=bool))[0]
        raise ZeroDistanceDistinctPoints(int(i), int(j))

    top = float(d.max())
    if 2 * top == np.inf:  # checked before any distances are summed
        raise MalformedInput("metric.d", f"{top!r} is too large: sums overflow")
    tol = REL_TOL * top
    zero = d.diagonal().copy()  # 0.0 or -0.0, restored bitwise
    np.fill_diagonal(d, np.inf)  # so z = x and z = y never win a detour's minimum
    vertex = np.zeros((n, n), dtype=bool)
    for r0, r1 in row_blocks(n):  # x in r0:r1, y >= r0: d and its detours are symmetric
        blocks = list(row_blocks(n, (r1 - r0) * (n - r0)))
        through = np.full((r1 - r0, n - r0), np.inf)
        buf = np.empty((blocks[0][1], r1 - r0, n - r0))  # the first block is the largest
        for z0, z1 in blocks:  # the least d(x, z) + d(z, y), exact in any blocking
            sums = np.add(d.T[z0:z1, r0:r1, None], d[z0:z1, None, r0:], out=buf[:z1 - z0])
            np.minimum(through, sums.min(axis=0), out=through)
        np.fill_diagonal(d[r0:r1, r0:r1], zero[r0:r1])  # no later row block reads these
        if np.any(d[r0:r1, r0:] - through > tol):
            np.fill_diagonal(d, zero)
            for j in range(n):  # the first third point j to break a pair, then that pair
                bad = np.argwhere(d - (d[:, j, None] + d[j]) > tol)
                if bad.size:
                    i, k = (int(v) for v in bad[0])
                    raise TriangleViolation(i, j, k, float(d[i, k]), float(d[i, j]),
                                            float(d[j, k]), tol)
        vertex[r0:r1, r0:] = through > d[r0:r1, r0:] + tol

    labels = tuple(f"p{i}" for i in range(n)) if labels is None else tuple(labels)
    space = PointedMetricSpace(labels, base, d, dict(meta or {}))
    object.__setattr__(space, "_vertex_mask", vertex)
    return space


def shortest_path_closure(d: np.ndarray) -> np.ndarray:
    """One Floyd-Warshall pass over a copy of d (zero diagonal, inf for no edge),
    in place by :func:`row_blocks`, as row and column k stay put at step k: the
    textbook pass, bitwise; :func:`from_weighted_graph` bounds its rounding."""
    d = np.array(d, dtype=float)
    blocks = [d[r0:r1] for r0, r1 in row_blocks(len(d), len(d))]  # views of d
    buf = np.empty_like(blocks[0])  # the first block is the largest
    for k in range(len(d)):
        for rows in blocks:
            np.minimum(rows, np.add(rows[:, k, None], d[k], out=buf[:len(rows)]), out=rows)
    return d


def row_blocks(n: int, sums: int | None = None) -> Iterator[tuple[int, int]]:
    """Ranges [r0, r1) of n rows of ``sums`` entries each (default n * n, a
    detour row; at least 1) that fit in ``BLOCK`` entries, or single rows."""
    rows = max(1, BLOCK // max(1, n * n if sums is None else sums))
    return ((r0, min(n, r0 + rows)) for r0 in range(0, n, rows))


def vertex_pairs(space: PointedMetricSpace) -> np.ndarray:
    """The pairs (x, y), x < y, row-major, whose every detour d(x, z) + d(z, y)
    exceeds d(x, y) + ``space.tol`` (:func:`intermediate_points`' test): over
    the edges a space records (any other pair has a point of a shortest path
    between its ends, whose detour rounds far within the tolerance), else from
    the mask :func:`validate_space` kept, else from the mask of its pass."""
    d, edges, mask = space.dist, space.edges, space._vertex_mask
    if edges is not None:
        found = []
        for p0, p1 in row_blocks(len(edges), space.n):
            (xs, ys), k = edges[p0:p1].T, np.arange(p1 - p0)
            through = d[xs] + d[ys]  # d(z, y) read as d(y, z): d is symmetric
            through[k, xs] = through[k, ys] = np.inf  # z outside {x, y}
            found.append(edges[p0:p1][through.min(axis=1) > d[xs, ys] + space.tol])
        return np.concatenate(found)
    if mask is None:  # the mask of validation's pass, which checks the constructor's proof
        mask = validate_space(d, space.base)._vertex_mask
    return np.argwhere(np.triu(mask, k=1))


def from_weighted_graph(
    n: int,
    edges: Sequence[tuple[int, int, float]],
    base: int = 0,
    labels: Sequence[str] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> PointedMetricSpace:
    """Shortest-path metric of a connected positively weighted graph, whose
    closure by :func:`shortest_path_closure` proves the axioms instead of
    :func:`validate_space`. It is positive off a zero diagonal; finite unless
    the graph is disconnected or a sum the pass forms overflows (malformed
    input at ``metric.edges``); exactly symmetric, as each edge is stored both
    ways and each relaxation adds the same two numbers at (i, j) and (j, i);
    and each triangle defect d[i, j] - fl(d[i, k] + d[k, j]) is at most
    gamma(2n + 1) * max(d), gamma(m) = m u / (1 - m u) < REL_TOL while n <
    4.5e6, u = 2**-53 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 4.2). It records the graph's edges, without loops or
    repeats. An endpoint outside 0..n-1 is malformed at ``metric.edges``, n < 2
    at ``metric.n``."""
    if n < 2:
        raise MalformedInput("metric.n", f"expected at least two points, got {n}")
    if not (0 <= base < n):
        raise BadBaseIndex(base, n)
    if labels is not None and len(labels) != n:  # checked before the O(n**3) closure
        raise MalformedInput("labels", f"expected {n} labels, got {len(labels)}")
    if len(edges) < n - 1:  # checked before any n x n array is built
        raise DisconnectedGraph(f"{len(edges)} edges cannot connect {n} points")
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInput("metric.edges",
                                 f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
        w = float(w)
        if not (0 <= w < np.inf):
            raise NegativeDistance(int(i), int(j), w)
        if w == 0 and i != j:
            raise ZeroDistanceDistinctPoints(int(i), int(j))
        if w < d[i, j]:  # never on the diagonal, whose 0 no weight undercuts
            d[i, j] = d[j, i] = w
    graph = np.argwhere(np.triu(np.isfinite(d), k=1))
    try:
        with np.errstate(over="raise"):
            d = shortest_path_closure(d)
    except FloatingPointError:
        raise MalformedInput("metric.edges", "a path length overflows") from None
    if np.any(np.isinf(d)):
        unreachable = sorted(int(i) for i in np.argwhere(np.isinf(d[0]))[:, 0])
        raise DisconnectedGraph(f"unreachable from node 0: {unreachable}")
    labels = tuple(f"p{i}" for i in range(n)) if labels is None else tuple(labels)
    return PointedMetricSpace(labels, base, d, dict(meta or {}), graph)


def gaps(u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """The matrix of |u_i - v_j| (v defaults to u; u[r0:r1] gives a row block), in place."""
    g = np.subtract.outer(u, u if v is None else v)
    return np.abs(g, out=g)


def line_net(coords: Sequence[float], base: int = 0) -> PointedMetricSpace:
    """Line metric |c_i - c_j| over explicit coordinates, checked in sorted
    order; :func:`validate_space` names the witness of refused ones."""
    c = np.asarray(coords, dtype=float)
    o = np.argsort(c, kind="stable")  # the path through the points in coordinate order
    labels = [repr(v) for v in c.tolist()]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a nan entry, refused
        d = gaps(c)
        if not (c.ndim == 1 and 0 <= base < c.size > 1 and np.isfinite(2 * np.ptp(c))
                and np.all(np.diff(c[o]) > 0)):
            validate_space(d, base, labels)
    path = np.sort(np.column_stack([o[:-1], o[1:]]), axis=1)
    meta = {"family": "line", "coords": tuple(c.tolist())}
    return PointedMetricSpace(tuple(labels), base, d, meta, path[np.lexsort(path.T[::-1])])


def interval_net(n: int) -> PointedMetricSpace:
    """Uniform net {k/n : 0 <= k <= n} on [0, 1] with the line metric, based at
    0; ``meta`` records the mesh 1/n and the coordinates, which the
    interval-specific operations consume."""
    if n < 1:
        raise ValueError("interval_net requires n >= 1")
    coords = np.arange(n + 1) / n  # bitwise k / n while n < 2**53
    meta = {"family": "interval", "n": n, "mesh": 1.0 / n, "coords": tuple(coords)}
    labels = tuple(repr(c) for c in coords.tolist())
    edges = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return PointedMetricSpace(labels, 0, gaps(coords), meta, edges)


def circle_net(n: int) -> PointedMetricSpace:
    """n equally spaced points on the unit circle, k steps apart at chordal
    distance 2*sin(pi*k/n)."""
    if n < 3:
        raise ValueError("circle_net requires n >= 3")
    steps = gaps(np.arange(n))
    steps = np.minimum(steps, n - steps)
    d = 2.0 * np.sin(np.pi * steps / n)  # sin(0) is exactly 0 on the diagonal
    d = np.minimum(d, d.T)  # sin() rounding can differ across the two orders
    meta = {"family": "circle", "n": n}
    labels = tuple(f"c{k}" for k in range(n))
    return PointedMetricSpace(labels, 0, d, meta)


def snowflake(space: PointedMetricSpace, theta: float) -> PointedMetricSpace:
    """Apply d -> d**theta for 0 < theta < 1.

    Concavity of t**theta makes the result a metric again; the base point
    and labels are preserved.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"snowflake exponent must lie in (0,1), got {theta}")
    d = np.power(space.dist, theta)  # 0**theta is exactly 0
    meta = {"family": "snowflake", "theta": theta, "parent": space.meta.get("family")}
    return PointedMetricSpace(space.labels, space.base, d, meta)


def point_indices(space: PointedMetricSpace, points) -> np.ndarray:
    """``points`` as ``intp``, or ValueError at a float that is not whole (such as 1.5
    or nan), then at one outside 0..n-1, both compared before the cast."""
    idx = np.asarray(points)
    if idx.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # nan and inf leave nan
            fractional = idx[~(idx % 1 == 0)]
        if fractional.size:
            raise ValueError(f"point {fractional[0]} is not an integer")
    outside = idx[(idx < 0) | (idx >= space.n)]
    if outside.size:
        raise ValueError(f"point {int(outside[0])} is outside 0..{space.n - 1}")
    return idx.astype(np.intp, copy=False)


def intermediate_points(space: PointedMetricSpace, pair: PointPair) -> list[int]:
    """Points z lying metrically between x and y.

    Returns every z outside {x, y} with d(x,z) + d(z,y) <= d(x,y) + space.tol.
    The triangle inequality forces >=, so these are the equality cases up to the
    space's metric tolerance; an empty result means the pair realizes a strict
    triangle inequality against every third point.
    """
    x, y = point_indices(space, pair.as_tuple())
    dxy = space.dist[x, y]
    through = space.dist[x, :] + space.dist[:, y]
    hits = np.argwhere(through <= dxy + space.tol)[:, 0]
    return [int(z) for z in hits if z != x and z != y]
