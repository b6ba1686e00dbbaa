"""Finite pointed metric spaces: validation, constructors, betweenness.

A space is a finite set of points with a distinguished base point (index
0 for every generated family) and a validated distance matrix. All
downstream modules treat spaces as immutable; the distance matrix is
frozen after construction.

Every module follows one tolerance policy, kept here: a distance is
compared within ``space.tol`` (``REL_TOL`` times the largest distance)
or a caller's absolute ``tol``, and a dimensionless quantity (a map norm
or Lipschitz constant against 1, a face pairing, an LP in normalised
units) within ``REL_TOL``, so certificates ignore the unit of distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AsymmetricDistance,
    BadBaseIndex,
    DisconnectedGraph,
    MalformedInput,
    NegativeDistance,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)

REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PointedMetricSpace:
    """A finite metric space with a distinguished base point.

    Instances should be built through :func:`validate_space` or one of
    the named constructors, which enforce the metric axioms.
    """

    labels: tuple[str, ...]
    base: int
    dist: np.ndarray
    meta: Mapping[str, Any] = field(default_factory=dict)
    diameter: float = field(init=False, repr=False)
    tol: float = field(init=False, repr=False)  # metric comparison tolerance

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "diameter", float(d.max()))
        object.__setattr__(self, "tol", REL_TOL * self.diameter)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

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
    """An ordered pair of distinct point indices."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError(f"pair points must be distinct, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def validate_space(
    dist: Sequence[Sequence[float]] | np.ndarray,
    base: int = 0,
    labels: Sequence[str] | None = None,
    meta: Mapping[str, Any] | None = None,
    tol: float | None = None,
) -> PointedMetricSpace:
    """Check the metric axioms and wrap the matrix in a space.

    The triangle inequality is checked with tolerance ``REL_TOL * max(d)``,
    or with an explicit absolute ``tol`` when given. Violations are
    reported with a witnessing index triple; nothing is ever repaired.
    A matrix that is not square or has fewer than two points, or a label
    list of the wrong length, is malformed input, reported at its path in
    a space file (``metric.d`` or ``labels``).
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MalformedInput("metric.d", f"expected a square matrix, got shape {d.shape}")
    n = d.shape[0]
    if labels is not None and len(labels) != n:
        raise MalformedInput("labels", f"expected {n} labels, got {len(labels)}")
    if n < 2:
        raise MalformedInput("metric.d", f"expected at least two points, got {n}")
    if not (0 <= base < n):
        raise BadBaseIndex(base, n)
    if not np.all(np.isfinite(d)):
        i, j = np.argwhere(~np.isfinite(d))[0]
        raise NegativeDistance(int(i), int(j), float(d[i, j]))
    if np.any(d < 0):
        i, j = np.argwhere(d < 0)[0]
        raise NegativeDistance(int(i), int(j), float(d[i, j]))
    if np.any(np.diag(d) != 0):
        i = int(np.argwhere(np.diag(d) != 0)[0][0])
        raise NegativeDistance(i, i, float(d[i, i]))
    asym = np.argwhere(d != d.T)
    if asym.size:
        i, j = asym[0]
        raise AsymmetricDistance(int(i), int(j), float(d[i, j]), float(d[j, i]))
    off = ~np.eye(n, dtype=bool)
    if np.any(d[off] == 0):
        i, j = [int(v) for v in np.argwhere((d == 0) & off)[0]]
        raise ZeroDistanceDistinctPoints(i, j)

    if tol is None:
        tol = REL_TOL * float(d.max())
    # d[i,k] <= d[i,j] + d[j,k] for every j; vectorized over (i, k)
    for j in range(n):
        slack = d - (d[:, j][:, None] + d[j, :][None, :])
        bad = np.argwhere(slack > tol)
        if bad.size:
            i, k = [int(v) for v in bad[0]]
            raise TriangleViolation(i, j, k, float(d[i, k]), float(d[i, j]), float(d[j, k]),
                                    tol)

    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    return PointedMetricSpace(tuple(labels), base, d, dict(meta or {}))


def shortest_path_closure(d: np.ndarray) -> np.ndarray:
    """Relax d through every intermediate point (Floyd-Warshall) until a
    floating-point fixpoint, so the result satisfies the triangle
    inequality with zero tolerance. Infinite entries mark missing edges."""
    changed = True
    while changed:
        changed = False
        for k in range(d.shape[0]):
            relaxed = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
            if np.any(relaxed < d):
                d = relaxed
                changed = True
    return d


def from_weighted_graph(
    n: int,
    edges: Sequence[tuple[int, int, float]],
    base: int = 0,
    labels: Sequence[str] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> PointedMetricSpace:
    """Shortest-path metric of a connected positively weighted graph.

    The closure is :func:`shortest_path_closure`, so the returned matrix
    satisfies the triangle inequality with zero tolerance. An edge with
    an endpoint outside 0..n-1 is malformed input at ``metric.edges``,
    and n below 2 at ``metric.n``.
    """
    if n < 2:
        raise MalformedInput("metric.n", f"expected at least two points, got {n}")
    if not (0 <= base < n):
        raise BadBaseIndex(base, n)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInput("metric.edges",
                                 f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
        w = float(w)
        if not (w > 0) or not math.isfinite(w):
            raise NegativeDistance(int(i), int(j), w)
        if i == j:
            continue
        if w < d[i, j]:
            d[i, j] = d[j, i] = w
    d = shortest_path_closure(d)
    if np.any(np.isinf(d)):
        unreachable = sorted(int(i) for i in np.argwhere(np.isinf(d[0]))[:, 0])
        raise DisconnectedGraph(unreachable)
    d = np.minimum(d, d.T)  # guard symmetry against asymmetric duplicate edges
    return validate_space(d, base=base, labels=labels, meta=meta)


def interval_net(n: int) -> PointedMetricSpace:
    """Uniform net {k/n : 0 <= k <= n} on [0, 1] with the line metric.

    The base point is 0 and the mesh 1/n is recorded in ``meta`` together
    with the coordinates, which the interval-specific operations consume.
    """
    if n < 1:
        raise ValueError("interval_net requires n >= 1")
    coords = np.array([k / n for k in range(n + 1)])
    d = np.abs(coords[:, None] - coords[None, :])
    meta = {"family": "interval", "n": n, "mesh": 1.0 / n, "coords": tuple(coords)}
    labels = tuple(repr(c) for c in coords.tolist())
    return PointedMetricSpace(labels, 0, d, meta)


def circle_net(n: int) -> PointedMetricSpace:
    """n equally spaced points on the unit circle with chordal distances.

    Points k steps apart sit at distance 2*sin(pi*k/n).
    """
    if n < 3:
        raise ValueError("circle_net requires n >= 3")
    idx = np.arange(n)
    steps = np.abs(idx[:, None] - idx[None, :])
    steps = np.minimum(steps, n - steps)
    d = 2.0 * np.sin(np.pi * steps / n)
    np.fill_diagonal(d, 0.0)
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
    d = np.power(space.dist, theta)
    np.fill_diagonal(d, 0.0)
    meta = {"family": "snowflake", "theta": theta, "parent": space.meta.get("family")}
    return PointedMetricSpace(space.labels, space.base, d, meta)


def intermediate_points(space: PointedMetricSpace, pair: PointPair) -> list[int]:
    """Points z lying metrically between x and y.

    Returns every z outside {x, y} with
    d(x,z) + d(z,y) <= d(x,y) + space.tol. The triangle inequality
    forces >=, so these are the equality cases up to the space's metric
    tolerance; an empty result means the pair realizes a strict triangle
    inequality against every third point.
    """
    x, y = pair.x, pair.y
    dxy = space.dist[x, y]
    through = space.dist[x, :] + space.dist[:, y]
    hits = np.argwhere(through <= dxy + space.tol)[:, 0]
    return [int(z) for z in hits if z != x and z != y]
