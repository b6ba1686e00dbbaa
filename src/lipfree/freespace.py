"""Zero-sum signed measures over a finite space and their transport norm.

The norm of a zero-sum vector is the least cost of moving its positive
part onto its negative part, with the distance as unit cost. Two
independent routes compute it:

* :func:`free_norm_primal` solves the transportation problem directly
  with a spanning-tree network simplex (artificial-root start, Dantzig
  pricing, strongly feasible trees), and returns one optimal plan.
  Because distances satisfy the triangle inequality, shipping along
  direct arcs is optimal, so the bipartite formulation loses nothing.
* :func:`free_norm_dual` reads optimal potentials on the vector's
  support from the row duals of the transportation LP, solved by HiGHS,
  and returns their c-transform as a maximizing 1-Lipschitz function,
  with its pairing against the vector as the value.

Strong duality makes the two values agree; their agreement on random
instances is part of the acceptance suite, so neither route may be
rewritten in terms of the other.

The unit ball of the span of the molecules is the convex hull of the
molecules and their negatives. Its vertices are the molecules with no
third point metrically between their endpoints (Aliaga-Guirao), which
:func:`extreme_molecules` lists as one ``(k, 2)`` array of index pairs
(testing only the edges a space records); the LP vertex test
:func:`is_extreme_molecule`, one face-filtered hull-membership LP in
units of the pair's distance (so its tolerance ``REL_TOL`` is relative),
is its independent oracle. A pair set norms exactly when it lists every
vertex, because a vertex lies in the hull of points of the ball only if
it is one of them, so that question reduces to the array. scipy is
imported only for an LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvariantFailure, NotZeroSum, SpaceMismatch
from .lipschitz import LipschitzFunction, quotients
from .metric_core import (REL_TOL, PointedMetricSpace, PointPair, detour_rows, point_indices,
                          row_blocks)

ZERO_SUM_REL = 1e-12
_LP_OPTIONS = {"primal_feasibility_tolerance": REL_TOL, "dual_feasibility_tolerance": REL_TOL}


@dataclass(frozen=True, eq=False)
class FreeVector:
    """A zero-sum real vector of point masses."""

    space: PointedMetricSpace
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).copy()
        if c.shape != (self.space.n,):
            raise ValueError(f"expected {self.space.n} coefficients, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        total = float(c.sum())
        if abs(total) > ZERO_SUM_REL * max(float(np.abs(c).sum()), 1e-300):
            raise NotZeroSum(total)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_point_masses(cls, space: PointedMetricSpace,
                          masses: dict[int, float]) -> "FreeVector":
        """Span of point evaluations, balanced at the base point.

        Any leftover total mass is placed on the base point, which does
        not change the vector's action on functions vanishing there.
        """
        c = np.zeros(space.n)
        for i, m in zip(point_indices(space, list(masses)), masses.values()):
            c[i] += float(m)
        c[space.base] -= c.sum()
        return cls(space, c)

    def __add__(self, other: "FreeVector") -> "FreeVector":
        self._check_same(other)
        return FreeVector(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        self._check_same(other)
        return FreeVector(self.space, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "FreeVector":
        return FreeVector(self.space, self.coeffs * float(a))

    __rmul__ = __mul__

    def _check_same(self, other: "FreeVector") -> None:
        if other.space is not self.space:
            raise SpaceMismatch()


@dataclass(frozen=True)
class Molecule:
    """The normalized difference of two point evaluations."""

    space: PointedMetricSpace
    pair: PointPair

    def to_free_vector(self) -> FreeVector:
        c = np.zeros(self.space.n)
        scale = 1.0 / self.space.d(self.pair.x, self.pair.y)
        c[self.pair.x] = scale
        c[self.pair.y] = -scale
        return FreeVector(self.space, c)


def molecule(space: PointedMetricSpace, x: int, y: int) -> Molecule:
    return Molecule(space, PointPair(x, y))


def pairing(f: LipschitzFunction, mu: FreeVector) -> float:
    """Duality pairing: the sum of f(x) * mu(x)."""
    if f.space is not mu.space:
        raise SpaceMismatch()
    return float(np.dot(f.values, mu.coeffs))


class FlowResult(NamedTuple):
    value: float
    plan: tuple[tuple[int, int, float], ...]


class DualResult(NamedTuple):
    value: float
    maximizer: LipschitzFunction


# ---------------------------------------------------------------------------
# primal: transportation network simplex
# ---------------------------------------------------------------------------

_SIMPLEX_CAP = 200_000


def _transport(p: np.ndarray, q: np.ndarray, cost: np.ndarray):
    """Optimal transportation plan by a spanning-tree network simplex.

    Nodes are the m sources, the n sinks and an artificial root (node
    m+n). Costs are priced in units of the largest one, so the pivot
    tolerance is relative. The start tree hangs every node from the
    root: source i ships p[i] to it at cost 0 and it ships q[j] to sink
    j at cost 2, dearer than any direct arc, so an optimal plan leaves
    the artificial arcs empty (up to the vector's rounding imbalance)
    and none of them ever enters again. Each non-root node stores its
    parent, depth and children, and the flow, direction and signed cost
    of the arc to its parent: its potential is its parent's plus that
    signed cost.

    Each pivot enters the real arc of most negative reduced cost
    (Dantzig), priced as one matrix. Its cycle is found by walking both
    endpoints up to their common ancestor, and the leaving arc is the
    last blocking arc met when the cycle is walked from that ancestor
    in the entering arc's direction (Cunningham). This keeps every tree
    strongly feasible, so no tree repeats and the loop terminates;
    ``_SIMPLEX_CAP`` only guards that invariant. Only the subtree cut
    off by the leaving arc changes depth and potential: it is re-hung
    from the entering arc and its potentials are recomputed from its new
    parent down, which shifts them by the entering arc's reduced cost
    without accumulating rounding across pivots.
    """
    m, n = cost.shape
    root = m + n
    unit = cost / cost.max()
    art, pivot_eps = 2.0, 2e-13
    parent = [root] * root + [-1]
    depth = [1] * root + [0]
    up = [True] * m + [False] * (n + 1)  # the arc to the parent leaves the node
    flow = p.tolist() + q.tolist() + [0.0]
    scost = [0.0] * m + [art] * n + [0.0]
    children = [set() for _ in range(root)] + [set(range(root))]
    pi = np.array(scost)
    for _ in range(_SIMPLEX_CAP):
        reduced = unit + pi[:m, None] - pi[None, m:root]
        k = int(reduced.argmin())
        if reduced.flat[k] >= -pivot_eps:
            break
        i, j = divmod(k, n)
        a, b = i, m + j
        join, w = a, b
        while join != w:
            if depth[join] >= depth[w]:
                join = parent[join]
            else:
                w = parent[w]
        # Flow runs join -> a -> b -> join: arcs pointing up block on
        # a's side, arcs pointing down on b's side.
        delta, out = np.inf, -1
        w = a
        while w != join:
            if up[w] and flow[w] < delta:
                delta, out = flow[w], w
            w = parent[w]
        out_on_a_side = True
        w = b
        while w != join:
            if not up[w] and flow[w] <= delta:
                delta, out, out_on_a_side = flow[w], w, False
            w = parent[w]
        if delta > 0:
            for start, sign in ((a, -1.0), (b, 1.0)):
                w = start
                while w != join:
                    flow[w] += sign * delta if up[w] else -sign * delta
                    w = parent[w]
        # Re-hang the subtree below the leaving arc from the entering
        # arc, reversing the stem from its new root up to the old one.
        w, par = (a, b) if out_on_a_side else (b, a)
        top = w
        arc = (delta, out_on_a_side, -unit[i, j] if out_on_a_side else unit[i, j])
        while True:
            old = parent[w]
            stem = (flow[w], not up[w], -scost[w])
            children[old].discard(w)
            children[par].add(w)
            parent[w] = par
            flow[w], up[w], scost[w] = arc
            if w == out:
                break
            par, w, arc = w, old, stem
        stack = [top]
        while stack:
            w = stack.pop()
            depth[w] = depth[parent[w]] + 1
            pi[w] = pi[parent[w]] + scost[w]
            stack.extend(children[w])
    else:
        raise InvariantFailure("transportation simplex exceeded its pivot cap")
    alloc = {}
    for w in range(root):
        if parent[w] != root:
            src, dst = (w, parent[w]) if up[w] else (parent[w], w)
            alloc[(src, dst - m)] = flow[w]
    value = float(sum(f * cost[i, j] for (i, j), f in alloc.items()))
    return value, alloc


def free_norm_primal(mu: FreeVector) -> FlowResult:
    """Transport norm via min-cost flow from positive to negative part.

    Returns the optimal value and one optimal plan as (source point,
    target point, mass) triples sorted by index.
    """
    c = mu.coeffs
    pos = np.flatnonzero(c > 0)
    neg = np.flatnonzero(c < 0)
    if pos.size == 0 or neg.size == 0:
        return FlowResult(0.0, ())
    p = c[pos].astype(float)
    q = -c[neg].astype(float)
    cost = mu.space.dist[np.ix_(pos, neg)]
    value, alloc = _transport(p, q, cost)
    plan = tuple(
        sorted(
            (int(pos[i]), int(neg[j]), float(a))
            for (i, j), a in alloc.items()
            if a > 0.0
        )
    )
    return FlowResult(value, plan)


# ---------------------------------------------------------------------------
# dual: the transportation LP's row duals and their c-transform
# ---------------------------------------------------------------------------

def free_norm_dual(mu: FreeVector) -> DualResult:
    """Transport norm as the best pairing against a 1-Lipschitz function.

    Potentials a_i on the positive support points x_i (masses p_i) and
    b_j on the negative ones y_j (masses q_j) maximizing
    sum p_i a_i - sum q_j b_j subject to a_i - b_j <= d(x_i, y_j) are the
    row duals of the transportation LP (a row per support point, a
    column per pair), solved by HiGHS without presolve. Their c-transform
    g(x) = min_j (b_j + d(x, y_j)) is 1-Lipschitz with g(x_i) >= a_i and
    g(y_j) <= b_j, so it pairs to at least the optimum, which is
    therefore the norm; g, vanishing at the base point, is returned with
    its pairing as the value. Costs are priced in units of the largest,
    each part's masses in units of its total, so HiGHS's tolerances act
    relatively and the rows agree when rounding leaves the parts unequal.
    """
    space, c = mu.space, mu.coeffs
    pos, neg = np.flatnonzero(c > 0), np.flatnonzero(c < 0)
    if pos.size == 0 or neg.size == 0:
        return DualResult(0.0, LipschitzFunction(space, np.zeros(space.n)))
    from scipy import sparse
    from scipy.optimize import linprog
    cost = space.dist[np.ix_(pos, neg)]
    m, k, unit = pos.size, neg.size, cost.max()
    pairs = np.arange(m * k)  # column i*k + j ships from x_i to y_j
    rows = np.concatenate([pairs // k, m + pairs % k])
    a_eq = sparse.csr_array((np.ones(2 * m * k), (rows, np.tile(pairs, 2))))
    b_eq = np.concatenate([c[pos] / c[pos].sum(), c[neg] / c[neg].sum()])
    res = linprog(cost.ravel() / unit, A_eq=a_eq, b_eq=b_eq, method="highs",
                  options={**_LP_OPTIONS, "presolve": False})
    if res.status != 0:
        raise InvariantFailure(f"transportation LP failed with status {res.status}")
    b = -unit * res.eqlin.marginals[m:]
    g = LipschitzFunction(space, (space.dist[:, neg] + b).min(axis=1))
    return DualResult(pairing(g, mu), g)


def molecule_distance(a: Molecule, b: Molecule) -> float:
    """Transport norm of the difference of two molecules."""
    if a.space is not b.space:
        raise SpaceMismatch()
    return free_norm_primal(a.to_free_vector() - b.to_free_vector()).value


# ---------------------------------------------------------------------------
# vertex oracle and norming sets
# ---------------------------------------------------------------------------

class ExtremeResult(NamedTuple):
    is_extreme: bool
    certificate: tuple[tuple[tuple[int, int], float], ...] | None


def is_extreme_molecule(space: PointedMetricSpace, pair: PointPair) -> ExtremeResult:
    """Vertex test for a molecule on the unit ball polytope.

    The ball is the convex hull of all molecules and their negatives
    (the reversed pairs), so the molecule is a vertex exactly when it is
    not a convex combination of the other molecules (delta_a - delta_b) /
    d(a, b), a != b; the combination, over kept pairs in row-major order,
    is returned as a certificate in the negative case. This is the
    independent oracle for :func:`extreme_molecules`.

    The norm-one function h = (d(., y) - d(., x)) / 2 pairs to exactly 1
    with the target, and a convex combination of points pairing at most
    1 with h pairs to 1 only if every support point does; columns
    pairing below 1 - REL_TOL are dropped first (the threshold only
    absorbs rounding), as is the pair's own column, which preserves the
    decision and keeps the LP small. The kept columns then go to one
    feasibility LP whose rows are the molecules times d_xy, so its
    entries are ratios of distances and HiGHS's tolerance ``REL_TOL`` is
    relative at every unit of distance.
    """
    x, y = point_indices(space, pair.as_tuple())
    d = space.dist
    h = 0.5 * (d[:, y] - d[:, x])
    face = quotients(h[:, None] - h[None, :], d)
    face[x, y] = -1.0  # the molecule itself
    xs, ys = np.nonzero(face >= 1.0 - REL_TOL)
    if xs.size == 0:
        return ExtremeResult(True, None)
    from scipy.optimize import linprog
    scale = d[x, y] / d[xs, ys]
    n = space.n
    cols = np.zeros((n + 1, xs.size))
    ar = np.arange(xs.size)
    cols[xs, ar], cols[ys, ar] = scale, -scale
    cols[n, :] = 1.0
    b = np.zeros(n + 1)
    b[[x, y, n]] = 1.0, -1.0, 1.0
    res = linprog(np.zeros(xs.size), A_eq=cols, b_eq=b,
                  bounds=(0.0, None), method="highs", options=_LP_OPTIONS)
    if res.status == 2:
        return ExtremeResult(True, None)
    if res.status != 0:
        raise InvariantFailure(f"hull LP failed with status {res.status}")
    return ExtremeResult(False, tuple(
        ((int(u), int(v)), float(w)) for u, v, w in zip(xs, ys, res.x) if w > 1e-10
    ))


def _vertices_in(space: PointedMetricSpace, rows: Iterable) -> Iterator[np.ndarray]:
    """Per row range [r0, r1), or per block of the edges a space records,
    its vertices (x, y), x < y, row-major, by the sums of ``detour_rows``."""
    d, edges = space.dist, space.edges
    if edges is None:
        for r0, r1 in rows:
            vertex = detour_rows(d, r0, r1) > d[r0:r1] + space.tol
            yield np.argwhere(np.triu(vertex, k=r0 + 1)) + (r0, 0)
    else:
        for p0, p1 in row_blocks(len(edges), space.n):
            (xs, ys), k = edges[p0:p1].T, np.arange(p1 - p0)
            through = d[xs] + d[ys]  # d(z, y) read as d(y, z): d is symmetric
            through[k, xs] = through[k, ys] = np.inf  # z outside {x, y}
            yield edges[p0:p1][through.min(axis=1) > d[xs, ys] + space.tol]


def extreme_molecules(space: PointedMetricSpace) -> np.ndarray:
    """All pairs whose molecule is a vertex, as one ``(k, 2)`` ``intp``
    array of rows (x, y) with x < y, in row-major order.

    That is, no third point z has d(x,z) + d(z,y) <= d(x,y) + space.tol:
    the test of :func:`metric_core.intermediate_points`, with no n x n
    temporary, on a space's edges if it records them (any other pair has
    a point of a shortest path between its ends, whose detour rounds far
    within ``space.tol``). Never empty: a polytope has vertices and every
    vertex of the ball is itself a molecule or the negative of one.
    """
    found = np.concatenate(list(_vertices_in(space, row_blocks(space.n))))
    if not found.size:
        raise InvariantFailure("polytope reported no vertices")
    return found


def _first_vertex(space: PointedMetricSpace) -> np.ndarray:
    """``extreme_molecules(space)[:1]``, read up to its block of edges or its row."""
    for found in _vertices_in(space, ((x, x + 1) for x in range(space.n))):
        if found.size:
            return found[:1]
    raise InvariantFailure("polytope reported no vertices")


class NormingResult(NamedTuple):
    is_norming: bool
    failing_vertex: PointPair | None


def _norming_failure(space: PointedMetricSpace, pairs: np.ndarray,
                     vertices: np.ndarray) -> PointPair | None:
    """The first vertex whose pair is not listed, in either order, or None.
    The listed +-molecules lie in the ball, and a vertex of the ball lies
    in the hull of points of the ball only if it is one of them."""
    if not point_indices(space, pairs).size:
        raise ValueError("the pair set must be nonempty")
    listed = np.zeros((space.n, space.n), dtype=bool)
    listed[pairs[:, 0], pairs[:, 1]] = listed[pairs[:, 1], pairs[:, 0]] = True
    missing = np.flatnonzero(~listed[vertices[:, 0], vertices[:, 1]])
    return PointPair(*vertices[missing[0]].tolist()) if missing.size else None


def is_norming(space: PointedMetricSpace, pairs: Sequence[PointPair]) -> NormingResult:
    """Does the hull of +-molecules over the given pairs contain every
    vertex of the full unit ball?

    Exactly when every vertex's pair is listed, so no LP is solved; the
    first vertex not listed is reported in the negative case.
    """
    pairs = np.array([p.as_tuple() for p in pairs], dtype=np.intp)
    failing = _norming_failure(space, pairs, extreme_molecules(space))
    return NormingResult(failing is None, failing)
