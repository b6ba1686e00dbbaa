"""Named fixtures and seeded random generators.

The builtin map family (identity, fold, halving, collapse) covers the
calibration cases for the interval experiments: identity and fold act
isometrically at every mesh, halving has operator norm exactly one half,
and collapse sends everything to the base point. The fold map runs over
a length-two line net folded onto [0, 1], so its slope is one in
magnitude everywhere.

Random generators are all driven by an explicit numpy Generator, so
every randomized suite is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .composition import LipschitzMap, _fibre_rows
from .freespace import FreeVector
from .geodesic import DiscretizedGeodesicSpace
from .lipschitz import LipschitzFunction, inf_extension, sub_lipschitz_norm
from .metric_core import (
    PointedMetricSpace,
    from_weighted_graph,
    interval_net,
    line_net,
    shortest_path_closure,
    snowflake,
    validate_space,
)

BUILTIN_MAPS = ("identity", "fold", "halving", "collapse")


def tripod(leg: float = 1.0, subdivisions: int = 1) -> DiscretizedGeodesicSpace:
    """Three legs glued at a center, with one leaf-to-leaf path stored.

    With k subdivisions each leg is a chain of k edges of length leg/k;
    node 1 + j*k + s sits on leg j at arclength (s+1)*leg/k from the
    center (node 0), so the leaves are the nodes 1 + j*k + (k-1).
    """
    k = int(subdivisions)
    if k < 1:
        raise ValueError("subdivisions must be >= 1")
    w = leg / k
    edges = []
    labels = ["c"]
    for j in range(3):
        chain = [0] + [1 + j * k + s for s in range(k)]
        labels += [f"l{j + 1}.{s + 1}" for s in range(k)]
        edges += [(chain[s], chain[s + 1], w) for s in range(k)]
    space = from_weighted_graph(
        1 + 3 * k, edges, base=0, labels=labels,
        meta={"family": "tripod", "subdivisions": k},
    )
    leaf = lambda j: 1 + j * k + (k - 1)
    path = tuple(reversed([1 + 0 * k + s for s in range(k)])) + (0,) + \
        tuple(1 + 1 * k + s for s in range(k))
    return DiscretizedGeodesicSpace(space, {(leaf(0), leaf(1)): path})


def circle_geodesic(n: int) -> DiscretizedGeodesicSpace:
    """Cycle graph with arclength edges 2*pi/n and a half-circle path.

    This is the intrinsic (geodesic) discretization of the circle; the
    chordal net is not geodesic because chords of concatenated arcs are
    strictly shorter than their sums.
    """
    if n < 4 or n % 2:
        raise ValueError("circle_geodesic requires even n >= 4")
    w = 2.0 * np.pi / n
    edges = [(k, (k + 1) % n, w) for k in range(n)]
    space = from_weighted_graph(n, edges, base=0,
                                labels=tuple(f"a{k}" for k in range(n)),
                                meta={"family": "circle_geodesic", "n": n})
    half = tuple(range(n // 2 + 1))
    return DiscretizedGeodesicSpace(space, {(0, n // 2): half})


def interval_geodesic(n: int) -> DiscretizedGeodesicSpace:
    """The interval net with its full run stored as the geodesic."""
    net = interval_net(n)
    return DiscretizedGeodesicSpace(net, {(0, n): tuple(range(n + 1))})


def builtin_map(name: str, n: int) -> LipschitzMap:
    """One of the named calibration maps at codomain mesh 1/n."""
    if name == "identity":
        net = interval_net(n)
        return LipschitzMap(net, net, tuple(range(n + 1)))
    if name == "fold":
        k = np.arange(2 * n + 1)
        domain = line_net(k / n)  # bitwise k / n, as interval_net's coordinates
        return LipschitzMap(domain, interval_net(n), np.minimum(k, 2 * n - k))
    if name == "halving":
        domain = interval_net(n)
        codomain = interval_net(2 * n)
        return LipschitzMap(domain, codomain, tuple(range(n + 1)))
    if name == "collapse":
        net = interval_net(n)
        return LipschitzMap(net, net, (0,) * (n + 1))
    raise ValueError(f"unknown builtin map {name!r}; choose from {BUILTIN_MAPS}")


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def random_space(rng: np.random.Generator, n: int,
                 kind: str | None = None) -> PointedMetricSpace:
    """A random valid space: a Euclidean cloud, a graph metric, or a
    snowflaked cloud."""
    if kind is None:
        kind = ("euclidean", "graph", "snowflake")[int(rng.integers(3))]
    if kind == "euclidean":
        return _euclidean_cloud(rng, n)
    if kind == "graph":
        return _random_graph_space(rng, n)
    if kind == "snowflake":
        theta = float(rng.uniform(0.3, 0.9))
        return snowflake(_euclidean_cloud(rng, n), theta)
    raise ValueError(f"unknown space kind {kind!r}")


def _euclidean_cloud(rng: np.random.Generator, n: int) -> PointedMetricSpace:
    dim = int(rng.integers(2, 4))
    for _ in range(100):
        pts = rng.normal(size=(n, dim))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        off = d[~np.eye(n, dtype=bool)]
        if off.min() > 1e-3 * off.max():
            return validate_space(d, meta={"family": "euclidean"})
    raise RuntimeError("could not sample a well-separated cloud")


def _random_graph_space(rng: np.random.Generator, n: int) -> PointedMetricSpace:
    edges = []
    for v in range(1, n):
        u = int(rng.integers(v))  # random spanning tree
        edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.uniform(0.5, 2.0))))
    return from_weighted_graph(n, edges, meta={"family": "graph"})


def random_zero_sum(rng: np.random.Generator, space: PointedMetricSpace) -> FreeVector:
    """A random zero-sum vector, sometimes sparse."""
    c = rng.normal(size=space.n)
    if rng.random() < 0.4 and space.n > 3:
        kill = rng.choice(space.n, size=int(rng.integers(1, space.n - 2)),
                          replace=False)
        c[kill] = 0.0
    c -= c.sum() / np.count_nonzero(c != 0.0) * (c != 0.0)
    c -= c.sum() * (np.arange(space.n) == int(np.argmax(np.abs(c))))
    return FreeVector(space, c)


def random_lipschitz_function(rng: np.random.Generator,
                              space: PointedMetricSpace) -> LipschitzFunction:
    values = rng.normal(size=space.n) * space.diameter
    return LipschitzFunction(space, values)


def random_one_lipschitz_map(rng: np.random.Generator, domain_n: int,
                             codomain_n: int, kind: str | None = None) -> LipschitzMap:
    """A random base-preserving map with Lipschitz constant at most one.

    Families: identity on a random space, metric inclusion of a random
    subset, quotient by a random fiber map (the codomain carries the
    largest metric making the map norm-one), accepted random tables,
    and collapse to the base.
    """
    if kind is None:
        kind = ("identity", "inclusion", "quotient", "table", "collapse")[
            int(rng.integers(5))]
    if kind == "identity":
        space = random_space(rng, int(rng.integers(2, codomain_n + 1)))
        return LipschitzMap(space, space, tuple(range(space.n)))
    if kind == "inclusion":
        m = random_space(rng, codomain_n)
        k = int(rng.integers(2, m.n + 1))
        subset = [m.base] + [int(v) for v in rng.choice(
            [i for i in range(m.n) if i != m.base], size=k - 1, replace=False)]
        sub = validate_space(m.dist[np.ix_(subset, subset)],
                             meta={"family": "submetric"})
        return LipschitzMap(sub, m, tuple(subset))
    if kind == "quotient":
        return _random_quotient_map(rng, domain_n, codomain_n)
    if kind == "table":
        return _random_table_map(rng, domain_n, codomain_n)
    if kind == "collapse":
        n_space = random_space(rng, domain_n)
        m_space = random_space(rng, codomain_n)
        return LipschitzMap(n_space, m_space, (m_space.base,) * n_space.n)
    raise ValueError(f"unknown map kind {kind!r}")


def _random_quotient_map(rng: np.random.Generator, domain_n: int,
                         codomain_n: int) -> LipschitzMap:
    for _ in range(60):
        n_space = random_space(rng, domain_n)
        m = int(rng.integers(2, min(codomain_n, domain_n) + 1))
        img = rng.integers(m, size=domain_n)
        img[n_space.base] = 0
        # pin values 1..m-1 to distinct non-base slots so the map is onto
        others = [i for i in range(domain_n) if i != n_space.base]
        pinned = rng.choice(len(others), size=m - 1, replace=False)
        for val, pos in enumerate(np.sort(pinned), start=1):
            img[others[int(pos)]] = val
        # the largest metric below the least domain distance between fibres
        d_min = shortest_path_closure(np.concatenate(
            [c for _, c in _fibre_rows(img, n_space.dist, m)]))
        off = d_min[~np.eye(m, dtype=bool)]
        if off.min() > 1e-6 * max(off.max(), 1.0):
            m_space = validate_space(d_min, meta={"family": "quotient"})
            return LipschitzMap(n_space, m_space, tuple(int(v) for v in img))
    raise RuntimeError("could not sample a quotient map with separated classes")


def _random_table_map(rng: np.random.Generator, domain_n: int,
                      codomain_n: int) -> LipschitzMap:
    n_space = random_space(rng, domain_n)
    m_space = random_space(rng, codomain_n)
    # every draw's quotients at once, 0/1 on the diagonal: the map norm
    # is at most one exactly when their largest is
    den = n_space.dist + np.eye(domain_n)
    for _ in range(60):
        img = rng.integers(codomain_n, size=domain_n)
        img[n_space.base] = m_space.base
        if (m_space.dist[img[:, None], img] / den).max() <= 1.0:
            return LipschitzMap(n_space, m_space, tuple(int(v) for v in img))
    return LipschitzMap(n_space, m_space, (m_space.base,) * domain_n)


def random_extension_instance(rng: np.random.Generator, n: int):
    """(space, subset, f_sub, floor-or-None) with valid preconditions.

    Floors are lower inf-convolution envelopes from a random sub-subset,
    so they sit below the function on the subset with no larger norm.
    """
    space = random_space(rng, n)
    k = int(rng.integers(2, n + 1))
    others = [i for i in range(n) if i != space.base]
    subset = sorted([space.base] + [int(v) for v in rng.choice(
        others, size=k - 1, replace=False)])
    f_sub = rng.normal(size=k) * space.diameter
    f_sub -= f_sub[subset.index(space.base)]
    floor = None
    if rng.random() < 0.67:
        const = sub_lipschitz_norm(space, subset, f_sub)
        j = int(rng.integers(1, k + 1))
        pool = [i for i in subset if i != space.base]
        chosen = sorted({space.base} | {int(v) for v in rng.choice(
            pool, size=min(j, len(pool)), replace=False)}) if pool else [space.base]
        sub_vals = np.array([f_sub[subset.index(i)] for i in chosen])
        # lower envelope: the negated largest extension of the negation
        lower = -inf_extension(space, chosen, -sub_vals, const)
        floor = LipschitzFunction(space, lower, normalize=False)
    return space, subset, f_sub, floor
