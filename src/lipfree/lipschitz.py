"""Real Lipschitz functions on finite pointed metric spaces.

Functions are dense value vectors over a space's points. Elements of
the vanishing-at-base function space are normalized on construction by
subtracting the base value; raw (non-vanishing) functions are also
supported because inverse projections take values in [0, L] rather
than vanishing at the base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    AnchorNotOnNet,
    FloorExceedsFunction,
    FloorNormTooLarge,
    NotAnIntervalNet,
)
from .metric_core import REL_TOL, PointedMetricSpace


@dataclass(frozen=True, eq=False)
class LipschitzFunction:
    """A real function given by one value per point of a space.

    With ``normalize=True`` (the default) the base value is subtracted so
    the function vanishes at the base point.
    """

    space: PointedMetricSpace
    values: np.ndarray
    normalize: bool = field(default=True, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (self.space.n,):
            raise ValueError(f"expected {self.space.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        if self.normalize and v[self.space.base] != 0.0:
            v = v - v[self.space.base]
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __call__(self, i: int) -> float:
        return float(self.values[i])

    def __add__(self, other: "LipschitzFunction") -> "LipschitzFunction":
        if other.space is not self.space:
            raise ValueError("functions live on different spaces")
        return LipschitzFunction(self.space, self.values + other.values, normalize=False)

    def __sub__(self, other: "LipschitzFunction") -> "LipschitzFunction":
        if other.space is not self.space:
            raise ValueError("functions live on different spaces")
        return LipschitzFunction(self.space, self.values - other.values, normalize=False)

    def __mul__(self, a: float) -> "LipschitzFunction":
        return LipschitzFunction(self.space, self.values * float(a), normalize=False)

    __rmul__ = __mul__


class LipNorm(NamedTuple):
    value: float
    witness: tuple[int, int]


def _largest_quotient(num: np.ndarray, den: np.ndarray) -> tuple[float, int, int]:
    """The largest off-diagonal num / den and the first pair, in row-major
    order, attaining it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = num / den
    q[np.eye(len(q), dtype=bool)] = -1.0
    i, j = divmod(int(np.argmax(q)), len(q))
    return float(q[i, j]), i, j


def lipschitz_norm(f: LipschitzFunction) -> LipNorm:
    """Best Lipschitz constant with one attaining pair.

    The value is the maximum of |f(x)-f(y)| / d(x,y) over pairs of
    distinct points; it is 0 for constant functions. Ties between
    witnesses are broken toward the lexicographically smallest ordered
    pair, which is an arbitrary but documented choice.
    """
    value, i, j = _largest_quotient(np.abs(f.values[:, None] - f.values[None, :]),
                                    f.space.dist)
    return LipNorm(value, (min(i, j), max(i, j)))  # (0, 1) when f is constant


def local_slopes(f: LipschitzFunction, r: float) -> np.ndarray:
    """Every point's largest difference quotient against the other points
    within distance r of it (0 where there are none): the row maxima of
    one quotient matrix |f(x) - f(y)| / d(x, y), masked to those pairs."""
    if r <= 0:
        raise ValueError("scale r must be positive")
    d = f.space.dist
    near = d <= r
    np.fill_diagonal(near, False)  # every other point is at a positive distance
    q = f.values[:, None] - f.values[None, :]
    np.abs(q, out=q)
    np.divide(q, d, out=q, where=near)
    return np.max(q, axis=1, where=near, initial=0.0)


def pointwise_lip_at_scale(f: LipschitzFunction, x: int, r: float) -> float:
    """Row x of :func:`local_slopes`: the largest difference quotient
    against points within distance r of x, 0 for an isolated point."""
    return float(local_slopes(f, r)[x])


def sub_lipschitz_norm(space: PointedMetricSpace, subset: Sequence[int],
                       values: Sequence[float]) -> float:
    """Lipschitz norm of values over the sub-metric induced on subset."""
    idx = np.asarray(subset, dtype=int)
    v = np.asarray(values, dtype=float)
    if idx.size < 2:
        return 0.0
    return _largest_quotient(np.abs(v[:, None] - v[None, :]),
                             space.dist[np.ix_(idx, idx)])[0]


def inf_extension(space: PointedMetricSpace, subset: Sequence[int],
                  values: Sequence[float], constant: float) -> np.ndarray:
    """Largest extension with the given constant: min over the subset of
    value + constant * distance. Subset points are restored exactly by
    assignment, so the restriction is bitwise equal to the input."""
    idx = np.asarray(subset, dtype=int)
    v = np.asarray(values, dtype=float)
    ext = np.min(v[:, None] + constant * space.dist[idx, :], axis=0)
    ext[idx] = v
    return ext


def mcshane_extend(
    space: PointedMetricSpace,
    subset: Sequence[int],
    f_sub: Sequence[float],
    floor: LipschitzFunction | None = None,
    tol: float | None = None,
) -> LipschitzFunction:
    """Norm-preserving extension from a subset, optionally above a floor.

    The extension is the inf-convolution F(z) = min over subset x of
    f(x) + L d(x, z) with L the Lipschitz norm of f on the sub-metric.
    F restricts to f exactly and has norm L. When a floor g with
    ||g|| <= L and g <= f on the subset is supplied, F >= g holds
    automatically; both preconditions are checked, norms within REL_TOL
    relative and values within L * tol, and violations are reported.
    """
    if tol is None:
        tol = space.tol
    idx = [int(i) for i in subset]
    if space.base not in idx:
        raise ValueError("subset must contain the base point")
    v = np.asarray(f_sub, dtype=float).copy()
    if v.shape != (len(idx),):
        raise ValueError("f_sub must align with subset")
    vb = v[idx.index(space.base)]
    if abs(vb) > tol:
        raise ValueError(f"f_sub must vanish at the base point, got {vb!r}")
    v -= vb

    L = sub_lipschitz_norm(space, idx, v)

    if floor is not None:
        g_norm = lipschitz_norm(floor).value
        if g_norm > L * (1.0 + REL_TOL):
            raise FloorNormTooLarge(g_norm, L)
        gap = floor.values[idx] - v
        worst = int(np.argmax(gap))
        if gap[worst] > L * tol:  # a value of an L-Lipschitz function
            raise FloorExceedsFunction(idx[worst], float(floor.values[idx][worst]),
                                       float(v[worst]))

    ext = inf_extension(space, idx, v, L)
    return LipschitzFunction(space, ext, normalize=False)


def interval_coordinates(space: PointedMetricSpace) -> np.ndarray:
    """Coordinates of a uniform net on [0, 1], or raise NotAnIntervalNet.

    Spaces built by interval_net carry their coordinates in ``meta``;
    for spaces loaded from files the structure is re-detected from the
    labels and verified against the distance matrix.
    """
    meta = space.meta
    if meta.get("family") == "interval":
        return np.asarray(meta["coords"], dtype=float)
    try:  # a boolean is not a coordinate, although float(True) is 1.0
        coords = np.array([float(None if isinstance(s, bool) else s) for s in space.labels])
    except (TypeError, ValueError):
        raise NotAnIntervalNet("labels do not parse as coordinates") from None
    n = space.n - 1
    if n < 1:
        raise NotAnIntervalNet()
    grid = np.array([k / n for k in range(n + 1)])
    if space.base != 0 or not np.array_equal(np.sort(coords), grid):
        raise NotAnIntervalNet("points are not the uniform net {k/n} with base 0")
    if not np.allclose(space.dist, np.abs(coords[:, None] - coords[None, :]),
                       rtol=0.0, atol=1e-12):
        raise NotAnIntervalNet("distances do not match the line metric")
    return coords


def peak_function(net: PointedMetricSpace, x: float) -> LipschitzFunction:
    """Unit-slope bump anchored at a net point x.

    Values are the closed form of the antiderivative of 1 - |x - s|
    between x and each net point: sign(t-x) * (|t-x| - |t-x|^2 / 2),
    shifted to vanish at the base. The antiderivative is exact because
    the integrand is piecewise linear. On a mesh-h net the Lipschitz
    norm is 1 - h/2, attained inside the two cells adjacent to x.
    """
    coords = interval_coordinates(net)
    hit = np.nonzero(np.abs(coords - x) <= 1e-12)[0]
    if hit.size == 0:
        raise AnchorNotOnNet(x)
    x = float(coords[hit[0]])
    u = np.abs(coords - x)
    g = np.sign(coords - x) * (u - u * u / 2.0)
    return LipschitzFunction(net, g, normalize=True)


def clamp_unit(value: float) -> float:
    """Clamp a real number into [0, 1]; 1-Lipschitz on the reals."""
    return min(max(float(value), 0.0), 1.0)
