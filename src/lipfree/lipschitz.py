"""Real Lipschitz functions on finite pointed metric spaces.

Functions are dense value vectors over a space's points. Elements of
the vanishing-at-base function space are normalized on construction by
subtracting the base value; raw (non-vanishing) functions are also
supported because inverse projections take values in [0, L] rather
than vanishing at the base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AnchorNotOnNet,
    FloorExceedsFunction,
    FloorNormTooLarge,
    NotAnIntervalNet,
)
from .metric_core import REL_TOL, PointedMetricSpace, gaps, point_indices, row_blocks


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
            raise ValueError(f"expected {self.space.n} values, got {v.shape}")
        if self.normalize and v[self.space.base] != 0.0:
            with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused
                v = v - v[self.space.base]
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite, also less the base value")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

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


def quotients(num: np.ndarray, den: np.ndarray, r0: int = 0, diagonal: float = -1.0
              ) -> np.ndarray:
    """num / den, divided in place into ``num``, with ``diagonal`` at each (k, r0 + k), the
    diagonal (0/0) of the square whose rows r0.. these are, so maxima (minima, at inf) skip it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num, den, out=num)
    np.fill_diagonal(num[:, r0:], diagonal)
    return num


def _largest_quotient(n: int, rows: Callable) -> tuple[float, tuple[int, int]]:
    """The largest off-diagonal num / den over n points and its first row-major pair (x < y
    if symmetric); ``rows(r0, r1)`` gives rows r0:r1 of num and den, by :func:`row_blocks`.
    A num or quotient past the float range reads as inf."""
    value, at = -np.inf, 0
    for r0, r1 in row_blocks(n, n):
        with np.errstate(over="ignore"):
            q = quotients(*rows(r0, r1), r0)
        k = int(np.argmax(q))
        if q.flat[k] > value:
            value, at = float(q.flat[k]), r0 * n + k
    return value, divmod(at, n)


def lipschitz_norm(f: LipschitzFunction) -> LipNorm:
    """Best Lipschitz constant with one attaining pair.

    The value is the maximum of |f(x)-f(y)| / d(x,y) over pairs of
    distinct points; it is 0 for constant functions. Ties between
    witnesses are broken toward the lexicographically smallest ordered
    pair ((0, 1) for a constant), which is an arbitrary but documented choice.
    """
    v, d = f.values, f.space.dist
    return LipNorm(*_largest_quotient(v.size, lambda r0, r1: (gaps(v[r0:r1], v), d[r0:r1])))


def local_slopes(f: LipschitzFunction, r: float) -> np.ndarray:
    """Every point's largest difference quotient against the other points
    within r + ``space.tol`` of it (0 where there are none): the row maxima,
    from 0, of :func:`quotients` masked to those, in :func:`row_blocks`."""
    if r <= 0:
        raise ValueError("scale r must be positive")
    v, d, slopes = f.values, f.space.dist, np.empty(f.space.n)
    for r0, r1 in row_blocks(v.size, v.size):
        q = quotients(gaps(v[r0:r1], v), d[r0:r1], r0)
        np.max(q, axis=1, where=d[r0:r1] <= r + f.space.tol, initial=0.0, out=slopes[r0:r1])
    return slopes


def pointwise_lip_at_scale(f: LipschitzFunction, x: int, r: float) -> float:
    """Row x of :func:`local_slopes`: the largest difference quotient
    against points within distance r of x, 0 for an isolated point."""
    return float(local_slopes(f, r)[point_indices(f.space, x)])


def sub_lipschitz_norm(space: PointedMetricSpace, subset: Sequence[int],
                       values: Sequence[float]) -> float:
    """Lipschitz norm of values over the sub-metric induced on subset."""
    idx = point_indices(space, subset)
    v = np.asarray(values, dtype=float)
    if idx.size < 2:
        return 0.0
    return _largest_quotient(idx.size, lambda r0, r1: (
        gaps(v[r0:r1], v), space.dist[idx[r0:r1, None], idx]))[0]


def inf_extension(space: PointedMetricSpace, subset: Sequence[int],
                  values: Sequence[float], constant: float) -> np.ndarray:
    """Largest extension with the given constant: min over the subset of
    value + constant * distance. Subset points are restored exactly by
    assignment, so the restriction is bitwise equal to the input; subset
    points are read in :func:`row_blocks`."""
    idx = point_indices(space, subset)
    v = np.asarray(values, dtype=float)
    ext = np.full(space.n, np.inf)
    for k0, k1 in row_blocks(idx.size, space.n):
        np.minimum(ext, (v[k0:k1, None] + constant * space.dist[idx[k0:k1]]).min(axis=0), out=ext)
    ext[idx] = v
    return ext


def mcshane_extend(
    space: PointedMetricSpace,
    subset: Sequence[int],
    f_sub: Sequence[float],
    floor: LipschitzFunction | None = None,
) -> LipschitzFunction:
    """Norm-preserving extension from a subset, optionally above a floor.

    The extension is the inf-convolution F(z) = min over subset x of
    f(x) + L d(x, z) with L the Lipschitz norm of f on the sub-metric.
    F restricts to f exactly and has norm L. When a floor g with
    ||g|| <= L and g <= f on the subset is supplied, F >= g holds
    automatically; both preconditions are checked, norms within REL_TOL
    relative and values within L * space.tol (the base value of f within
    space.tol), and violations are reported. An L, or an F whose values or
    differences pass the float range, is a ValueError.
    """
    idx = point_indices(space, subset).tolist()
    if space.base not in idx:
        raise ValueError("subset must contain the base point")
    v = np.asarray(f_sub, dtype=float).copy()
    if v.shape != (len(idx),):
        raise ValueError("f_sub must align with subset")
    vb = v[idx.index(space.base)]
    if abs(vb) > space.tol:
        raise ValueError(f"f_sub must vanish at the base point, got {vb!r}")
    v -= vb

    L = sub_lipschitz_norm(space, idx, v)
    if L == np.inf:
        raise ValueError("too large: the Lipschitz constant on the subset overflows")

    if floor is not None:
        g_norm = lipschitz_norm(floor).value
        if g_norm > L * (1.0 + REL_TOL):
            raise FloorNormTooLarge(g_norm, L)
        gap = floor.values[idx] - v
        worst = int(np.argmax(gap))
        if gap[worst] > L * space.tol:  # a value of an L-Lipschitz function
            raise FloorExceedsFunction(idx[worst], float(floor.values[idx][worst]),
                                       float(v[worst]))

    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the float range
        ext = inf_extension(space, idx, v, L)
        spread = np.ptp(ext)  # finite when every value and difference is
    if not np.isfinite(spread):
        raise ValueError(f"too large: the extension with constant {L!r} overflows")
    return LipschitzFunction(space, ext, normalize=False)


def interval_coordinates(space: PointedMetricSpace) -> np.ndarray:
    """The coordinates :func:`interval_net` records in ``meta``, or raise NotAnIntervalNet."""
    if space.meta.get("family") != "interval":
        raise NotAnIntervalNet()
    return np.asarray(space.meta["coords"], dtype=float)


def peak_function(net: PointedMetricSpace, x: float) -> LipschitzFunction:
    """Unit-slope bump anchored at x, a coordinate the net records, bitwise.

    Values are the closed form of the antiderivative of 1 - |x - s|
    between x and each net point: sign(t-x) * (|t-x| - |t-x|^2 / 2),
    shifted to vanish at the base. The antiderivative is exact because
    the integrand is piecewise linear. On a mesh-h net the Lipschitz
    norm is 1 - h/2, attained inside the two cells adjacent to x.
    """
    coords = interval_coordinates(net)
    if x not in coords:
        raise AnchorNotOnNet(x)
    u = np.abs(coords - x)
    g = np.sign(coords - x) * (u - u * u / 2.0)
    return LipschitzFunction(net, g, normalize=True)
