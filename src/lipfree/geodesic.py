"""Discretized geodesic spaces, inverse projections, and mesh-scale checks.

A discretized geodesic space is a graph-metric space together with
explicitly stored straight paths: point sequences without repeats whose
arclength differences match their pairwise distances in ratio, i.e.
discrete isometric embeddings of an interval. Paths are pinned as data
rather than recomputed so that every experiment is reproducible.

The checks in this module replace asymptotic statements about sequences
with localized maxima at an explicit radius (``r_loc``, ``r``), a
distance, and threshold ``eps`` on a defect or margin, a ratio. By
default (:func:`_scales`) the radius is four times the mesh and ``eps``
four times the mesh over the codomain's diameter, at most 1/2, so
verdicts do not depend on the unit, and on an interval net of mesh 1/8
or finer ``eps`` is four times the mesh: loose enough that the identity
map passes at every mesh and tight enough that a halving map fails. The
reports record both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .composition import LipschitzMap
from .errors import InvariantFailure, NoStoredPath, NotStraightPath
from .lipschitz import (
    LipschitzFunction,
    inf_extension,
    interval_coordinates,
    lipschitz_norm,
    local_slopes,
    quotients,
    sub_lipschitz_norm,
)
from .metric_core import REL_TOL, PointedMetricSpace, PointPair, gaps, point_indices, row_blocks


class StraightPathReport(NamedTuple):
    ok: bool
    defect: float


def straight_path_check(space: PointedMetricSpace,
                        candidate: Sequence[int]) -> StraightPathReport:
    """Is the point sequence a discrete isometric embedding of an interval?

    The defect is the largest ratio |gap / d(p_i, p_j) - 1| over pairs of
    path points, gap their arclength difference, in :func:`row_blocks`. The
    check passes within ``REL_TOL``, as the inverse projection's norm check needs.
    """
    idx = point_indices(space, candidate)
    if idx.size < 2 or np.unique(idx).size < idx.size:
        raise ValueError("a path needs at least two points and must not repeat one")
    cum, defect = _cumulative(space, idx.tolist()), 0.0
    for r0, r1 in row_blocks(idx.size, idx.size):
        ratios = quotients(gaps(cum[r0:r1], cum), space.dist[idx[r0:r1, None], idx], r0)
        np.fill_diagonal(ratios[:, r0:], 1.0)
        defect = max(defect, float(np.abs(ratios - 1.0).max()))
    return StraightPathReport(defect <= REL_TOL, defect)


def _cumulative(space: PointedMetricSpace, pts: Sequence[int]) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum([space.d(a, b) for a, b in zip(pts, pts[1:])])])


@dataclass(frozen=True, eq=False)
class DiscretizedGeodesicSpace:
    """A space plus stored straight paths for designated pairs.

    ``mesh`` is the largest consecutive step over all stored paths. At
    least one path is needed, and each joins two distinct points, visits
    no point twice and passes :func:`straight_path_check`; a path that
    does not is refused as :class:`NotStraightPath`, naming its pair.
    """

    space: PointedMetricSpace
    paths: Mapping[tuple[int, int], tuple[int, ...]]
    mesh: float = field(init=False)
    _projections: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        clean: dict[tuple[int, int], tuple[int, ...]] = {}
        mesh = 0.0
        for pair, pts in dict(self.paths).items():
            try:  # every refusal of a path is one NotStraightPath naming its pair
                ok, defect = straight_path_check(self.space, pts)  # two points or more, no repeat
                pts = tuple(int(p) for p in pts)
                if (pts[0], pts[-1]) != tuple(pair):
                    raise ValueError(f"path for {pair} does not run from {pair[0]} to {pair[1]}")
                if not ok:
                    raise ValueError("point sequence is not metrically straight "
                                     f"(defect {defect!r})")
            except ValueError as exc:
                raise NotStraightPath(pair, str(exc)) from None
            clean[pts[0], pts[-1]] = pts
            mesh = max(mesh, *(self.space.d(a, b) for a, b in zip(pts, pts[1:])))
        if not clean:
            raise ValueError("a geodesic space needs at least one stored path")
        object.__setattr__(self, "paths", clean)
        object.__setattr__(self, "mesh", mesh)

    def path_for(self, pair: PointPair) -> tuple[int, ...]:
        key = pair.as_tuple()
        if key in self.paths:
            return self.paths[key]
        rev = (pair.y, pair.x)
        if rev in self.paths:
            return tuple(reversed(self.paths[rev]))
        raise NoStoredPath(key)


@dataclass(frozen=True, eq=False)
class InverseProjection:
    """A norm-one function undoing a straight path's parameterization.

    P takes values in [0, L] with L the path length, equals the
    cumulative arclength exactly on the path points, and has Lipschitz
    norm one.
    """

    pair: PointPair
    path: tuple[int, ...]
    cumulative: tuple[float, ...]
    function: LipschitzFunction

    @property
    def length(self) -> float:
        return self.cumulative[-1]


def inverse_projection(gspace: DiscretizedGeodesicSpace,
                       pair: PointPair) -> InverseProjection:
    """Extend the arclength parameter from a stored path to the space.

    The extension is the largest-function inf-convolution with the
    path's own Lipschitz constant (one within ``REL_TOL``: the path passed
    :func:`straight_path_check` on admission), with floor zero, then
    clamped into [0, L]. Clamping never touches the path points, so
    composing with the path is the identity exactly; all three invariants
    are re-verified before returning, once per pair and space.
    """
    if pair in gspace._projections:
        return gspace._projections[pair]
    space = gspace.space
    pts = gspace.path_for(pair)
    cum = _cumulative(space, pts)
    length = float(cum[-1])
    constant = sub_lipschitz_norm(space, pts, cum)
    raw = inf_extension(space, pts, cum, constant)
    # clamp to [0, L]; the lower clamp is inactive because cum >= 0 and
    # distances are nonnegative
    values = np.minimum(np.maximum(raw, 0.0), length)
    fn = LipschitzFunction(space, values, normalize=False)

    norm = lipschitz_norm(fn).value
    if abs(norm - 1.0) > REL_TOL:
        raise InvariantFailure(f"inverse projection norm {norm!r} is not 1")
    if not np.array_equal(fn.values[list(pts)], cum):
        raise InvariantFailure("inverse projection does not restrict to arclength")
    if np.any(fn.values < 0.0) or np.any(fn.values > length):
        raise InvariantFailure("inverse projection leaves [0, L]")
    return gspace._projections.setdefault(
        pair, InverseProjection(pair, pts, tuple(cum.tolist()), fn))


# ---------------------------------------------------------------------------
# defect profiles (necessary conditions at mesh scale)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectProfile:
    """Per-target best localized difference-quotient ratios.

    ``rows`` holds (t, best_ratio, defect) with defect = 1 - best_ratio.
    The profile ``holds`` when the worst defect stays within ``eps``.
    """

    kind: str
    rows: tuple[tuple[float, float, float], ...]
    max_defect: float
    r_loc: float
    eps: float
    holds: bool
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "rows": [list(r) for r in self.rows]}


def _scales(mesh: float, diameter: float, r: float | None,
            eps: float | None) -> tuple[float, float]:
    """The given radius and eps, or by default 4 * mesh for the radius (a
    distance) and 4 * mesh / diameter, capped at 1/2, for eps (a bound on
    a ratio). A defect never exceeds 1, so an eps of 1 would pass any map."""
    default = 4.0 * mesh
    return (default if r is None else r,
            min(default / diameter, 0.5) if eps is None else eps)


def _windows(values: np.ndarray, centers: Sequence[float],
             width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order sorting ``values`` and, per center c, the run [lo, hi) of
    it with |v - c| <= width. Rounding keeps v - c monotone in v, so lo
    counts the values below c and outside, hi those below c or inside,
    taking the centers in :func:`row_blocks`, a row of comparisons each."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    counts = []
    for k0, k1 in row_blocks(len(centers), values.size):
        c = np.asarray(centers[k0:k1], dtype=float)[:, None]
        below, near = v < c, np.abs(v - c) <= width
        counts.append(np.count_nonzero([below & ~near, below | near], axis=2))
    lo, hi = np.concatenate(counts, axis=1)
    return order, lo, hi


def _defect_profile(kind: str, phi: LipschitzMap, values: np.ndarray,
                    num: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    grid: Sequence[float], mesh: float, r_loc: float | None,
                    eps: float | None, extra: dict[str, Any]) -> DefectProfile:
    """Per target t, the largest num(x', y') / d(x', y') over pairs of
    domain points whose value sits within r_loc of t (0 when fewer than
    two do); ``num`` maps two index arrays to the numerators.

    In value order each target's points are a run [lo, hi) of
    :func:`_windows`. Band entry (i, k - 1) is the largest ratio of point
    i against i + 1 .. i + k (ratios are symmetric, so each pair is read
    once), and a run's best ratio is the largest entry
    with lo <= i < i + k = hi - 1, gathered for all targets at once; band
    rows are filled in :func:`row_blocks`."""
    r_loc, eps = _scales(mesh, phi.codomain.diameter, r_loc, eps)
    order, lo, hi = _windows(values, grid, r_loc)
    n, width = order.size, int((hi - lo).max())
    band = np.empty((n, max(width - 1, 0)))
    for i0, i1 in row_blocks(n, width - 1):
        i = np.arange(i0, i1)[:, None]
        a, b = order[i], order[(i + np.arange(1, width)) % n]  # wrapped entries are never read
        np.maximum.accumulate(num(a, b) / phi.domain.dist[a, b], axis=1, out=band[i0:i1])
    span = np.maximum(hi - lo - 1, 0)
    run = np.repeat(np.arange(lo.size), span)
    i = np.repeat(lo - np.cumsum(span) + span, span) + np.arange(span.sum())
    best = np.zeros(lo.size)
    np.maximum.at(best, run, band[i, hi[run] - 2 - i])
    rows = [(t, b, 1.0 - b) for t, b in zip(map(float, grid), best.tolist())]
    max_defect = max(r[2] for r in rows)
    return DefectProfile(kind=kind, rows=tuple(rows), max_defect=max_defect,
                         r_loc=r_loc, eps=eps, holds=max_defect <= eps,
                         extra={"mesh": mesh, **extra})


def _interval_values(phi: LipschitzMap) -> tuple[np.ndarray, np.ndarray, float]:
    """The codomain's coordinates, those of the image, and the mesh."""
    coords = interval_coordinates(phi.codomain)
    return coords, coords[np.asarray(phi.image)], 1.0 / (coords.size - 1)


def check_interval_necessary(
    phi: LipschitzMap,
    r_loc: float | None = None,
    eps: float | None = None,
) -> DefectProfile:
    """Localized ratio-one probe for maps into an interval net.

    For each target t, the best ratio d(phi x', phi y')/d(x', y') over
    pairs mapping within r_loc of t is recorded; a norm-one map that
    acts isometrically must bring every defect below eps at mesh scale.
    """
    coords, values, mesh = _interval_values(phi)
    img = np.asarray(phi.image)
    return _defect_profile("interval_necessary", phi, values,
                           lambda a, b: phi.codomain.dist[img[a], img[b]], coords.tolist(),
                           mesh, r_loc, eps, {})


def check_geodesic_necessary(
    phi: LipschitzMap,
    gspace: DiscretizedGeodesicSpace,
    pair: PointPair,
    r_loc: float | None = None,
    eps: float | None = None,
) -> DefectProfile:
    """Defect profile along one stored path, seen through its inverse
    projection.

    Targets live in [0, d(x,y)]; for each, the best ratio
    (P(phi x') - P(phi y')) / d(x', y') over pairs projecting within
    r_loc of the target is recorded.
    """
    if phi.codomain is not gspace.space:
        raise ValueError("map codomain is not the geodesic space")
    proj = inverse_projection(gspace, pair)
    values = proj.function.values[np.asarray(phi.image)]
    return _defect_profile("geodesic_necessary", phi, values,
                           lambda a, b: np.abs(values[a] - values[b]),
                           proj.cumulative, gspace.mesh, r_loc, eps,
                           {"pair": pair.as_tuple(), "path_length": proj.length})


# ---------------------------------------------------------------------------
# sufficiency reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SufficiencyReport:
    """Image-density plus slope-one margins at attained values.

    ``rows`` holds (value, margin) with margin the best pointwise
    constant at scale r over preimages of the value. The report
    predicts isometric behavior at mesh scale when the density check
    passes and every margin reaches 1 - eps.
    """

    kind: str
    density_ok: bool
    max_gap: float
    gap_allowance: float
    rows: tuple[tuple[float, float], ...]
    worst_margin: float
    r: float
    eps: float
    predicts_isometric: bool
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "rows": [list(r) for r in self.rows]}


def _margins(phi: LipschitzMap, values: np.ndarray, r: float,
             centers: np.ndarray, width: float) -> list[tuple[float, float]]:
    """(c, m) per center c: m is the largest local slope at scale r of
    ``values`` over the domain points whose value lies within width of c,
    one ``reduceat`` over the slopes in value order. Every center is an
    attained value or one snapped to the mesh, so no run is empty; the
    appended entry lets a run end at the last point."""
    slopes = local_slopes(LipschitzFunction(phi.domain, values, normalize=False), r)
    order, lo, hi = _windows(values, centers, width)
    best = np.maximum.reduceat(np.append(slopes[order], 0.0), np.ravel([lo, hi], "F"))[::2]
    return list(zip(centers.tolist(), best.tolist()))


def _sufficiency(kind: str, density_ok: bool, max_gap: float, mesh: float,
                 rows: list[tuple[float, float]], r: float, eps: float,
                 extra: dict[str, Any]) -> SufficiencyReport:
    worst = min(m for _, m in rows)
    return SufficiencyReport(
        kind=kind, density_ok=density_ok, max_gap=max_gap, gap_allowance=2.0 * mesh,
        rows=tuple(rows), worst_margin=worst, r=r, eps=eps,
        predicts_isometric=density_ok and worst >= 1.0 - eps,
        extra={"mesh": mesh, **extra})


def check_interval_sufficient(
    phi: LipschitzMap, r: float | None = None, eps: float | None = None
) -> SufficiencyReport:
    """Slope-one sufficiency probe for maps into an interval net.

    Two conditions: attained values must leave no gap larger than twice
    the mesh in [0, 1] (the net surrogate for a full-length image), and
    every attained value must have a preimage whose pointwise constant
    at scale r reaches 1 - eps.
    """
    _, values, mesh = _interval_values(phi)
    r, eps = _scales(mesh, phi.codomain.diameter, r, eps)
    attained = np.unique(values)
    max_gap = float(np.diff(attained, prepend=0.0, append=1.0).max())
    return _sufficiency("interval_sufficient", max_gap <= 2.0 * mesh, max_gap, mesh,
                        _margins(phi, values, r, attained, 0.0), r, eps, {})


def check_geodesic_sufficient(
    phi: LipschitzMap,
    gspace: DiscretizedGeodesicSpace,
    r: float | None = None,
    eps: float | None = None,
) -> SufficiencyReport:
    """Range density plus slope-one margins through every stored path.

    Every codomain point must lie within twice the mesh of the image
    (otherwise the report is not dense and names the worst uncovered
    point in ``extra``), and for each stored path's inverse projection P,
    every mesh-snapped attained value of P(phi(.)) must have a preimage
    at pointwise constant 1 - eps at scale r.
    """
    if phi.codomain is not gspace.space:
        raise ValueError("map codomain is not the geodesic space")
    mesh, space = gspace.mesh, gspace.space
    r, eps = _scales(mesh, space.diameter, r, eps)
    img = np.asarray(phi.image)
    cover = np.concatenate([space.dist[r0:r1, img].min(axis=1)
                            for r0, r1 in row_blocks(space.n, img.size)])
    worst_point = int(np.argmax(cover))
    max_gap = float(cover[worst_point])
    dense = max_gap <= 2.0 * mesh
    rows = []
    for (x, y) in sorted(gspace.paths):
        composed = inverse_projection(gspace, PointPair(x, y)).function.values[img]
        snapped = np.unique(np.round(composed / mesh) * mesh)
        rows += _margins(phi, composed, r, snapped, mesh)
    return _sufficiency("geodesic_sufficient", dense, max_gap, mesh, rows, r, eps,
                        {"paths": sorted(gspace.paths),
                         **({} if dense else {"worst_point": worst_point})})
