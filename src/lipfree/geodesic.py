"""Discretized geodesic spaces, inverse projections, and mesh-scale checks.

A discretized geodesic space is a graph-metric space together with
explicitly stored straight paths: point sequences whose pairwise
distances match arclength differences exactly, i.e. discrete isometric
embeddings of an interval. Paths are pinned as data rather than
recomputed so that every experiment is reproducible.

The checks in this module replace asymptotic statements about sequences
with localized maxima at an explicit radius (``r_loc``, ``r``), a
distance, and threshold ``eps`` on a defect or margin, a ratio. By
default (:func:`_scales`) the radius is four times the mesh and ``eps``
four times the mesh over the codomain's diameter, so verdicts do not
depend on the unit, and on an interval net ``eps`` is four times the
mesh: loose enough that the identity map passes at every mesh and tight
enough that a halving map fails. The reports record both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .composition import LipschitzMap
from .errors import (
    CodomainNotInterval,
    InvariantFailure,
    NoStoredPath,
    NotAnIntervalNet,
    NotStraightPath,
    RangeNotDense,
)
from .lipschitz import (
    LipschitzFunction,
    inf_extension,
    interval_coordinates,
    lipschitz_norm,
    local_slopes,
    sub_lipschitz_norm,
)
from .metric_core import REL_TOL, PointedMetricSpace, PointPair


class StraightPathReport(NamedTuple):
    ok: bool
    defect: float


def straight_path_check(space: PointedMetricSpace,
                        candidate: Sequence[int]) -> StraightPathReport:
    """Is the point sequence a discrete isometric embedding of an interval?

    The defect is the largest deviation of d(p_i, p_j) from the
    difference of cumulative arclengths; the check passes when it stays
    within the metric tolerance.
    """
    pts = [int(p) for p in candidate]
    if len(pts) < 2:
        raise ValueError("a path needs at least two points")
    cum = _cumulative(space, pts)
    idx = np.asarray(pts)
    gaps = np.abs(cum[:, None] - cum[None, :])
    defect = float(np.max(np.abs(space.dist[np.ix_(idx, idx)] - gaps)))
    return StraightPathReport(defect <= space.tol, defect)


def _cumulative(space: PointedMetricSpace, pts: Sequence[int]) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum([space.d(a, b) for a, b in zip(pts, pts[1:])])])


@dataclass(frozen=True, eq=False)
class DiscretizedGeodesicSpace:
    """A space plus stored straight paths for designated pairs.

    ``mesh`` is the largest consecutive step over all stored paths. At
    least one path is needed, and each joins two distinct points.
    """

    space: PointedMetricSpace
    paths: Mapping[tuple[int, int], tuple[int, ...]]
    mesh: float = field(init=False)

    def __post_init__(self):
        clean: dict[tuple[int, int], tuple[int, ...]] = {}
        mesh = 0.0
        for pair, pts in dict(self.paths).items():
            pts = tuple(int(p) for p in pts)
            x, y = int(pair[0]), int(pair[1])
            if x == y or pts[0] != x or pts[-1] != y:
                raise ValueError(f"path for {pair} does not join two distinct endpoints")
            report = straight_path_check(self.space, pts)
            if not report.ok:
                raise NotStraightPath(report.defect)
            clean[(x, y)] = pts
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

    source: DiscretizedGeodesicSpace
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
    path's own Lipschitz constant (one), with floor zero, then clamped
    into [0, L]. Clamping never touches the path points, so composing
    with the path is the identity exactly; all three invariants are
    re-verified before returning.
    """
    space = gspace.space
    pts = gspace.path_for(pair)
    report = straight_path_check(space, pts)
    if not report.ok:
        raise NotStraightPath(report.defect)
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
    return InverseProjection(gspace, pair, pts, tuple(cum.tolist()), fn)


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
        return {**asdict(self), "rows": [list(r) for r in self.rows]}


def _scales(mesh: float, diameter: float, r: float | None,
            eps: float | None) -> tuple[float, float]:
    """The given radius and eps, or by default 4 * mesh for the radius (a
    distance) and 4 * mesh / diameter for eps (a bound on a ratio)."""
    default = 4.0 * mesh
    return (default if r is None else r,
            default / diameter if eps is None else eps)


def _defect_profile(kind: str, phi: LipschitzMap, values: np.ndarray,
                    num: np.ndarray, grid: Sequence[float], mesh: float,
                    r_loc: float | None, eps: float | None,
                    extra: dict[str, Any]) -> DefectProfile:
    """Per target t, the largest num / d(x', y') over pairs of domain
    points whose value sits within r_loc of t (0 when fewer than two do).
    The ratios are divided once, into ``num``; the diagonal's 0/0 is 0."""
    r_loc, eps = _scales(mesh, phi.codomain.diameter, r_loc, eps)
    with np.errstate(invalid="ignore"):
        ratios = np.divide(num, phi.domain.dist, out=num)
    np.fill_diagonal(ratios, 0.0)
    rows = []
    for t in map(float, grid):
        sel = np.flatnonzero(np.abs(values - t) <= r_loc)
        best = float(ratios[np.ix_(sel, sel)].max()) if sel.size else 0.0
        rows.append((t, best, 1.0 - best))
    max_defect = max(r[2] for r in rows)
    return DefectProfile(kind=kind, rows=tuple(rows), max_defect=max_defect,
                         r_loc=r_loc, eps=eps, holds=max_defect <= eps,
                         extra={"mesh": mesh, **extra})


def _interval_values(phi: LipschitzMap) -> tuple[np.ndarray, np.ndarray, float]:
    """The codomain's coordinates, those of the image, and the mesh."""
    try:
        coords = interval_coordinates(phi.codomain)
    except NotAnIntervalNet:
        raise CodomainNotInterval() from None
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
                           phi.codomain.dist[np.ix_(img, img)], coords.tolist(), mesh,
                           r_loc, eps, {})


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
                           np.abs(values[:, None] - values[None, :]),
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
        return {**asdict(self), "rows": [list(r) for r in self.rows]}


def _margins(phi: LipschitzMap, values: np.ndarray, r: float,
             centers: np.ndarray, width: float) -> list[tuple[float, float]]:
    """(c, m) per center c: m is the largest local slope at scale r of
    ``values`` over the domain points whose value lies within width of c."""
    slopes = local_slopes(LipschitzFunction(phi.domain, values, normalize=False), r)
    return [(float(c), float(slopes[np.abs(values - c) <= width].max())) for c in centers]


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
    (otherwise RangeNotDense reports the worst uncovered point), and for
    each stored path's inverse projection P, every mesh-snapped attained
    value of P(phi(.)) must have a preimage at pointwise constant
    1 - eps at scale r.
    """
    if phi.codomain is not gspace.space:
        raise ValueError("map codomain is not the geodesic space")
    mesh, space = gspace.mesh, gspace.space
    r, eps = _scales(mesh, space.diameter, r, eps)
    img = np.asarray(phi.image)
    cover = space.dist[:, img].min(axis=1)
    worst_point = int(np.argmax(cover))
    max_gap = float(cover[worst_point])
    if max_gap > 2.0 * mesh:
        raise RangeNotDense(worst_point, max_gap, 2.0 * mesh)
    rows = []
    for (x, y) in sorted(gspace.paths):
        composed = inverse_projection(gspace, PointPair(x, y)).function.values[img]
        snapped = np.unique(np.round(composed / mesh) * mesh)
        rows += _margins(phi, composed, r, snapped, mesh)
    return _sufficiency("geodesic_sufficient", True, max_gap, mesh, rows, r, eps,
                        {"paths": sorted(gspace.paths)})
