"""Discretized geodesic spaces, inverse projections, and mesh-scale checks.

A discretized geodesic space is a graph-metric space together with
explicitly stored straight paths: point sequences without repeats whose
arclength differences match their pairwise distances in ratio, i.e.
discrete isometric embeddings of an interval. Paths are pinned as data
rather than recomputed so that every experiment is reproducible.

An interval net is the model case: its one path 0..n projects to the
coordinate, which the interval checks pass in closed form to the bodies
the geodesic checks run on each stored path's inverse projection.

The checks in this module replace asymptotic statements about sequences
with localized maxima at a radius (``r_loc``, ``r``), a distance, and a
threshold ``eps`` on a defect or margin, a ratio. Both are derived
(:func:`_scales`): the radius is four times the mesh and ``eps`` four
times the mesh over the codomain's diameter, at most 1/2, so verdicts do
not depend on the unit, and on an interval net of mesh 1/8 or finer
``eps`` is four times the mesh: loose enough that the identity map passes
at every mesh and tight enough that a halving map fails. The sufficiency
checks' ``r`` is the one override left. The reports record both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Sequence

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
)
from .metric_core import REL_TOL, PointedMetricSpace, PointPair, gaps, point_indices, row_blocks


class StraightPathReport(NamedTuple):
    ok: bool
    defect: float


def _straightness(space: PointedMetricSpace, candidate: Sequence[int]) -> tuple[float, float]:
    """The largest |gap / d(p_i, p_j) - 1| and the largest gap / d(p_i, p_j)
    over pairs of path points, gap their arclength difference: the
    straightness defect and the arclength's Lipschitz constant on the path,
    from one pass of ratios in :func:`row_blocks`."""
    idx = point_indices(space, candidate)
    if idx.size < 2 or np.unique(idx).size < idx.size:
        raise ValueError("a path needs at least two points and must not repeat one")
    cum, defect, constant = _cumulative(space, idx), 0.0, 0.0
    for r0, r1 in row_blocks(idx.size, idx.size):
        ratios = quotients(gaps(cum[r0:r1], cum), space.dist[idx[r0:r1, None], idx], r0)
        constant = max(constant, float(ratios.max()))
        np.fill_diagonal(ratios[:, r0:], 1.0)
        defect = max(defect, float(np.abs(ratios - 1.0).max()))
    return defect, constant


def straight_path_check(space: PointedMetricSpace,
                        candidate: Sequence[int]) -> StraightPathReport:
    """Is the point sequence a discrete isometric embedding of an interval?
    It is when the :func:`_straightness` defect is within ``REL_TOL``, as
    the inverse projection's norm check needs."""
    defect = _straightness(space, candidate)[0]
    return StraightPathReport(defect <= REL_TOL, defect)


def _cumulative(space: PointedMetricSpace, pts: Sequence[int]) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(space.dist[pts[:-1], pts[1:]])])


@dataclass(frozen=True, eq=False)
class DiscretizedGeodesicSpace:
    """A space plus stored straight paths for designated pairs.

    ``mesh`` is the largest consecutive step over all stored paths. At
    least one path is needed, and each joins two distinct points, visits
    no point twice and passes :func:`straight_path_check`; a path that
    does not is refused as :class:`NotStraightPath`, naming its pair.
    Each path's arclength constant is kept from that check.
    """

    space: PointedMetricSpace
    paths: Mapping[tuple[int, int], tuple[int, ...]]
    mesh: float = field(init=False)
    _constants: dict = field(init=False, default_factory=dict, repr=False)
    _projections: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        clean: dict[tuple[int, int], tuple[int, ...]] = {}
        mesh = 0.0
        for pair, pts in dict(self.paths).items():
            try:  # every refusal of a path is one NotStraightPath naming its pair
                defect, constant = _straightness(self.space, pts)  # two points or more, no repeat
                pts = tuple(int(p) for p in pts)
                if (pts[0], pts[-1]) != tuple(pair):
                    raise ValueError(f"path for {pair} does not run from {pair[0]} to {pair[1]}")
                if defect > REL_TOL:
                    raise ValueError("point sequence is not metrically straight "
                                     f"(defect {defect!r})")
            except ValueError as exc:
                raise NotStraightPath(pair, str(exc)) from None
            clean[pts[0], pts[-1]] = pts
            self._constants[pts] = constant
            mesh = max(mesh, float(self.space.dist[pts[:-1], pts[1:]].max()))
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
    path's own Lipschitz constant, kept when the path passed
    :func:`straight_path_check` on admission (one within ``REL_TOL``; a
    reversed path's is its stored path's), with floor zero, then
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
    constant = gspace._constants.get(pts, gspace._constants.get(pts[::-1]))
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


def _scales(mesh: float, diameter: float, r: float | None = None) -> tuple[float, float]:
    """The given radius, or by default 4 * mesh (a distance), and eps =
    4 * mesh / diameter, capped at 1/2 (a bound on a ratio). A defect never
    exceeds 1, so an eps of 1 would pass any map."""
    radius = 4.0 * mesh if r is None else r
    return radius, min(4.0 * mesh / diameter, 0.5)


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


def _defect_profile(kind: str, phi: LipschitzMap, projection: np.ndarray,
                    grid: Sequence[float], mesh: float,
                    extra: dict[str, Any]) -> DefectProfile:
    """Per target t, the largest |P(phi x') - P(phi y')| / d(x', y') over
    pairs of domain points whose value P(phi .) sits within r_loc of t (0
    when fewer than two do), P the codomain vector ``projection``, r_loc from ``mesh``.

    In value order each target's points are a run [lo, hi) of
    :func:`_windows`. Band entry (i, k - 1) is the largest ratio of point
    i against i + 1 .. i + k (ratios are symmetric, so each pair is read
    once), and a run's best ratio is the largest entry
    with lo <= i < i + k = hi - 1, gathered for all targets at once; band
    rows are filled in :func:`row_blocks`."""
    r_loc, eps = _scales(mesh, phi.codomain.diameter)
    values = projection[np.asarray(phi.image)]
    order, lo, hi = _windows(values, grid, r_loc)
    n, width = order.size, int((hi - lo).max())
    band = np.empty((n, max(width - 1, 0)))
    for i0, i1 in row_blocks(n, width - 1):
        i = np.arange(i0, i1)[:, None]
        a, b = order[i], order[(i + np.arange(1, width)) % n]  # wrapped entries are never read
        np.maximum.accumulate(np.abs(values[a] - values[b]) / phi.domain.dist[a, b], axis=1,
                              out=band[i0:i1])
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


def check_interval_necessary(phi: LipschitzMap) -> DefectProfile:
    """Localized ratio-one probe for maps into an interval net: the
    geodesic profile along the net's one path, whose inverse projection is
    the coordinate, at targets k/n. A norm-one map that acts isometrically
    must bring every defect below eps at mesh scale."""
    coords = interval_coordinates(phi.codomain)
    return _defect_profile("interval_necessary", phi, coords, coords.tolist(),
                           1.0 / (coords.size - 1), {})


def check_geodesic_necessary(phi: LipschitzMap, gspace: DiscretizedGeodesicSpace,
                             pair: PointPair) -> DefectProfile:
    """Defect profile along one stored path, seen through its inverse
    projection.

    Targets live in [0, d(x,y)]; for each, the best ratio
    (P(phi x') - P(phi y')) / d(x', y') over pairs projecting within
    r_loc of the target is recorded.
    """
    if phi.codomain is not gspace.space:
        raise ValueError("map codomain is not the geodesic space")
    proj = inverse_projection(gspace, pair)
    return _defect_profile("geodesic_necessary", phi, proj.function.values,
                           proj.cumulative, gspace.mesh,
                           {"pair": pair.as_tuple(), "path_length": proj.length})


# ---------------------------------------------------------------------------
# sufficiency reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SufficiencyReport:
    """Image-density plus slope-one margins at attained codomain points.

    ``rows`` holds (point, margin) per codomain point in the image, with
    margin the best pointwise constant at scale r over the point's
    preimages. The report predicts isometric behavior at mesh scale when
    the density check passes and every margin reaches 1 - eps.
    """

    kind: str
    density_ok: bool
    max_gap: float
    gap_allowance: float
    rows: tuple[tuple[int, float], ...]
    worst_margin: float
    r: float
    eps: float
    predicts_isometric: bool
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "rows": [list(r) for r in self.rows]}


def _sufficiency(kind: str, phi: LipschitzMap, projections: list[np.ndarray], mesh: float,
                 r: float | None, extra: dict[str, Any]) -> SufficiencyReport:
    """Every codomain point must lie within twice the mesh of the image
    (otherwise the report is not dense and names the worst uncovered
    point in ``extra``), and every attained codomain point z must have a
    preimage at pointwise constant 1 - eps at scale r: its margin is the
    largest local slope of P(phi(.)) over the fibre of z, the largest
    over the codomain vectors P in ``projections``."""
    space, img = phi.codomain, np.asarray(phi.image)
    r, eps = _scales(mesh, space.diameter, r)
    attained = np.unique(img)
    cover = np.concatenate([space.dist[r0:r1, attained].min(axis=1)
                            for r0, r1 in row_blocks(space.n, attained.size)])
    worst_point = int(np.argmax(cover))
    max_gap = float(cover[worst_point])
    dense = max_gap <= 2.0 * mesh
    best = np.zeros(space.n)
    for projection in projections:
        slopes = local_slopes(LipschitzFunction(phi.domain, projection[img], normalize=False), r)
        np.maximum.at(best, img, slopes)
    margins = best[attained]
    worst = float(margins.min())
    return SufficiencyReport(
        kind=kind, density_ok=dense, max_gap=max_gap, gap_allowance=2.0 * mesh,
        rows=tuple(zip(attained.tolist(), margins.tolist())),
        worst_margin=worst, r=r, eps=eps,
        predicts_isometric=dense and worst >= 1.0 - eps,
        extra={"mesh": mesh, **extra, **({} if dense else {"worst_point": worst_point})})


def check_interval_sufficient(phi: LipschitzMap, r: float | None = None) -> SufficiencyReport:
    """Slope-one sufficiency probe for maps into an interval net: the
    geodesic probe with the coordinate as its one path's projection."""
    coords = interval_coordinates(phi.codomain)
    return _sufficiency("interval_sufficient", phi, [coords], 1.0 / (coords.size - 1),
                        r, {})


def check_geodesic_sufficient(phi: LipschitzMap, gspace: DiscretizedGeodesicSpace,
                              r: float | None = None) -> SufficiencyReport:
    """Range density plus slope-one margins through every stored path, as
    :func:`_sufficiency` reads them with each path's inverse projection.
    """
    if phi.codomain is not gspace.space:
        raise ValueError("map codomain is not the geodesic space")
    pairs = sorted(gspace.paths)
    return _sufficiency("geodesic_sufficient", phi,
                        [inverse_projection(gspace, PointPair(*p)).function.values for p in pairs],
                        gspace.mesh, r, {"paths": pairs})
