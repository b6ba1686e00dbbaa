"""Base-preserving Lipschitz maps and isometry certification.

A map is a total image table between two spaces. Composition against
functions and the induced push-forward on zero-sum vectors are adjoint
to each other, which is why the operator norm of the composition
operator equals the Lipschitz constant of the map.

:func:`certify_isometry` is the one certification pass: it computes the
map norm and enumerates the codomain ball's vertices (its extreme
molecules) once, and two independent algorithms then decide over that
one vertex list whether composition against a norm-one map preserves
every function's norm:

* the dual route searches, for every vertex (x, y), for a preimage pair
  realizing the same distance;
* the primal route checks, vertex by vertex, that the codomain unit
  ball is contained in the push-forward image of the domain unit ball.
  Pushed molecules lie in the ball, and a vertex is in the hull of
  points of the ball only if it is one of them, so the vertices equal
  to a pushed molecule are read from one table built per pass; only
  the other vertices ask the hull-membership kernel
  :func:`freespace.hull_combination` for a convex combination, one LP
  each.

The two routes are provably equivalent, so the ``both`` method fails
loudly on disagreement: that outcome falsifies the implementation,
never the mathematics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, NamedTuple, Sequence

import numpy as np

from .errors import (
    BasePointNotPreserved,
    MapNormExceedsOne,
    MethodDisagreement,
    NotNorming,
    SpaceMismatch,
)
from .freespace import (
    FreeVector,
    _first_outside_hull,
    _norming_failure,
    _ordered_pairs,
    extreme_molecules,
)
from .lipschitz import LipschitzFunction, _largest_quotient
from .metric_core import REL_TOL, PointedMetricSpace, PointPair


class MapNorm(NamedTuple):
    value: float
    witness: tuple[int, int] | None


@dataclass(frozen=True, eq=False)
class LipschitzMap:
    """A base-preserving map given by one codomain index per domain point."""

    domain: PointedMetricSpace
    codomain: PointedMetricSpace
    image: tuple[int, ...]

    def __post_init__(self):
        img = tuple(int(i) for i in self.image)
        if len(img) != self.domain.n:
            raise ValueError(f"image table must have {self.domain.n} entries")
        if any(not (0 <= i < self.codomain.n) for i in img):
            raise ValueError("image table contains out-of-range indices")
        if img[self.domain.base] != self.codomain.base:
            raise BasePointNotPreserved(img[self.domain.base], self.codomain.base)
        object.__setattr__(self, "image", img)

    def __call__(self, x: int) -> int:
        return self.image[x]

    def norm_with_witness(self) -> MapNorm:
        img = np.asarray(self.image)
        value, i, j = _largest_quotient(self.codomain.dist[np.ix_(img, img)],
                                        self.domain.dist)
        if value <= 0.0:
            return MapNorm(0.0, None)
        return MapNorm(value, (min(i, j), max(i, j)))


def identity_map(space: PointedMetricSpace) -> LipschitzMap:
    return LipschitzMap(space, space, tuple(range(space.n)))


def compose_maps(outer: LipschitzMap, inner: LipschitzMap) -> LipschitzMap:
    """The map sending x to outer(inner(x))."""
    if inner.codomain is not outer.domain:
        raise SpaceMismatch("inner map's codomain is not the outer map's domain")
    return LipschitzMap(inner.domain, outer.codomain,
                        tuple(outer.image[i] for i in inner.image))


def operator_norm(phi: LipschitzMap) -> float:
    """Lipschitz constant of the map, which equals the operator norm of
    composition against it (adjointness)."""
    return phi.norm_with_witness().value


def push_forward(phi: LipschitzMap, mu: FreeVector) -> FreeVector:
    """Image of a zero-sum vector under the map's linearization.

    Coefficients are aggregated over fibers; the zero sum is preserved
    and the operation is linear in the vector.
    """
    if mu.space is not phi.domain:
        raise SpaceMismatch("vector does not live over the map's domain")
    out = np.zeros(phi.codomain.n)
    np.add.at(out, np.asarray(phi.image), mu.coeffs)
    return FreeVector(phi.codomain, out)


def compose(phi: LipschitzMap, f: LipschitzFunction) -> LipschitzFunction:
    """Pull a function on the codomain back along the map."""
    if f.space is not phi.codomain:
        raise SpaceMismatch("function does not live over the map's codomain")
    img = np.asarray(phi.image)
    values = f.values[img] - f.values[phi.image[phi.domain.base]]
    return LipschitzFunction(phi.domain, values, normalize=False)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometryCertificate:
    """Outcome of one certification run.

    A negative or inconclusive verdict always carries a failing pair. A
    positive dual verdict carries one preimage witness per checked pair.
    ``scope`` records whether the pair set decides both directions (the
    default, all extreme molecules) or only suffices for the positive
    direction (a caller-supplied norming set); a failed check over such
    a set decides nothing and is ``inconclusive``.
    """

    verdict: str  # "isometric" | "not_isometric" | "inconclusive"
    method: str  # "dual_preimage" | "primal_polytope"
    scope: str = "necessary_and_sufficient"
    witnesses: tuple[dict[str, Any], ...] = ()
    failing_pair: tuple[int, int] | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    @property
    def isometric(self) -> bool:
        return self.verdict == "isometric"

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "witnesses": list(self.witnesses),
                "failing_pair": list(self.failing_pair) if self.failing_pair else None}


@dataclass(frozen=True)
class AgreementReport:
    """Both certificates from a ``method=both`` run; the verdict is the
    primal's, and the dual's is equal unless it is inconclusive."""

    verdict: str
    dual: IsometryCertificate
    primal: IsometryCertificate

    @property
    def isometric(self) -> bool:
        return self.verdict == "isometric"

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "dual": self.dual.to_dict(),
            "primal": self.primal.to_dict(),
        }


def _cert_tol(phi: LipschitzMap) -> float:
    return max(phi.domain.tol, phi.codomain.tol)


def _dual_certificate(phi: LipschitzMap, vertices: list[PointPair],
                      pairs: Sequence[PointPair] | None,
                      tol: float) -> IsometryCertificate:
    """Preimage-distance criterion over a norming pair set.

    For every pair (x, y) in the set (default: the codomain's vertices)
    a preimage pair (x', y') with equal distance up to the metric
    tolerance must exist; since the map is norm-one, d(x', y') >= d(x, y)
    always, so the bound is the attained form of the ratio-one
    condition. With the default pair set the verdict is conclusive in
    both directions; a caller-supplied set, which :func:`certify_isometry`
    has checked to be norming, decides only the positive direction: a
    pair failing the bound makes the verdict ``inconclusive``, since it
    need not be a vertex.
    """
    if pairs is None:
        pair_list, scope, negative = vertices, "necessary_and_sufficient", "not_isometric"
    else:
        pair_list, scope, negative = list(pairs), "sufficient_only", "inconclusive"

    def failed(pair: PointPair, notes: str) -> IsometryCertificate:
        return IsometryCertificate(
            verdict=negative, method="dual_preimage", scope=scope,
            failing_pair=pair.as_tuple(), tolerances={"tol_metric": tol}, notes=notes)

    img = np.asarray(phi.image)
    witnesses = []
    for pair in pair_list:
        xs = np.flatnonzero(img == pair.x)
        ys = np.flatnonzero(img == pair.y)
        if xs.size == 0 or ys.size == 0:
            return failed(pair, "pair has no preimage on one side")
        block = phi.domain.dist[np.ix_(xs, ys)]
        k = int(np.argmin(block))
        i, j = divmod(k, ys.size)
        best = float(block[i, j])
        target = phi.codomain.d(pair.x, pair.y)
        if best > target + tol:
            return failed(pair, f"best preimage distance {best!r} exceeds {target!r}")
        witnesses.append({
            "pair": pair.as_tuple(),
            "preimage": (int(xs[i]), int(ys[j])),
            "codomain_distance": target,
            "domain_distance": best,
        })
    return IsometryCertificate(
        verdict="isometric", method="dual_preimage", scope=scope,
        witnesses=tuple(witnesses), tolerances={"tol_metric": tol},
    )


def _primal_certificate(phi: LipschitzMap, vertices: list[PointPair],
                        tol: float) -> IsometryCertificate:
    """Polytope-containment criterion, vertex by vertex.

    Composition against the map is isometric exactly when the
    push-forward image of the domain unit ball covers the codomain unit
    ball; both balls are polytopes, so it is enough to reach every
    vertex of the codomain ball by a convex combination of pushed
    domain molecules (a pushed molecule equal to the vertex, or else an
    LP feasibility problem).
    """
    u, v = _ordered_pairs(phi.domain.n)
    img = np.asarray(phi.image)
    failing = _first_outside_hull(phi.codomain, vertices, img[u], img[v],
                                  phi.domain.dist[u, v])
    tolerances = {"tol_metric": tol, "lp_feasibility": REL_TOL}
    if failing is not None:
        return IsometryCertificate(
            verdict="not_isometric", method="primal_polytope",
            failing_pair=failing.as_tuple(), tolerances=tolerances,
            notes="codomain vertex is outside the pushed unit ball",
        )
    return IsometryCertificate(
        verdict="isometric", method="primal_polytope",
        witnesses=tuple({"pair": v.as_tuple()} for v in vertices),
        tolerances=tolerances,
    )


def certify_isometry_dual(phi: LipschitzMap, pairs: Sequence[PointPair] | None = None
                          ) -> IsometryCertificate:
    """The dual (preimage) certificate alone; see :func:`certify_isometry`."""
    return certify_isometry(phi, "dual", pairs)


def certify_isometry_primal(phi: LipschitzMap) -> IsometryCertificate:
    """The primal (polytope) certificate alone; see :func:`certify_isometry`."""
    return certify_isometry(phi, "primal")


def certify_isometry(
    phi: LipschitzMap,
    method: str = "both",
    pairs: Sequence[PointPair] | None = None,
    tol: float | None = None,
):
    """Run one or both certifiers; with ``both``, the primal verdict is
    reported and a conclusive dual verdict must equal it.

    A dual's ``pairs`` that miss a vertex raise :class:`NotNorming`
    before any verdict. The map norm is a ratio, compared with 1 within
    ``REL_TOL``; ``tol`` (default the larger space tolerance) is a
    distance and decides only the dual's preimage comparison.
    Disagreement raises :class:`MethodDisagreement` with both
    certificates as dictionaries: an implementation bug, surfaced loudly.
    """
    if method not in ("dual", "primal", "both"):
        raise ValueError(f"unknown certification method {method!r}")
    if tol is None:
        tol = _cert_tol(phi)
    norm = phi.norm_with_witness()
    if norm.value > 1.0 + REL_TOL:
        raise MapNormExceedsOne(norm.value, norm.witness, REL_TOL)
    vertices = extreme_molecules(phi.codomain)
    if pairs is not None and method != "primal":
        failing = _norming_failure(pairs, vertices)
        if failing is not None:
            raise NotNorming(failing.as_tuple())
    if norm.value < 1.0 - REL_TOL:
        dual, primal = (IsometryCertificate(
            verdict="not_isometric", method=name,
            failing_pair=vertices[0].as_tuple(),
            tolerances={"tol_metric": tol, "map_norm": REL_TOL},
            notes=f"operator norm {norm.value!r} is strictly below one",
        ) for name in ("dual_preimage", "primal_polytope"))
    else:
        dual = _dual_certificate(phi, vertices, pairs, tol) if method != "primal" else None
        primal = _primal_certificate(phi, vertices, tol) if method != "dual" else None
    if method != "both":
        return dual if method == "dual" else primal
    if dual.verdict not in (primal.verdict, "inconclusive"):
        raise MethodDisagreement(
            f"certifiers disagree: dual says {dual.verdict}, "
            f"primal says {primal.verdict}",
            {"dual": dual.to_dict(), "primal": primal.to_dict()},
        )
    return AgreementReport(primal.verdict, dual, primal)
