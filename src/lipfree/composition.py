"""Base-preserving Lipschitz maps and isometry certification.

A map is a total image table between two spaces. Composition against
functions and the induced push-forward on zero-sum vectors are adjoint
to each other, which is why the operator norm of the composition
operator equals the Lipschitz constant of the map.

:func:`certify_isometry` is the one certification pass: it reads the
map norm, computed once per map, and two independent algorithms then
decide whether composition against the map preserves every function's
norm (each fails a norm below ``1 - REL_TOL``, with its own witness):

* the dual route reads, in one pass over the domain grouped by image,
  the closest preimage pair (x', y') of each vertex (x, y) of the
  codomain ball (its extreme molecules), which must have
  d(x, y)/d(x', y') = 1. Vertices, preimage pairs and d(x', y')
  stay index and value arrays: the certificate's witness columns;
* the primal route reads in closed form the metric cbar the map induces
  on its codomain: the shortest-path closure of c(x, y), the least domain
  distance between the fibres of x and y (infinite if one is empty).
  Composition is the adjoint of the push-forward (Weaver, *Lipschitz
  Algebras*, 2nd ed.): Lip(f o phi) is f's constant for cbar, which
  f = cbar(., x) attains at (x, y), so the modulus m = min d/cbar over
  x != y is the largest m with Lip(f o phi) >= m Lip(f). It reads no
  vertex and solves no LP.

The two routes are provably equivalent, so the ``both`` method fails
loudly on disagreement: that outcome falsifies the implementation,
never the mathematics. Both read "ratio one" as one rounded quotient of at
least ``1 - REL_TOL``: a vertex's preimage ratio d/c, or the modulus's d/cbar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, NamedTuple, Sequence

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
    extreme_molecules,
    is_norming,
)
from .lipschitz import LipschitzFunction, _largest_quotient, quotients
from .metric_core import (REL_TOL, PointedMetricSpace, PointPair, point_indices, row_blocks,
                          shortest_path_closure)


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
        if len(self.image) != self.domain.n:
            raise ValueError(f"image table must have {self.domain.n} entries")
        img = tuple(point_indices(self.codomain, self.image).tolist())
        if img[self.domain.base] != self.codomain.base:
            raise BasePointNotPreserved(img[self.domain.base], self.codomain.base)
        object.__setattr__(self, "image", img)

    def __call__(self, x: int) -> int:
        if 0 <= x < len(self.image):  # a negative index is no point
            try:
                return self.image[x]
            except TypeError:  # a float, which point_indices reads or refuses
                pass
        return self.image[point_indices(self.domain, (x,))[0]]

    def norm_with_witness(self) -> MapNorm:
        return self._norm

    @cached_property
    def _norm(self) -> MapNorm:  # computed once per map
        img = np.asarray(self.image)
        value, pair = _largest_quotient(img.size, lambda r0, r1: (
            self.codomain.dist[img[r0:r1, None], img], self.domain.dist[r0:r1]))
        if value <= 0.0:
            return MapNorm(0.0, None)
        return MapNorm(value, pair)


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

    Coefficients are aggregated over fibers, and the total's rounding residue,
    summed in units of 2**e as :class:`FreeVector` does, is placed on the
    codomain's base point, which leaves the pairing with every function
    vanishing there unchanged. A fibre total past the float range is refused
    as not finite.
    """
    if mu.space is not phi.domain:
        raise SpaceMismatch("vector does not live over the map's domain")
    out = np.zeros(phi.codomain.n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the float range
        np.add.at(out, np.asarray(phi.image), mu.coeffs)
        e = int(np.frexp(np.abs(out).max())[1])
        out[phi.codomain.base] -= np.ldexp(np.ldexp(out, -e).sum(), e)
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

@dataclass(frozen=True, eq=False)
class IsometryCertificate:
    """Outcome of one certification run.

    A negative verdict always carries a failing pair, a positive dual
    verdict one ``witnesses`` row per vertex (columns ``pair`` and
    ``preimage``, ``(k, 2)`` ``intp``, and ``domain_distance``; empty
    otherwise), and a primal verdict the map's ``modulus``.
    """

    verdict: str  # "isometric" | "not_isometric"
    method: str  # "dual_preimage" | "primal_quotient"
    witnesses: dict[str, np.ndarray] = field(default_factory=lambda: {
        "pair": np.empty((0, 2), np.intp), "preimage": np.empty((0, 2), np.intp),
        "domain_distance": np.empty(0)})
    failing_pair: tuple[int, int] | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    notes: str = ""
    modulus: float | None = None

    @property
    def isometric(self) -> bool:
        return self.verdict == "isometric"

    def to_dict(self) -> dict[str, Any]:
        out = {**vars(self), "witnesses": {k: v.tolist() for k, v in self.witnesses.items()},
               "failing_pair": list(self.failing_pair) if self.failing_pair else None}
        if self.modulus is None:
            del out["modulus"]
        return out


@dataclass(frozen=True)
class AgreementReport:
    """Both certificates from a ``method=both`` run, whose verdicts are equal."""

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


def _dual_certificate(phi: LipschitzMap, vertices: np.ndarray) -> IsometryCertificate:
    """Preimage-ratio criterion over the codomain's vertices.

    For every vertex (x, y) the closest preimage pair (x', y') must have
    d(x, y)/d(x', y') at least ``1 - REL_TOL``, the primal's rule for the
    modulus; for a map of norm at most one this is the attained ratio-one
    condition, and a norm below ``1 - REL_TOL`` fails the first vertex, as
    the norm bounds each ratio. One pass reads every vertex's fibre block,
    row-major, from the domain sorted by image, in :func:`row_blocks` of
    vertices sized by the largest block, and keeps each block's witness
    columns; the first failing vertex in list order is reported.
    """
    tolerances = {"tol_metric": phi.codomain.tol, "preimage_ratio": REL_TOL}

    def failed(k: int, notes: str) -> IsometryCertificate:
        return IsometryCertificate(
            verdict="not_isometric", method="dual_preimage",
            failing_pair=tuple(vertices[k].tolist()), tolerances=tolerances, notes=notes)

    img = np.asarray(phi.image)
    size = np.bincount(img, minlength=phi.codomain.n)
    px, py = vertices.T
    empty = np.flatnonzero((size[px] == 0) | (size[py] == 0))
    stop = int(empty[0]) if empty.size else len(vertices)
    if stop == 0:  # every collapse map: the domain need not be sorted
        return failed(0, "pair has no preimage on one side")
    order = np.argsort(img, kind="stable")  # the domain, fibre by fibre
    start = np.cumsum(size) - size
    target = phi.codomain.dist[px, py]
    cells = size[px[:stop]] * size[py[:stop]]
    kept = [(vertices[:0], vertices[:0], target[:0])]  # the witness columns, block by block
    for p0, p1 in row_blocks(stop, int(cells.max(initial=1))):
        p = slice(p0, p1)
        seg, wide = cells[p], np.repeat(size[py[p]], cells[p])
        first = np.cumsum(seg) - seg
        i, j = np.divmod(np.arange(seg.sum()) - np.repeat(first, seg), wide)
        xs = order[np.repeat(start[px[p]], seg) + i]
        ys = order[np.repeat(start[py[p]], seg) + j]
        block = phi.domain.dist[xs, ys]  # every pair's fibre block, row-major
        best = np.minimum.reduceat(block, first)
        hits = np.flatnonzero(block == np.repeat(best, seg))
        at = hits[np.searchsorted(hits, first)]  # argmin's tie-break: the first minimum
        bad = np.flatnonzero(target[p] / best < 1.0 - REL_TOL)
        if bad.size:
            q = int(bad[0])
            return failed(p0 + q, f"best preimage distance "
                          f"{float(best[q])!r} exceeds {float(target[p0 + q])!r}")
        kept.append((vertices[p], np.column_stack((xs[at], ys[at])), best))
    if stop < len(vertices):
        return failed(stop, "pair has no preimage on one side")
    pair, preimage, distance = map(np.concatenate, zip(*kept))
    return IsometryCertificate(
        verdict="isometric", method="dual_preimage", tolerances=tolerances,
        witnesses={"pair": pair, "preimage": preimage, "domain_distance": distance})


def _fibre_rows(img: np.ndarray, dist: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(x0, rows x0.. of c) by :func:`row_blocks` of domain-sized rows: c(x, y)
    is the least ``dist`` between the fibres of x and y under an onto image
    table into 0..n-1, each fibre's first row or column, then the minimum
    with its j-th for j = 2, 3, ..., so no temporary exceeds a block."""
    order = np.argsort(img, kind="stable")  # the domain, fibre by fibre
    size = np.bincount(img, minlength=n)
    first = np.cumsum(size) - size
    for x0, x1 in row_blocks(n, img.size):
        rows = dist[order[first[x0:x1]]]
        for j in range(1, size[x0:x1].max()):
            k = np.flatnonzero(size[x0:x1] > j)
            rows[k] = np.minimum(rows[k], dist[order[first[x0 + k] + j]])
        c = rows[:, order[first]]
        for j in range(1, size.max()):
            k = np.flatnonzero(size > j)
            c[:, k] = np.minimum(c[:, k], rows[:, order[first[k] + j]])
        yield x0, c


def _primal_certificate(phi: LipschitzMap) -> IsometryCertificate:
    """Quotient criterion: the modulus m (see the module docstring) is at
    least ``1 - REL_TOL``, each d/cbar one rounded quotient, as the dual's
    preimage ratio and the map norm read it, so m never exceeds the norm.

    A point e without preimage gives m = 0 at the first pair of infinite
    cbar, (0, e), or (0, 1) if e is 0. Else lo = min d/c <= m <= the map
    norm: lo >= ``1 - REL_TOL`` decides, and is m once it reaches the norm.
    Only a smaller lo closes c, in O(n^3), and names the first row-major
    pair attaining m.
    """
    img, n, d = np.asarray(phi.image), phi.codomain.n, phi.codomain.dist
    tolerances = {"tol_metric": phi.codomain.tol, "modulus": REL_TOL}
    empty = np.flatnonzero(np.bincount(img, minlength=n) == 0)
    if empty.size:
        modulus, pair = 0.0, (0, int(empty[0]) or 1)
    else:
        modulus = min(float(quotients(d[x0:x0 + len(c)].copy(), c, x0, np.inf).min())
                      for x0, c in _fibre_rows(img, phi.domain.dist, n))
        if modulus < 1.0 - REL_TOL:
            cbar = shortest_path_closure(
                np.concatenate([c for _, c in _fibre_rows(img, phi.domain.dist, n)]))
            q = quotients(d.copy(), cbar, 0, np.inf)
            k = int(np.argmin(q))
            modulus, pair = float(q.flat[k]), divmod(k, n)
    if modulus >= 1.0 - REL_TOL:
        return IsometryCertificate(verdict="isometric", method="primal_quotient",
                                   tolerances=tolerances, modulus=modulus)
    return IsometryCertificate(
        verdict="not_isometric", method="primal_quotient", failing_pair=pair,
        tolerances=tolerances, modulus=modulus,
        notes="the quotient metric exceeds the codomain's distance",
    )


def certify_isometry_dual(phi: LipschitzMap, pairs: Sequence[PointPair] | None = None
                          ) -> IsometryCertificate:
    """The dual (preimage) certificate alone; see :func:`certify_isometry`."""
    return certify_isometry(phi, "dual", pairs)


def certify_isometry_primal(phi: LipschitzMap) -> IsometryCertificate:
    """The primal (quotient) certificate alone; see :func:`certify_isometry`."""
    return certify_isometry(phi, "primal")


def certify_isometry(
    phi: LipschitzMap,
    method: str = "both",
    pairs: Sequence[PointPair] | None = None,
):
    """Run one or both certifiers; with ``both``, the two verdicts must be equal.

    ``pairs`` is only a gate: a set that misses a vertex raises
    :class:`NotNorming` before any verdict, whatever the method, and a
    norming set leaves the certificate as it is without one. A map norm
    above ``1 + REL_TOL`` raises :class:`MapNormExceedsOne`. Every smaller
    norm goes to the certifiers, and bounds each preimage ratio and the
    modulus, which are compared with 1 within ``REL_TOL``. The codomain's
    ``tol``, a distance, decides only which pairs are vertices, which the
    primal never reads, and the certificates report it as ``tol_metric``.
    Disagreement raises :class:`MethodDisagreement` with both certificates
    as dictionaries: an implementation bug, surfaced loudly.
    """
    if method not in ("dual", "primal", "both"):
        raise ValueError(f"unknown certification method {method!r}")
    norm = phi.norm_with_witness()
    if norm.value > 1.0 + REL_TOL:
        raise MapNormExceedsOne(norm.value, norm.witness, REL_TOL)
    if pairs is not None:
        failing = is_norming(phi.codomain, pairs).failing_vertex
        if failing is not None:
            raise NotNorming(failing.as_tuple())
    dual = _dual_certificate(phi, extreme_molecules(phi.codomain)) if method != "primal" else None
    primal = _primal_certificate(phi) if method != "dual" else None
    if method != "both":
        return dual if method == "dual" else primal
    if dual.verdict != primal.verdict:
        raise MethodDisagreement(
            f"certifiers disagree: dual says {dual.verdict}, "
            f"primal says {primal.verdict}",
            {"dual": dual.to_dict(), "primal": primal.to_dict()},
        )
    return AgreementReport(primal.verdict, dual, primal)
