"""Answers do not depend on the unit of distance.

Distances are compared within ``space.tol``, which is relative to the
diameter, and dimensionless quantities (map norms, Lipschitz constants,
face pairings, hull LPs in units of the target's distance) within
``REL_TOL``. Multiplying every distance, or every function value, by a
constant must therefore leave each verdict as it is.
"""

import numpy as np
import pytest
from conftest import scaled

from lipfree.composition import LipschitzMap, certify_isometry
from lipfree.errors import FloorExceedsFunction, FloorNormTooLarge, MapNormExceedsOne
from lipfree.fixtures import (
    line_net,
    random_extension_instance,
    random_one_lipschitz_map,
    random_space,
)
from lipfree.freespace import extreme_molecules, is_extreme_molecule
from lipfree.lipschitz import LipschitzFunction, mcshane_extend
from lipfree.metric_core import REL_TOL, PointPair, validate_space

SPACE_SCALES = (1e-9, 1e-3, 1e3, 1e9)
MAP_SCALES = (1e-12, 1e-6, 1e6, 1e12)


@pytest.mark.parametrize("s", SPACE_SCALES)
def test_lp_vertex_oracle_agrees_with_betweenness_at_every_scale(s):
    rng = np.random.default_rng(90)
    for _ in range(30):
        space = scaled(random_space(rng, int(rng.integers(3, 7))), s)
        vertices = {PointPair(*v) for v in extreme_molecules(space).tolist()}
        for pair in space.pairs():
            assert is_extreme_molecule(space, pair).is_extreme == (pair in vertices), pair


# The decade around REL_TOL itself is left out: there the answer turns
# on the last digits of the two tolerances, by construction.
@pytest.mark.parametrize("gap", (1e-6, 1e-7, 1e-8, 1e-10, 1e-11, 1e-12))
@pytest.mark.parametrize("s", SPACE_SCALES)
def test_near_degenerate_triples_agree(s, gap):
    """d(x, z) + d(z, y) exceeds d(x, y) by gap times the diameter, so
    (x, y) is a vertex exactly when gap is above REL_TOL."""
    rng = np.random.default_rng(91)
    for _ in range(20):
        a, b = rng.uniform(0.1, 1.0, size=2)
        d_xy = (a + b) / (1.0 + gap)
        space = validate_space(s * np.array([[0.0, a, d_xy], [a, 0.0, b], [d_xy, b, 0.0]]))
        pair = PointPair(0, 2)
        vertices = [PointPair(*v) for v in extreme_molecules(space).tolist()]
        assert (pair in vertices) == (gap > REL_TOL)
        assert is_extreme_molecule(space, pair).is_extreme == (gap > REL_TOL)


def _translate_map() -> LipschitzMap:
    """An isometry of line nets whose float distances differ in the last
    bits, so its computed norm is 1 + 4e-16."""
    coords = [0.1, 0.2, 0.4, 0.7]
    return LipschitzMap(line_net(coords), line_net([c + 0.3 for c in coords]), (0, 1, 2, 3))


def _outcome(phi: LipschitzMap):
    try:
        report = certify_isometry(phi, "both")
    except MapNormExceedsOne as exc:
        return type(exc).__name__
    return report.verdict, report.dual.failing_pair, report.primal.failing_pair


@pytest.mark.parametrize("s", MAP_SCALES)
def test_certify_isometry_is_scale_invariant(s):
    rng = np.random.default_rng(92)
    maps = [_translate_map()] + [random_one_lipschitz_map(rng, 6, 5) for _ in range(60)]
    assert _outcome(maps[0]) == ("isometric", None, None)
    for phi in maps:
        assert _outcome(scaled(phi, s)) == _outcome(phi)


@pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))
@pytest.mark.parametrize("rho", (0.5, 1e-3, 1e-6))
@pytest.mark.parametrize("k", (0.25, 4.0, 1000.0))
def test_certifiers_agree_at_every_local_scale(s, rho, k):
    """The vertex (1, 2) at distance rho, far below the diameter, has one
    preimage pair, at distance rho (1 + k REL_TOL): its ratio is one within
    REL_TOL exactly when k < 1, and both certifiers must read it so."""
    far = rho * (1.0 + k * REL_TOL)
    phi = LipschitzMap(validate_space(np.array([[0, 1, 1], [1, 0, far], [1, far, 0]])),
                       validate_space(np.array([[0, 1, 1], [1, 0, rho], [1, rho, 0]])),
                       (0, 1, 2))
    report = certify_isometry(scaled(phi, s), "both")
    assert report.verdict == report.dual.verdict == ("isometric" if k < 1 else "not_isometric")


@pytest.mark.parametrize("s", (1.0,) + MAP_SCALES)
def test_norm_above_one_is_rejected_at_every_scale(s):
    phi = LipschitzMap(line_net([0.0, 1.0, 2.0]), line_net([0.0, 1.0 + 1e-6, 2.0]), (0, 1, 2))
    with pytest.raises(MapNormExceedsOne):
        certify_isometry(scaled(phi, s), "both")


@pytest.mark.parametrize("s", MAP_SCALES)
def test_floor_norm_is_compared_relatively(s):
    """The seeded floors attain the function's norm, so scaling them by
    s keeps them admissible, and raising them by 1e-6 does not."""
    rng = np.random.default_rng(93)
    checked = 0
    for _ in range(60):
        space, subset, f_sub, floor = random_extension_instance(rng, int(rng.integers(3, 8)))
        if floor is None:
            continue
        mcshane_extend(space, subset, s * f_sub,
                       floor=LipschitzFunction(space, s * floor.values, normalize=False))
        with pytest.raises(FloorNormTooLarge):
            mcshane_extend(space, subset, s * f_sub, floor=LipschitzFunction(
                space, (1.0 + 1e-6) * s * floor.values, normalize=False))
        checked += 1
    assert checked > 20


@pytest.mark.parametrize("s", MAP_SCALES)
@pytest.mark.parametrize("excess,admitted", [(1e-12, True), (1e-6, False)])
def test_floor_values_are_compared_relatively(s, excess, admitted):
    """f is s * (0, 1, 1) on {0, 1, 3} of the line {0, 1, 2, 3}, so its
    norm is s; the floor, of norm about s / 2, exceeds it at point 3 by
    s * excess. Values are compared within the norm times space.tol."""
    space = line_net([0.0, 1.0, 2.0, 3.0])
    floor = LipschitzFunction(space, s * np.array([0.0, 0.5, 1.0, 1.0 + excess]),
                              normalize=False)
    if admitted:
        mcshane_extend(space, [0, 1, 3], s * np.array([0.0, 1.0, 1.0]), floor=floor)
    else:
        with pytest.raises(FloorExceedsFunction):
            mcshane_extend(space, [0, 1, 3], s * np.array([0.0, 1.0, 1.0]), floor=floor)
