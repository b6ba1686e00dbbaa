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
from lipfree.errors import MapNormExceedsOne
from lipfree.fixtures import (
    line_net,
    random_extension_instance,
    random_one_lipschitz_map,
    random_space,
)
from lipfree.freespace import extreme_molecules, is_extreme_molecule
from lipfree.lipschitz import mcshane_extend, sub_lipschitz_norm
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
def test_an_extension_clears_its_floor_at_every_scale(s):
    """The seeded floors lie below the function on the subset with no
    larger norm, so with both scaled by s the extension stays above the
    floor, within its norm times space.tol."""
    rng = np.random.default_rng(93)
    checked = 0
    for _ in range(60):
        space, subset, f_sub, floor = random_extension_instance(rng, int(rng.integers(3, 8)))
        if floor is None:
            continue
        ext = mcshane_extend(space, subset, s * f_sub)
        L = sub_lipschitz_norm(space, subset, s * f_sub)
        assert np.all(ext.values >= s * floor.values - L * space.tol)
        checked += 1
    assert checked > 20


@pytest.mark.parametrize("s", SPACE_SCALES)
@pytest.mark.parametrize("scaling", ["values", "distances"])
def test_a_base_value_is_subtracted_at_every_scale(s, scaling):
    """f's base value is a function value, so it is subtracted whatever the
    scale of the values or of the distances, and compared with no distance:
    the extension is bitwise that of f less its base value, and it is the
    line through f's two values. [5e-10, 1.0] and ten times it were once
    admitted and refused."""
    space = line_net([0.0, 0.25 * s, 0.5 * s, 0.75 * s, s] if scaling == "distances"
                     else [0.0, 0.25, 0.5, 0.75, 1.0])
    coords = np.asarray(space.dist[0])
    for f_sub in ([5e-10, 1.0], [5e-9, 10.0], [-0.5, 1.0]):
        f_sub = np.asarray(f_sub) * (s if scaling == "values" else 1.0)
        ext = mcshane_extend(space, [0, 4], f_sub)
        less_base = mcshane_extend(space, [0, 4], f_sub - f_sub[0])
        assert np.array_equal(ext.values, less_base.values)
        line = (f_sub[1] - f_sub[0]) * coords / coords[-1]
        assert ext.values == pytest.approx(line, rel=1e-12, abs=0.0)
