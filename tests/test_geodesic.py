import numpy as np
import pytest
from conftest import scaled

from lipfree.composition import LipschitzMap, certify_isometry, identity_map
from lipfree.errors import NoStoredPath, NotStraightPath, RangeNotDense
from lipfree.fixtures import (
    builtin_map,
    circle_geodesic,
    interval_geodesic,
    tripod,
)
from lipfree.geodesic import (
    DiscretizedGeodesicSpace,
    check_geodesic_necessary,
    check_geodesic_sufficient,
    check_interval_necessary,
    check_interval_sufficient,
    inverse_projection,
    straight_path_check,
)
from lipfree.lipschitz import interval_coordinates, lipschitz_norm
from lipfree.metric_core import PointPair, from_weighted_graph, interval_net


class TestStraightPathCheck:
    def test_interval_full_run(self):
        net = interval_net(4)
        ok, defect = straight_path_check(net, (0, 1, 2, 3, 4))
        assert ok and defect == 0.0

    def test_triangle_detour_fails(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        ok, defect = straight_path_check(tri, (0, 1, 2))
        assert not ok
        assert defect == pytest.approx(1.0)  # d(0,2)=1 against arclength 2

    def test_tripod_leaf_to_leaf(self):
        space = tripod().space
        ok, defect = straight_path_check(space, (1, 0, 2))
        assert ok and defect == 0.0


class TestDiscretizedGeodesicSpace:
    def test_mesh_is_largest_step(self):
        gs = circle_geodesic(8)
        assert gs.mesh == pytest.approx(2 * np.pi / 8)

    def test_crooked_path_rejected(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(NotStraightPath):
            DiscretizedGeodesicSpace(tri, {(0, 2): (0, 1, 2)})

    def test_missing_path(self):
        gs = tripod()
        with pytest.raises(NoStoredPath):
            gs.path_for(PointPair(1, 3))

    def test_reversed_lookup(self):
        gs = tripod()
        assert gs.path_for(PointPair(2, 1)) == (2, 0, 1)


class TestInverseProjection:
    def test_interval_gives_the_coordinate(self):
        gs = interval_geodesic(8)
        proj = inverse_projection(gs, PointPair(0, 8))
        assert np.array_equal(proj.function.values, interval_coordinates(gs.space))

    def test_tripod_third_leaf_by_hand(self):
        # min over path points of arclength + distance: 0+2, 1+1, 2+2 -> 2
        proj = inverse_projection(tripod(), PointPair(1, 2))
        assert proj.function.values[3] == 2.0
        assert proj.length == 2.0

    def test_invariants_hold_on_circle(self):
        gs = circle_geodesic(16)
        proj = inverse_projection(gs, PointPair(0, 8))
        assert abs(lipschitz_norm(proj.function).value - 1.0) <= 1e-9
        assert np.array_equal(proj.function.values[list(proj.path)],
                              np.array(proj.cumulative))
        assert np.all((proj.function.values >= 0)
                      & (proj.function.values <= proj.length))


class TestIntervalNecessary:
    def test_identity_has_zero_defect(self):
        report = check_interval_necessary(builtin_map("identity", 64))
        assert report.max_defect == 0.0
        assert report.holds

    def test_non_interval_codomain_rejected(self):
        from lipfree.errors import CodomainNotInterval
        gs = tripod()
        with pytest.raises(CodomainNotInterval):
            check_interval_necessary(identity_map(gs.space))

    def test_halving_flagged(self):
        report = check_interval_necessary(builtin_map("halving", 16))
        assert report.max_defect >= 0.5
        assert not report.holds

    def test_fold_stays_at_mesh_scale(self):
        report = check_interval_necessary(builtin_map("fold", 64))
        assert report.max_defect <= 1 / 64

    def test_rows_expose_profile(self):
        report = check_interval_necessary(builtin_map("identity", 8))
        assert len(report.rows) == 9
        for t, best, defect in report.rows:
            assert defect == 1.0 - best


class TestIntervalSufficient:
    def test_identity_passes_at_mesh_radius(self):
        phi = builtin_map("identity", 16)
        report = check_interval_sufficient(phi, r=1 / 16)
        assert report.predicts_isometric
        assert report.worst_margin == 1.0

    def test_collapse_fails_density(self):
        report = check_interval_sufficient(builtin_map("collapse", 16), r=1 / 4)
        assert not report.density_ok
        assert not report.predicts_isometric

    def test_fold_passes_and_certifier_agrees(self):
        phi = builtin_map("fold", 16)
        report = check_interval_sufficient(phi, r=4 / 16)
        assert report.predicts_isometric
        assert certify_isometry(phi, "both").verdict == "isometric"

    def test_halving_fails_density(self):
        report = check_interval_sufficient(builtin_map("halving", 16), r=4 / 16)
        assert not report.density_ok


def _collapse(space):
    return LipschitzMap(space, space, (space.base,) * space.n)


class TestGeodesicNecessary:
    def test_interval_identity(self):
        gs = interval_geodesic(8)
        report = check_geodesic_necessary(identity_map(gs.space), gs, PointPair(0, 8))
        assert report.max_defect == 0.0

    def test_circle_identity_within_threshold(self):
        gs = circle_geodesic(16)
        report = check_geodesic_necessary(identity_map(gs.space), gs, PointPair(0, 8))
        assert report.max_defect <= report.eps
        assert report.holds

    def test_collapse_reports_full_defect(self):
        gs = circle_geodesic(8)
        phi = LipschitzMap(gs.space, gs.space, (0,) * 8)
        report = check_geodesic_necessary(phi, gs, PointPair(0, 4))
        assert report.max_defect == pytest.approx(1.0)

    @pytest.mark.parametrize("make", [lambda: circle_geodesic(16), lambda: tripod(1.0, 4)],
                             ids=["circle16", "tripod4"])
    def test_collapse_fails_with_default_eps(self, make):
        # the defect is 1 whatever the unit, and eps is 4 * mesh / diameter
        gs = make()
        report = check_geodesic_necessary(_collapse(gs.space), gs,
                                          PointPair(*sorted(gs.paths)[0]))
        assert report.max_defect == 1.0
        assert report.eps == 4.0 * gs.mesh / gs.space.diameter
        assert not report.holds


def _default_verdicts(gs):
    """(eps, holds) of each map's necessary profile and the identity's
    (eps, predicts_isometric), all at the default scales."""
    pair = PointPair(*sorted(gs.paths)[0])
    out = [(p.eps, p.holds) for p in (
        check_geodesic_necessary(make(gs.space), gs, pair) for make in (identity_map, _collapse))]
    sufficient = check_geodesic_sufficient(identity_map(gs.space), gs)
    return out + [(sufficient.eps, sufficient.predicts_isometric)]


class TestDefaultScales:
    @pytest.mark.parametrize("make", [
        lambda: circle_geodesic(16), lambda: circle_geodesic(32), lambda: tripod(1.0, 4),
    ], ids=["circle16", "circle32", "tripod4"])
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
    def test_verdicts_do_not_depend_on_the_unit(self, make, s):
        gs = make()
        unit = _default_verdicts(gs)
        rescaled = _default_verdicts(DiscretizedGeodesicSpace(scaled(gs.space, s), gs.paths))
        for (eps, verdict), (eps_s, verdict_s) in zip(unit, rescaled):
            assert verdict_s == verdict
            assert eps_s == pytest.approx(eps, rel=1e-12, abs=0.0)

    def test_interval_defaults_are_four_meshes(self):
        phi = builtin_map("fold", 16)
        necessary = check_interval_necessary(phi)
        sufficient = check_interval_sufficient(phi)
        assert necessary.r_loc == necessary.eps == sufficient.r == sufficient.eps == 4 / 16


class TestGeodesicSufficient:
    def test_interval_identity_passes(self):
        gs = interval_geodesic(8)
        report = check_geodesic_sufficient(identity_map(gs.space), gs, r=1 / 8)
        assert report.predicts_isometric
        assert certify_isometry(identity_map(gs.space), "both").verdict == "isometric"

    def test_tripod_collapsed_leg_not_dense(self):
        gs = tripod(subdivisions=4)
        image = list(range(gs.space.n))
        for node in range(9, 13):  # third leg onto the center
            image[node] = 0
        phi = LipschitzMap(gs.space, gs.space, tuple(image))
        with pytest.raises(RangeNotDense) as exc:
            check_geodesic_sufficient(phi, gs, r=1.0)
        assert exc.value.worst_point == 12  # the stranded leaf

    def test_circle_identity_passes(self):
        gs = circle_geodesic(16)
        report = check_geodesic_sufficient(identity_map(gs.space), gs, r=gs.mesh)
        assert report.predicts_isometric
        assert report.worst_margin == pytest.approx(1.0)


class TestRefinement:
    @pytest.mark.parametrize("name", ["identity", "fold"])
    def test_defects_never_grow_under_halved_mesh(self, name):
        coarse = check_interval_necessary(builtin_map(name, 8)).max_defect
        fine = check_interval_necessary(builtin_map(name, 16)).max_defect
        assert fine <= coarse + 1e-12


class TestSnowflakeOntoPath:
    def test_straightened_domain_certifies(self):
        # a straight relabeling of the unit interval: x -> x is certified,
        # its snowflake is rejected by the norm precondition upstream
        net = interval_net(4)
        phi = identity_map(net)
        assert certify_isometry(phi, "both").verdict == "isometric"
        report = check_interval_sufficient(phi, r=1 / 4)
        assert report.predicts_isometric
