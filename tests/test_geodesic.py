import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from acceptance_criteria import stretched_circle, stretched_tripod
from conftest import scaled
from hypothesis import given, settings, strategies as st

from lipfree import geodesic, lipschitz, metric_core
from lipfree.composition import LipschitzMap, certify_isometry, identity_map
from lipfree.errors import NoStoredPath, NotStraightPath
from lipfree.fixtures import (
    builtin_map,
    circle_geodesic,
    random_space,
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
)
from lipfree.lipschitz import (
    LipschitzFunction,
    interval_coordinates,
    lipschitz_norm,
    local_slopes,
    quotients,
    sub_lipschitz_norm,
)
from lipfree.metric_core import (
    REL_TOL,
    PointPair,
    from_weighted_graph,
    interval_net,
    validate_space,
)


def near_straight(step, k):
    """The path 0-1-2 in two steps beside a point 3 at distance 1 from
    it, with chord d(0, 2) = 2 step (1 - k REL_TOL): the arclength over the
    chord is 1 + k REL_TOL to first order, at every step size."""
    chord = 2 * step * (1 - k * REL_TOL)
    return validate_space(np.array([[0, step, chord, 1], [step, 0, step, 1],
                                    [chord, step, 0, 1], [1, 1, 1, 0.0]]))


def straightness(space, path):
    """The path's straightness defect, and whether admission takes the
    path, which it does exactly when the defect is within REL_TOL."""
    defect = geodesic._straightness(space, path)[0]
    try:
        DiscretizedGeodesicSpace(space, {(path[0], path[-1]): path})
    except NotStraightPath:
        return defect, False
    return defect, True


class TestStraightPathCheck:
    def test_interval_full_run(self):
        net = interval_net(4)
        defect, admitted = straightness(net, (0, 1, 2, 3, 4))
        assert admitted and defect == 0.0

    def test_triangle_detour_fails(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        defect, admitted = straightness(tri, (0, 1, 2))
        assert not admitted
        assert defect == pytest.approx(1.0)  # d(0,2)=1 against arclength 2

    def test_tripod_leaf_to_leaf(self):
        space = tripod().space
        defect, admitted = straightness(space, (1, 0, 2))
        assert admitted and defect == 0.0

    @pytest.mark.parametrize("step", (1e-1, 1e-3))
    @pytest.mark.parametrize("k", (0.25, 4.0))
    def test_defect_is_a_ratio(self, step, k):
        defect, admitted = straightness(near_straight(step, k), (0, 1, 2))
        assert admitted == (defect <= REL_TOL) == (k < 1)
        assert defect == pytest.approx(k * REL_TOL, rel=1e-3)

    def test_repeated_point_is_rejected_not_nan(self):
        space = validate_space(np.array([[0, 1, 2, 1.5], [1, 0, 1, 1],
                                         [2, 1, 0, 1.5], [1.5, 1, 1.5, 0]]))
        with pytest.raises(ValueError, match="repeat"):
            geodesic._straightness(space, (0, 1, 1, 2))
        with pytest.raises(ValueError, match="repeat"):
            DiscretizedGeodesicSpace(space, {(0, 2): (0, 1, 1, 2)})


    def test_point_outside_the_space_rejected(self):
        # -1 once read the last point, so the path (0, -1) passed
        net = interval_net(4)
        for path in ((0, -1), (0, 5)):
            with pytest.raises(ValueError, match=r"outside 0\.\.4"):
                geodesic._straightness(net, path)
        with pytest.raises(ValueError, match=r"outside 0\.\.4"):
            DiscretizedGeodesicSpace(net, {(0, -1): (0, 1, 2, 3, -1)})


class TestDiscretizedGeodesicSpace:
    def test_mesh_is_largest_step(self):
        gs = circle_geodesic(8)
        assert gs.mesh == pytest.approx(2 * np.pi / 8)

    def test_crooked_path_rejected(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(NotStraightPath):
            DiscretizedGeodesicSpace(tri, {(0, 2): (0, 1, 2)})

    @pytest.mark.parametrize("step", (1e-1, 1e-3))
    @pytest.mark.parametrize("k", (0.25, 4.0))
    def test_admitted_paths_project_with_their_invariants(self, step, k):
        """A path is admitted exactly when its inverse projection can meet
        its own norm check, which admission runs and would otherwise
        refuse with InvariantFailure."""
        space = near_straight(step, k)
        if k > 1:
            with pytest.raises(NotStraightPath):
                DiscretizedGeodesicSpace(space, {(0, 2): (0, 1, 2)})
            return
        gs = DiscretizedGeodesicSpace(space, {(0, 2): (0, 1, 2)})
        proj = inverse_projection(gs, PointPair(0, 2))
        assert abs(lipschitz_norm(proj).value - 1.0) <= REL_TOL

    @pytest.mark.parametrize("path", [(), (1,), (1, 1), (1, 0, 1)])
    def test_short_or_repeating_path_refused_before_its_endpoints_are_read(self, path):
        # the empty path once ended in an IndexError
        with pytest.raises(ValueError, match="^a path needs at least two points and must not"):
            DiscretizedGeodesicSpace(tripod().space, {(1, 1): path})

    def test_missing_path(self):
        gs = tripod()
        with pytest.raises(NoStoredPath):
            inverse_projection(gs, PointPair(1, 3))

    def test_a_reversed_pair_is_no_stored_path(self):
        # the tripod stores (1, 2) alone; its reverse is a pair of its own
        gs = tripod()
        assert list(gs.paths) == [(1, 2)]
        with pytest.raises(NoStoredPath, match=r"pair \(2, 1\)$"):
            inverse_projection(gs, PointPair(2, 1))
        with pytest.raises(NoStoredPath):
            check_geodesic_necessary(identity_map(gs.space), gs, PointPair(2, 1))


class TestInverseProjection:
    def test_interval_gives_the_coordinate(self):
        gs = interval_geodesic(8)
        proj = inverse_projection(gs, PointPair(0, 8))
        assert np.array_equal(proj.values, interval_coordinates(gs.space))

    def test_tripod_third_leaf_by_hand(self):
        # min over path points of arclength + distance: 0+2, 1+1, 2+2 -> 2
        gs = tripod()
        proj = inverse_projection(gs, PointPair(1, 2))
        assert proj.values[3] == 2.0
        assert proj.values[gs.paths[1, 2][-1]] == 2.0  # the path length

    def test_invariants_hold_on_circle(self):
        gs = circle_geodesic(16)
        path = list(gs.paths[0, 8])
        arclength = np.concatenate([[0.0], np.cumsum(gs.space.dist[path[:-1], path[1:]])])
        proj = inverse_projection(gs, PointPair(0, 8))
        assert abs(lipschitz_norm(proj).value - 1.0) <= 1e-9
        assert np.array_equal(proj.values[path], arclength)
        assert np.all((proj.values >= 0) & (proj.values <= arclength[-1]))

    def test_one_extension_per_path_for_both_checks(self, monkeypatch):
        # two stored paths on a tripod: admission extends each once, and
        # each check reads both projections without extending again
        base = tripod(1.0, 3)
        extensions = []
        real = geodesic.inf_extension

        def counted(*args):
            extensions.append(args)
            return real(*args)

        monkeypatch.setattr(geodesic, "inf_extension", counted)
        gs = DiscretizedGeodesicSpace(base.space, {**base.paths, (6, 9): (6, 5, 4, 0, 7, 8, 9)})
        assert [args[1] for args in extensions] == list(gs.paths.values())
        phi = identity_map(gs.space)
        for x, y in sorted(gs.paths):
            assert check_geodesic_necessary(phi, gs, PointPair(x, y)).holds
        assert check_geodesic_sufficient(phi, gs).predicts_isometric
        proj = inverse_projection(gs, PointPair(6, 9))
        assert proj is inverse_projection(gs, PointPair(6, 9)) is gs.projections[6, 9]
        assert len(extensions) == 2


    def test_projected_space_is_freed_by_reference_counting(self):
        # a stored projection holds no reference back to its geodesic space
        gs = circle_geodesic(8)
        inverse_projection(gs, PointPair(*sorted(gs.paths)[0]))
        ref = weakref.ref(gs)
        gc.disable()
        try:
            del gs
            assert ref() is None
        finally:
            gc.enable()


class TestIntervalNecessary:
    def test_identity_has_zero_defect(self):
        report = check_interval_necessary(builtin_map("identity", 64))
        assert report.max_defect == 0.0
        assert report.holds

    def test_non_interval_codomain_rejected(self):
        from lipfree.errors import NotAnIntervalNet
        gs = tripod()
        for check in (check_interval_necessary, check_interval_sufficient):
            with pytest.raises(NotAnIntervalNet):
                check(identity_map(gs.space))

    def test_halving_flagged(self):
        report = check_interval_necessary(builtin_map("halving", 16))
        assert report.max_defect >= 0.5
        assert not report.holds

    def test_fold_stays_at_mesh_scale(self):
        report = check_interval_necessary(builtin_map("fold", 64))
        assert report.max_defect <= 1 / 64

    def test_single_selected_point_reads_ratio_zero(self):
        # below the mesh each target selects only its own point, which has
        # no partner: the best ratio is 0, never the quotient diagonal's -1
        coords = interval_coordinates(interval_net(8))
        report = geodesic._defect_profile("interval_necessary", builtin_map("identity", 8),
                                          coords, coords.tolist(), 1e-3 / 4, {})
        assert [row[1:] for row in report.rows] == [(0.0, 1.0)] * 9

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

    @pytest.mark.parametrize("name, n", [("identity", 3), ("fold", 9)])
    def test_a_neighbour_one_mesh_away_counts_within_the_tolerance(self, name, n):
        # 1 - 2/3 rounds above 1.0/3, and 5/9 - 4/9 above 1.0/9, so a radius
        # of exactly one mesh once dropped that neighbour's slope
        report = check_interval_sufficient(builtin_map(name, n), r=1 / n)
        assert report.predicts_isometric
        assert report.worst_margin == pytest.approx(1.0)

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

    @pytest.mark.parametrize("mesh", [1, 2, 4])
    def test_coarse_interval_default_eps_is_capped(self, mesh):
        # 4 * mesh reaches 1 here, and a defect never exceeds 1
        collapse, identity = builtin_map("collapse", mesh), builtin_map("identity", mesh)
        necessary = check_interval_necessary(collapse)
        sufficient = check_interval_sufficient(collapse)
        assert necessary.eps == sufficient.eps == 0.5
        assert not necessary.holds and not sufficient.predicts_isometric
        assert check_interval_necessary(identity).holds
        assert check_interval_sufficient(identity).predicts_isometric

    @pytest.mark.parametrize("make", [
        lambda: circle_geodesic(8), lambda: tripod(1.0, 2), lambda: tripod(1.0, 1),
    ], ids=["circle8", "tripod2", "tripod1"])
    def test_coarse_geodesic_default_eps_is_capped(self, make):
        gs = make()
        pair = PointPair(*sorted(gs.paths)[0])
        necessary = check_geodesic_necessary(_collapse(gs.space), gs, pair)
        sufficient = check_geodesic_sufficient(_collapse(gs.space), gs)
        assert necessary.eps == sufficient.eps == 0.5
        assert not necessary.holds and not sufficient.predicts_isometric
        assert check_geodesic_necessary(identity_map(gs.space), gs, pair).holds
        assert check_geodesic_sufficient(identity_map(gs.space), gs).predicts_isometric

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
        report = check_geodesic_sufficient(phi, gs, r=1.0)
        assert report.density_ok is False
        assert report.extra["worst_point"] == 12  # the stranded leaf
        assert report.predicts_isometric is False

    def test_circle_identity_passes(self):
        gs = circle_geodesic(16)
        report = check_geodesic_sufficient(identity_map(gs.space), gs, r=gs.mesh)
        assert report.predicts_isometric
        assert report.worst_margin == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [16, 32, 64, 256])
    def test_stretched_circle_is_not_isometric(self, n):
        phi, _ = stretched_circle(n)
        cert = certify_isometry(phi, "both")
        assert cert.verdict == "not_isometric"
        assert cert.primal.modulus == 0.5

    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_stretched_circle_is_not_predicted_isometric(self, n):
        # eps < 1/2 from n = 32 on, below the modulus's shortfall; a point
        # on the stretched half reads its own margin, not that of the point
        # across the circle with the same projected value
        phi, gs = stretched_circle(n)
        report = check_geodesic_sufficient(phi, gs)
        assert report.eps < 0.5
        assert report.predicts_isometric is False
        assert report.worst_margin == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [8, 16, 64])
    def test_stretched_tripod_is_not_isometric_nor_predicted(self, k):
        # eps is 2/k < 1/2 from k = 8 on, below the modulus's shortfall
        phi, gs = stretched_tripod(k)
        cert = certify_isometry(phi, "both")
        assert cert.verdict == "not_isometric"
        assert cert.primal.modulus == 0.5
        report = check_geodesic_sufficient(phi, gs)
        assert report.eps < 0.5
        assert report.predicts_isometric is False
        assert report.worst_margin == pytest.approx(0.5)


@pytest.mark.parametrize("block", [1, 7, 64, 2 ** 17])
def test_cover_read_by_row_blocks_is_the_whole_minimum(monkeypatch, block):
    rng = np.random.default_rng(block)
    cases = [tripod(1.0, 4), circle_geodesic(16), interval_geodesic(9), tripod(2.0, 1)]
    monkeypatch.setattr(metric_core, "BLOCK", block)
    for gs in cases:
        n = gs.space.n
        for img in [np.arange(n), np.zeros(n, dtype=int), rng.integers(n, size=n) * (
                np.arange(n) > 0), np.minimum(np.arange(n), n // 2)]:  # the base maps to 0
            phi = LipschitzMap(gs.space, gs.space, tuple(int(v) for v in img))
            cover = gs.space.dist[:, img].min(axis=1)
            report = check_geodesic_sufficient(phi, gs)
            assert report.max_gap == cover.max()
            if not report.density_ok:
                assert report.extra["worst_point"] == np.argmax(cover)


def test_geodesic_checks_hold_no_space_sized_matrix():
    # a 1,025-point geodesic space, whose N x N float matrix is 8.4 MB:
    # the cover, and the inverse projection's extension on admission, read
    # it by row blocks
    gs = interval_geodesic(1024)
    pair = PointPair(0, 1024)
    checks = {"necessary": lambda phi, g: check_geodesic_necessary(phi, g, pair),
              "sufficient": check_geodesic_sufficient}
    peaks = {}
    tracemalloc.start()
    try:
        for name, check in checks.items():
            phi = identity_map(gs.space)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            check(phi, DiscretizedGeodesicSpace(gs.space, gs.paths))  # admission projects
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 6 * 2 ** 20, peaks


def test_path_admission_and_projection_read_one_block_at_a_time():
    # a map file into interval_net(2048) is checked on its one stored path,
    # whose path-by-path matrices would be 33.6 MB each: admission and
    # projection hold a few row blocks and O(n) vectors
    n = 2048
    net, small = interval_net(n), interval_net(2)
    DiscretizedGeodesicSpace(small, {(0, 2): (0, 1, 2)})  # admission projects
    tracemalloc.start()
    try:
        gs = DiscretizedGeodesicSpace(net, {(0, n): tuple(range(n + 1))})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(inverse_projection(gs, PointPair(0, n)).values, net.meta["coords"])
    assert peak < 4 * 8 * metric_core.BLOCK + 16 * 8 * net.n, peak


@pytest.mark.parametrize("block", [1, 7, 64, 2 ** 17])
def test_straightness_defect_read_by_row_blocks_is_the_whole_maximum(monkeypatch, block):
    rng = np.random.default_rng(block)
    monkeypatch.setattr(metric_core, "BLOCK", block)
    for space in [tripod(1.0, 4).space, circle_geodesic(16).space, interval_net(9),
                  near_straight(1e-3, 4.0), random_space(rng, 12)]:
        for _ in range(5):
            pts = rng.permutation(space.n)[:rng.integers(2, space.n + 1)]
            cum = np.concatenate([[0.0], np.cumsum(space.dist[pts[:-1], pts[1:]])])
            ratios = quotients(np.abs(np.subtract.outer(cum, cum)), space.dist[np.ix_(pts, pts)])
            np.fill_diagonal(ratios, 1.0)
            assert geodesic._straightness(space, pts)[0] == np.max(np.abs(ratios - 1.0))


def test_projection_reads_the_path_constant_kept_on_admission(monkeypatch):
    # the arclength's constant on a path is the largest of the straightness
    # ratios, so projecting makes no second pairwise pass over the path
    builders = [lambda: circle_geodesic(16), lambda: tripod(1.0, 3), lambda: interval_geodesic(8),
                lambda: DiscretizedGeodesicSpace(near_straight(1e-3, 0.25), {(0, 2): (0, 1, 2)})]
    for build in builders:
        gs = build()
        for pts in gs.paths.values():
            cum = np.concatenate([[0.0], np.cumsum(gs.space.dist[pts[:-1], pts[1:]])])
            assert geodesic._straightness(gs.space, pts)[1] == sub_lipschitz_norm(
                gs.space, pts, cum)

    def boom(*args):
        raise AssertionError("sub_lipschitz_norm ran")

    monkeypatch.setattr(lipschitz, "sub_lipschitz_norm", boom)
    monkeypatch.setattr(geodesic, "sub_lipschitz_norm", boom, raising=False)
    for build in builders:
        gs = build()  # admission projects every stored path
        phi = identity_map(gs.space)
        for x, y in sorted(gs.paths):
            assert check_geodesic_necessary(phi, gs, PointPair(x, y)).holds
        report = check_geodesic_sufficient(phi, gs)
        if build is builders[-1]:
            # point 3 lies 1 from every other point, 250 radii at r = 0.004,
            # so no slope at scale r vouches for it
            assert not report.predicts_isometric
            assert report.rows[3] == (3, 0.0)
        else:
            assert report.predicts_isometric


def _without_path(report):
    """A report's fields but its kind and the path fields of ``extra``."""
    fields = {**report.to_dict()}
    del fields["kind"]
    fields["extra"] = {k: v for k, v in fields["extra"].items()
                       if k not in ("pair", "path_length", "paths")}
    return fields


@pytest.mark.parametrize("name", ["identity", "fold", "halving", "collapse"])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
def test_interval_checks_are_the_geodesic_checks(name, n):
    # on an interval net the one path 0..n projects to the coordinate, and at
    # these meshes its sums of steps are the targets k/n exactly
    phi = builtin_map(name, n)
    m = phi.codomain.n - 1
    gs = DiscretizedGeodesicSpace(phi.codomain, {(0, m): range(m + 1)})
    assert _without_path(check_interval_necessary(phi)) == _without_path(
        check_geodesic_necessary(phi, gs, PointPair(0, m)))
    for r in (None, 1 / n, 3 / n):
        assert _without_path(check_interval_sufficient(phi, r)) == _without_path(
            check_geodesic_sufficient(phi, gs, r))


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


def _loop_profile_rows(values, num, dist, grid, r_loc):
    """Per target, the selection by a full comparison and its ratio block
    by np.ix_: the reference for the sorted windows."""
    ratios = quotients(num.copy(), dist)
    rows = []
    for t in map(float, grid):
        sel = np.flatnonzero(np.abs(values - t) <= r_loc)
        best = float(ratios[np.ix_(sel, sel)].max(initial=0.0))
        rows.append((t, best, 1.0 - best))
    return rows


def _loop_margins(phi, projections, r):
    """Per attained codomain point, the largest local slope over its fibre
    and the projections, by a loop over the points: the reference for the
    fibre maxima."""
    img = np.asarray(phi.image)
    slopes = [local_slopes(LipschitzFunction(phi.domain, p[img], normalize=False), r)
              for p in projections]
    return [(z, max(float(s[img == z].max()) for s in slopes)) for z in sorted(set(phi.image))]


def _tied_values(rng, n):
    """Values on a coarse grid of step 1/4, so that many points tie."""
    return rng.integers(0, max(2, n // 2), size=n) / 4.0


class TestSortedWindowOracle:
    """The window-based profile and the fibre margins against loops."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14),
           r=st.sampled_from([0.0, 0.125, 0.25, 0.6, 3.0]))
    def test_profile(self, seed, n, r):
        rng = np.random.default_rng(seed)
        domain = random_space(rng, n)
        values = _tied_values(rng, n)
        table = np.abs(values[:, None] - values[None, :])
        grid = np.concatenate([values, rng.uniform(-1.0, 4.0, size=4), [-9.0, 9.0]])
        got = geodesic._defect_profile("oracle", identity_map(domain), values,
                                       grid, r / 4, {})  # at radius 4 * mesh
        assert list(got.rows) == _loop_profile_rows(values, table, domain.dist, grid, r)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14), m=st.integers(2, 8),
           paths=st.integers(1, 3), r=st.sampled_from([0.1, 0.5, 2.0]))
    def test_margins(self, seed, n, m, paths, r):
        rng = np.random.default_rng(seed)
        domain, codomain = random_space(rng, n), random_space(rng, m)
        image = rng.integers(m, size=n)
        image[domain.base] = codomain.base
        phi = LipschitzMap(domain, codomain, tuple(image.tolist()))
        projections = [_tied_values(rng, m) for _ in range(paths)]
        got = geodesic._sufficiency("oracle", phi, projections, 0.25, r, {})
        want = _loop_margins(phi, projections, r)
        assert list(got.rows) == want
        assert got.worst_margin == min(margin for _, margin in want)

    def test_windows_of_zero_one_and_two_points(self):
        domain = validate_space(np.array([[0, 1, 2, 3], [1, 0, 1, 2],
                                          [2, 1, 0, 1], [3, 2, 1, 0.0]]))
        values = np.array([2.0, 0.5, 0.0, 0.5])
        grid = [-5.0, 0.0, 0.5, 2.0, 10.0]
        order, lo, hi = geodesic._windows(values, grid, 0.0)
        assert (hi - lo).tolist() == [0, 1, 2, 1, 0]
        assert sorted(order[lo[2]:hi[2]].tolist()) == [1, 3]
        table = np.abs(values[:, None] - values[None, :])
        got = geodesic._defect_profile("oracle", identity_map(domain), values,
                                       grid, 0.0, {})
        assert list(got.rows) == _loop_profile_rows(values, table, domain.dist, grid, 0.0)
        assert [row[1] for row in got.rows] == [0.0] * 5  # the tied pair has ratio 0

    @pytest.mark.parametrize("name", ["identity", "fold", "halving", "collapse"])
    @pytest.mark.parametrize("mesh", [1, 2, 5, 16])
    def test_interval_profile_matches_the_loop(self, name, mesh):
        phi = builtin_map(name, mesh)
        coords = interval_coordinates(phi.codomain)
        img = np.asarray(phi.image)
        for r in (None, 0.0, 0.5 / mesh, 3.0 / mesh, 2.0):
            report = check_interval_necessary(phi) if r is None else geodesic._defect_profile(
                "interval_necessary", phi, coords, coords.tolist(), r / 4, {})
            assert list(report.rows) == _loop_profile_rows(
                coords[img], phi.codomain.dist[np.ix_(img, img)], phi.domain.dist,
                coords, report.r_loc)

    @pytest.mark.parametrize("block", [1, 3, 50])
    def test_chunks_change_no_report(self, monkeypatch, block):
        gs = tripod(1.0, 3)
        tripod_map = identity_map(gs.space)
        maps = [builtin_map("fold", 6), builtin_map("collapse", 5), builtin_map("halving", 4)]

        def reports():
            out = [check_interval_necessary(phi).to_dict() for phi in maps]
            out += [check_interval_sufficient(phi).to_dict() for phi in maps]
            out += [check_geodesic_necessary(tripod_map, gs, PointPair(*pair)).to_dict()
                    for pair in gs.paths]
            return out + [check_geodesic_sufficient(tripod_map, gs).to_dict()]

        want = reports()
        monkeypatch.setattr(metric_core, "BLOCK", block)
        assert reports() == want
