import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipfree.errors import (
    AsymmetricDistance,
    BadBaseIndex,
    DisconnectedGraph,
    MalformedInput,
    NegativeDistance,
    NonzeroSelfDistance,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from lipfree import metric_core
from lipfree.fixtures import circle_geodesic, line_net, random_space, tripod
from lipfree.freespace import extreme_molecules
from lipfree.metric_core import (
    REL_TOL,
    PointedMetricSpace,
    PointPair,
    circle_net,
    from_weighted_graph,
    intermediate_points,
    interval_net,
    shortest_path_closure,
    snowflake,
    validate_space,
)


class TestValidateSpace:
    def test_smallest_valid_space(self):
        space = validate_space([[0, 1], [1, 0]], base=0)
        assert space.n == 2
        assert space.d(0, 1) == 1.0

    @pytest.mark.parametrize("i, j, k", [(0, -1, -1), (-1, 0, -1), (0, 5, 5), (5, -1, 5)])
    def test_distance_to_a_point_outside_the_space_rejected(self, i, j, k):
        # a negative index is no point, and is never read from the end
        net = interval_net(4)
        with pytest.raises(ValueError, match=rf"^point {k} is outside 0\.\.4$"):
            net.d(i, j)
        assert net.d(0, 4) == 1.0

    @pytest.mark.parametrize("k", [10**30, 2**63, -2**63 - 1, -10**30])
    def test_no_integer_overflows_the_range_rule(self, k):
        # each once raised OverflowError while being cast to intp
        net = interval_net(4)
        with pytest.raises(ValueError, match=rf"^point {k} is outside 0\.\.4$"):
            metric_core.point_indices(net, [0, k])
        with pytest.raises(ValueError, match=rf"^point {k} is outside 0\.\.4$"):
            net.d(0, k)

    def test_triangle_violation_reports_witness(self):
        with pytest.raises(TriangleViolation) as exc:
            validate_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert exc.value.witness == (0, 1, 2)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -0.5, -1e-300])
    def test_tol_outside_finite_nonnegatives_refused(self, tol):
        # nan and inf once admitted this d(0, 2) = 5 > 1 + 1, and -0.5 named
        # d[0][0] = 0 as a triangle violation at (0, 0, 0)
        with pytest.raises(ValueError, match=rf"^tol {tol!r} must be finite and at least 0$"):
            validate_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]], tol=tol)
        with pytest.raises(ValueError, match=r"^tol "):
            validate_space([[0, 1], [1, 0]], tol=tol)

    def test_no_option_skips_the_triangle_check(self):
        # an edge list once let any caller skip it, and this d(0, 2) = 5 > 1 + 1
        # was admitted
        assert "edges" not in inspect.signature(validate_space).parameters
        with pytest.raises(TypeError):
            validate_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]], edges=np.array([[0, 1], [1, 2]]))

    def test_caller_array_is_copied(self):
        # a view taken before validation cannot reach the validated space
        a = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        view = a[:]
        space = validate_space(a)
        assert not np.shares_memory(space.dist, a) and a.flags.writeable
        view[0, 2] = view[2, 0] = 50.0
        assert space.d(0, 2) == 2.0 and not space.dist.flags.writeable

    @pytest.mark.parametrize("block", [1, 1 << 17])
    def test_negative_zero_diagonal_survives_admission(self, monkeypatch, block):
        # the pass reads an infinite diagonal while it sums, then restores it bitwise
        monkeypatch.setattr(metric_core, "BLOCK", block)
        d = np.array([[-0.0, 1, 2, 1.5], [1, 0, 1, 1], [2, 1, -0.0, 1.5], [1.5, 1, 1.5, 0]])
        space = validate_space(d)
        assert np.signbit(space.dist.diagonal()).tolist() == [True, False, True, False]
        assert space.vertices.tolist() == [[0, 1], [0, 3], [1, 2], [1, 3], [2, 3]]
        d[0, 2] = d[2, 0] = 3.0  # a violation restores the diagonal before its search
        with pytest.raises(TriangleViolation) as exc:
            validate_space(d)
        assert exc.value.witness == (0, 1, 2)

    def test_several_violations_report_the_first_third_point(self):
        # (0, 2) breaks through 1 (sum 4) and more deeply through 3 (sum 2),
        # and (1, 2) through 3; the witness is the first third point j, not
        # the least detour, then the first pair (i, k) it breaks
        d = [[0, 1, 5, 1], [1, 0, 3, 1.5], [5, 3, 0, 1], [1, 1.5, 1, 0]]
        with pytest.raises(TriangleViolation) as exc:
            validate_space(d)
        assert exc.value.witness == (0, 1, 2)

    def test_path_graph_metric_is_valid(self):
        d = [[abs(i - j) for j in range(4)] for i in range(4)]
        space = validate_space(d)
        assert space.d(0, 3) == 3.0

    @pytest.mark.parametrize("space", [interval_net(7), circle_net(9),
                                       snowflake(interval_net(3), 0.5)])
    def test_diameter_and_tolerance_fixed_at_construction(self, space):
        assert space.diameter == float(space.dist.max())
        assert space.tol == REL_TOL * float(space.dist.max())

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricDistance):
            validate_space([[0, 1], [2, 0]])

    def test_negative_rejected(self):
        with pytest.raises(NegativeDistance):
            validate_space([[0, -1], [-1, 0]])

    def test_distances_whose_sums_overflow_are_malformed(self):
        # 1e308 + 1e308 once overflowed in the triangle check, with a RuntimeWarning
        for build in (lambda: validate_space([[0, 1e308], [1e308, 0]]),
                      lambda: line_net([0.0, 1e308])):
            with pytest.raises(MalformedInput) as exc:
                build()
            assert exc.value.json_path == "metric.d"
            assert exc.value.reason == "1e+308 is too large: sums overflow"
        half = np.finfo(float).max / 2  # twice it is the largest float
        assert validate_space([[0, half], [half, 0]]).diameter == half
        assert line_net([0.0, half]).diameter == half

    def test_nonzero_self_distance_rejected(self):
        with pytest.raises(NonzeroSelfDistance) as exc:
            validate_space([[1, 1], [1, 0]])
        assert exc.value.witness == (0, 0)
        assert str(exc.value) == "d[0][0]=1.0 is not zero"

    def test_zero_distance_rejected(self):
        with pytest.raises(ZeroDistanceDistinctPoints):
            validate_space([[0, 0, 1], [0, 0, 1], [1, 1, 0]])

    def test_bad_base_rejected(self):
        with pytest.raises(BadBaseIndex):
            validate_space([[0, 1], [1, 0]], base=5)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           faults=st.lists(st.sampled_from(["nan", "inf", "negative", "diagonal",
                                            "asymmetric", "zero"]), max_size=3))
    def test_axiom_errors_match_the_entry_by_entry_checks(self, seed, n, faults):
        rng = np.random.default_rng(seed)
        d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
        for fault in faults:
            i, j = (int(v) for v in rng.integers(n, size=2))
            if fault == "diagonal":
                d[i, i] = 1.0
            elif i != j:
                value = {"nan": np.nan, "inf": np.inf, "negative": -1.0,
                         "asymmetric": d[i, j] + 0.5, "zero": 0.0}[fault]
                d[i, j] = value
                if fault != "asymmetric":
                    d[j, i] = value
        want = _entry_by_entry_axioms(d)
        try:
            validate_space(d)
            got = None
        except (NegativeDistance, NonzeroSelfDistance, AsymmetricDistance,
                ZeroDistanceDistinctPoints, TriangleViolation) as exc:
            got = exc
        if want is None:
            assert got is None or isinstance(got, TriangleViolation)
        else:
            assert type(got) is type(want)
            assert repr(vars(got)) == repr(vars(want)) and str(got) == str(want)

    def test_single_point_rejected(self):
        with pytest.raises(MalformedInput) as exc:
            validate_space([[0]])
        assert exc.value.json_path == "metric.d"
        assert "at least two points" in exc.value.reason

    def test_single_point_graph_rejected(self):
        with pytest.raises(MalformedInput) as exc:
            from_weighted_graph(1, [])
        assert exc.value.json_path == "metric.n"
        assert "at least two points" in exc.value.reason

    @pytest.mark.parametrize("d", [[[0, 1, 2], [1, 0, 1]], [0, 1], [[[0]]]])
    def test_non_square_matrix_is_malformed(self, d):
        with pytest.raises(MalformedInput) as exc:
            validate_space(d)
        assert exc.value.json_path == "metric.d"

    def test_label_count_must_match(self):
        with pytest.raises(MalformedInput) as exc:
            validate_space([[0, 1], [1, 0]], labels=["a"])
        assert exc.value.json_path == "labels"

    def test_graph_label_count_must_match(self):
        with pytest.raises(MalformedInput) as exc:
            from_weighted_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], labels=["a", "b"])
        assert exc.value.json_path == "labels"

    def test_graph_label_count_is_checked_before_the_closure(self, monkeypatch):
        def closure(d):
            raise AssertionError("the closure ran before the label count was checked")
        monkeypatch.setattr(metric_core, "shortest_path_closure", closure)
        with pytest.raises(MalformedInput) as exc:
            from_weighted_graph(1024, [(i, i + 1, 1.0) for i in range(1023)], labels=["a", "b"])
        assert (exc.value.json_path, exc.value.reason) == ("labels", "expected 1024 labels, got 2")


class TestFromWeightedGraph:
    def test_unit_triangle(self):
        space = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert all(space.d(i, j) == 1 for i in range(3) for j in range(3) if i != j)

    def test_path_sums(self):
        space = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        assert space.d(0, 2) == 2.0

    def test_tripod_matches_hand_dijkstra(self):
        # hand-run shortest paths on center 0 with three unit legs
        expected = np.array([
            [0, 1, 1, 1],
            [1, 0, 2, 2],
            [1, 2, 0, 2],
            [1, 2, 2, 0],
        ], dtype=float)
        space = from_weighted_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        assert np.array_equal(space.dist, expected)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            from_weighted_graph(4, [(0, 1, 1), (2, 3, 1)])

    def test_nonpositive_weight_rejected(self):
        # a zero weight puts distinct points at distance 0; it was once called negative
        with pytest.raises(ZeroDistanceDistinctPoints) as exc:
            from_weighted_graph(2, [(0, 1, 0.0)])
        assert exc.value.witness == (0, 1)
        for edges in ([(0, 1, -1.0)], [(0, 0, -1.0), (0, 1, 1.0)]):  # a negative loop too
            with pytest.raises(NegativeDistance):
                from_weighted_graph(2, edges)

    @pytest.mark.parametrize("w", [0.0, 2.0])
    def test_a_nonnegative_loop_is_no_edge(self, w):
        # a zero loop was once refused as a negative distance, a positive one ignored
        space = from_weighted_graph(2, [(0, 0, w), (0, 1, 1.0)])
        assert (space.dist.tolist(), space.edges.tolist()) == ([[0, 1], [1, 0]], [[0, 1]])

    def test_overflowing_path_is_malformed(self):
        # d(0, 2) = 2e308 overflows: once a RuntimeWarning, then DisconnectedGraph
        with pytest.raises(MalformedInput) as exc:
            from_weighted_graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
        assert exc.value.json_path == "metric.edges"
        assert exc.value.reason == "a path length overflows"

    def test_huge_edge_never_kept_is_no_overflow(self):
        # parallel edges keep their minimum, so the 1e308 edge takes no part
        space = from_weighted_graph(3, [(0, 1, 1e308), (0, 1, 1.0), (1, 2, 1.0)])
        assert space.dist.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_built_without_validate_space(self, monkeypatch):
        # the closure proves the axioms, so the space never goes through the
        # validator; the full check, run afterwards, admits every one
        def refuse(*args, **kwargs):
            raise AssertionError("validate_space called")

        rng = np.random.default_rng(43)
        with monkeypatch.context() as m:
            m.setattr(metric_core, "validate_space", refuse)
            spaces = [circle_geodesic(n).space for n in range(8, 65, 2)]
            spaces += [tripod(1.0, k).space for k in range(1, 17)]
            spaces += [random_space(rng, int(rng.integers(2, 30)), kind="graph")
                       for _ in range(200)]
        for space in spaces:
            assert space.edges is not None and len(space.labels) == space.n
            validate_space(space.dist, base=space.base, labels=space.labels)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    def test_output_is_exactly_metric(self, n, rnd):
        # shortest-path output must pass validation with zero tolerance
        edges = [(rnd.randrange(v), v, 0.25 + rnd.random()) for v in range(1, n)]
        edges += [(rnd.randrange(n), rnd.randrange(n), 0.25 + rnd.random())
                  for _ in range(n)]
        edges = [(i, j, w) for i, j, w in edges if i != j]
        space = from_weighted_graph(n, edges)
        validate_space(space.dist, tol=0.0)

    def test_closure_of_near_degenerate_graphs_is_within_the_bound(self, monkeypatch):
        # the closure's rounding bound stands in for the triangle pass, so
        # the space is built without a second pass over third points; the
        # full check accepts it, and no defect exceeds the bound
        rng = np.random.default_rng(29)
        spaces = []
        with monkeypatch.context() as m:
            m.setattr(metric_core, "validate_space", None)
            for n in (2, 3, 5, 9, 17, 33):
                w = 0.1 + 0.2  # 0.30000000000000004: sums of such weights tie by an ulp
                edges = [(v - 1, v, float(rng.choice([w, 0.3, 1e-12, 1.0 + 2.0 ** -52])))
                         for v in range(1, n)]
                edges += [(int(u), int(v), float(rng.choice([w, 0.6, 0.9, 1e-12])))
                          for u, v in rng.integers(n, size=(n, 2))]
                spaces.append(from_weighted_graph(n, edges))
        for space in spaces:
            validate_space(space.dist)
            assert triangle_defect(space.dist) <= closure_bound(space.dist)

    def test_closure_of_random_graphs_is_within_the_bound(self):
        rng = np.random.default_rng(31)
        for n in (2, 10, 50, 120, 260, 400):
            edges = [(int(rng.integers(v)), v, float(rng.uniform(0.1, 10.0)))
                     for v in range(1, n)]
            edges += [(int(a), int(b), float(rng.uniform(0.1, 10.0)))
                      for a, b in rng.integers(n, size=(2 * n, 2))]
            d = from_weighted_graph(n, edges).dist
            assert triangle_defect(d) <= closure_bound(d)


def triangle_defect(d):
    """The largest d(x, y) - fl(d(x, z) + d(z, y)) over third points z, one
    row x at a time: the sums through z at [z, y], z = x and z = y left out."""
    n, worst = len(d), -np.inf
    for x in range(n):
        through = d[x, :, None] + d
        through[x] = through[np.arange(n), np.arange(n)] = np.inf
        worst = max(worst, float((d[x] - through.min(axis=0)).max()))
    return worst


def closure_bound(d):
    """gamma(2n + 1) * max(d), the proven bound on a closure's triangle defect."""
    m = (2 * len(d) + 1) * 2.0 ** -53
    return m / (1 - m) * d.max()


class TestLineNet:
    def test_coordinates_in_any_order(self):
        space = line_net([2.0, 0.0, 3.0])
        assert space.dist.tolist() == [[0, 2, 1], [2, 0, 3], [1, 3, 0]]
        assert space.labels == ("2.0", "0.0", "3.0")
        assert space.meta == {"family": "line", "coords": (2.0, 0.0, 3.0)}

    def test_repeated_coordinate_rejected(self):
        # it once built a space whose pair (0, 1) was listed as a vertex
        with pytest.raises(ZeroDistanceDistinctPoints) as exc:
            line_net([0, 0, 1])
        assert exc.value.witness == (0, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(NegativeDistance):
            line_net([0, bad, 1])

    def test_base_and_size_checked(self):
        with pytest.raises(BadBaseIndex):
            line_net([0, 1], base=2)
        with pytest.raises(MalformedInput):
            line_net([0])

    def test_refusals_carry_the_matrix_witness(self):
        # seeded coordinates with repeats, non-finite entries and gaps
        # that overflow, refused as the whole matrix's validation refuses them
        rng = np.random.default_rng(41)
        cases = [[], [[0.0, 1.0], [1.0, 0.0]], [1e308, -1e308, 0.0], [0.0, 5e307, -1.7e308]]
        for _ in range(60):
            c = rng.integers(-4, 5, size=int(rng.integers(2, 9))).astype(float)
            for _ in range(int(rng.integers(0, 3))):
                c[rng.integers(c.size)] = rng.choice([np.nan, np.inf, -np.inf])
            cases.append(c.tolist())

        def refusal(build, *args):
            try:
                build(*args)
            except (MalformedInput, BadBaseIndex, NegativeDistance,
                    ZeroDistanceDistinctPoints) as exc:
                return type(exc), getattr(exc, "witness", None), str(exc)
            return None

        refused = set()
        for c in cases:
            base = int(rng.integers(0, 3))
            with np.errstate(invalid="ignore", over="ignore"):
                d = metric_core.gaps(np.asarray(c, dtype=float))
            want = refusal(validate_space, d, base)
            assert refusal(line_net, c, base) == want, c
            refused.add(want and want[0])
        assert refused == {None, MalformedInput, BadBaseIndex, NegativeDistance,
                           ZeroDistanceDistinctPoints}

    def test_valid_coordinates_skip_the_matrix_checks(self, monkeypatch):
        monkeypatch.setattr(metric_core, "validate_space", None)
        space = line_net([3.0, -1.0, 2.5, 0.0, 2.5 + 1e-12], base=2)
        assert space.base == 2 and space.dist[1, 0] == 4.0


class TestIntervalNet:
    def test_two_points(self):
        net = interval_net(1)
        assert net.n == 2
        assert net.d(0, 1) == 1.0

    def test_quarter_points(self):
        net = interval_net(4)
        assert net.n == 5
        assert net.d(0, 3) == 0.75

    def test_mesh_recorded(self):
        net = interval_net(64)
        assert net.n == 65
        assert net.meta["mesh"] == 1 / 64

    @pytest.mark.parametrize("n", [1, 3, 7, 1024, 2048])
    def test_coordinates_are_exact_quotients(self, n):
        # bitwise k / n, as the labels and the distances read them
        coords = np.array(interval_net(n).meta["coords"])
        exact = np.array([k / n for k in range(n + 1)])
        assert coords.view(np.uint64).tolist() == exact.view(np.uint64).tolist()


class TestCircleNet:
    def test_square(self):
        net = circle_net(4)
        assert net.d(0, 1) == pytest.approx(np.sqrt(2), abs=1e-15)
        assert net.d(0, 2) == pytest.approx(2.0, abs=1e-15)

    def test_equilateral(self):
        net = circle_net(3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert net.d(i, j) == pytest.approx(np.sqrt(3), abs=1e-15)

    def test_hexagon_diameter(self):
        net = circle_net(6)
        assert net.d(0, 3) == pytest.approx(2.0, abs=1e-15)

    def test_is_valid_metric(self):
        for n in (3, 5, 8, 17):
            validate_space(circle_net(n).dist)


class TestSnowflake:
    def test_two_point_root(self):
        space = validate_space([[0, 4], [4, 0]])
        assert snowflake(space, 0.5).d(0, 1) == 2.0

    def test_path_becomes_strict(self):
        path = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        flaked = snowflake(path, 0.5)
        assert flaked.d(0, 2) == pytest.approx(np.sqrt(2))
        # sqrt(2) < 1 + 1, so the middle point is no longer between
        assert intermediate_points(flaked, PointPair(0, 2)) == []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(3, 7), st.floats(0.1, 0.9), st.randoms(use_true_random=False))
    def test_output_is_exactly_metric(self, n, theta, rnd):
        edges = [(rnd.randrange(v), v, 0.5 + rnd.random()) for v in range(1, n)]
        space = from_weighted_graph(n, edges)
        validate_space(snowflake(space, theta).dist, tol=0.0)

    def test_exponent_range_enforced(self):
        space = validate_space([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            snowflake(space, 1.0)


class TestIntermediatePoints:
    def test_path_midpoint(self):
        path = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        assert intermediate_points(path, PointPair(0, 2)) == [1]

    def test_triangle_has_none(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert intermediate_points(tri, PointPair(0, 1)) == []

    def test_interval_endpoints_see_all_interior(self):
        net = interval_net(4)
        assert intermediate_points(net, PointPair(0, 4)) == [1, 2, 3]

    def test_interval_distant_pairs_never_strict(self):
        net = interval_net(8)
        for i in range(9):
            for j in range(i + 2, 9):
                assert intermediate_points(net, PointPair(i, j))

    def test_strictness_matches_exhaustive_scan(self):
        tripod = from_weighted_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        for pair in tripod.pairs():
            brute = [
                z for z in range(4)
                if z not in (pair.x, pair.y)
                and tripod.d(pair.x, z) + tripod.d(z, pair.y)
                <= tripod.d(pair.x, pair.y) + tripod.tol
            ]
            assert intermediate_points(tripod, pair) == brute

    def test_pair_must_be_distinct(self):
        with pytest.raises(ValueError):
            PointPair(1, 1)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -2), (-1, -1)])
    def test_pair_indices_must_be_nonnegative(self, pair):
        with pytest.raises(ValueError, match=">= 0"):
            PointPair(*pair)

    def test_intermediate_points_need_points_of_the_space(self):
        # a negative index once read the last point: (-1, 0) gave [1, 2]
        path = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        assert intermediate_points(path, PointPair(2, 0)) == [1]
        for pair in (PointPair(0, 3), PointPair(5, 1)):
            with pytest.raises(ValueError, match=r"outside 0\.\.2"):
                intermediate_points(path, pair)


def _entry_by_entry_axioms(d):
    """The first axiom error as validate_space reported it before its
    fast path: each class of bad entries in full, in a fixed order."""
    n = len(d)
    for k, bad in enumerate((~np.isfinite(d), d < 0, (d != 0) & np.eye(n, dtype=bool))):
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            if k == 2:  # a nonzero diagonal entry
                return NonzeroSelfDistance(i, float(d[i, i]))
            return NegativeDistance(i, j, float(d[i, j]))
    asym = np.argwhere(d != d.T)
    if asym.size:
        i, j = asym[0]
        return AsymmetricDistance(int(i), int(j), float(d[i, j]), float(d[j, i]))
    zero = np.argwhere((d == 0) & ~np.eye(n, dtype=bool))
    if zero.size:
        return ZeroDistanceDistinctPoints(int(zero[0][0]), int(zero[0][1]))
    return None


def _brute_violation(d, tol):
    """The first third point j, then the first pair (i, k), with
    d(i, k) - (d(i, j) + d(j, k)) > tol, or None."""
    n = len(d)
    for j in range(n):
        for i in range(n):
            for k in range(n):
                if d[i, k] - (d[i, j] + d[j, k]) > tol:
                    return (i, j, k)
    return None


def _brute_detours(d):
    n = len(d)
    out = np.full((n, n), np.inf)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if z not in (x, y):
                    out[x, y] = min(out[x, y], d[x, z] + d[z, y])
    return out


def _reference_closure(d):
    """Textbook Floyd-Warshall, scalar by scalar, in one pass."""
    d = d.copy()
    n = len(d)
    for k in range(n):
        relaxed = d.copy()
        for i in range(n):
            for j in range(n):
                relaxed[i, j] = min(d[i, j], d[i, k] + d[k, j])
        d = relaxed
    return d


def _admission(d):
    """validate_space's refusal witness, or None beside the upper triangle
    of the vertex mask its detour pass keeps."""
    try:
        space = validate_space(d)
    except TriangleViolation as exc:
        return exc.witness, None
    return None, np.triu(space._vertex_mask, k=1)


def _brute_admission(d):
    """The same from the triple loops."""
    tol = REL_TOL * d.max()
    witness = _brute_violation(d, tol)
    return witness, None if witness else np.triu(_brute_detours(d) > d + tol, k=1)


def _same_admission(got, want):
    return got[0] == want[0] and (got[1] is want[1] is None or np.array_equal(got[1], want[1]))


class TestDetours:
    @pytest.mark.parametrize("kind", ["euclidean", "graph", "snowflake"])
    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_matches_triple_loop_bitwise(self, kind, n):
        for seed in range(3):
            d = random_space(np.random.default_rng(seed), n, kind).dist
            assert _same_admission(_admission(d), _brute_admission(d))

    def test_integer_metrics_with_exact_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            d = rng.integers(1, 4, size=(n, n)).astype(float)
            d = np.triu(d, 1) + np.triu(d, 1).T
            assert _same_admission(_admission(d), _brute_admission(d))

    def test_two_points_have_no_detour_between_them(self):
        assert _admission(np.array([[0.0, 1.0], [1.0, 0.0]]))[1].tolist() == [[False, True],
                                                                            [False, False]]

    def test_path_midpoint_is_the_only_tight_detour(self):
        path = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        assert _admission(path.dist)[1].tolist() == [[False, True, False], [False, False, True],
                                                     [False, False, False]]

    # n = 50: 1 and 5 give single rows and, up to the last rows, one third
    # point per block, 2,450 a first row over 49 + 1 third points, 5,007 and
    # 17,500 row blocks of 2 and 7 over all third points, 124,999 a block of
    # 49 rows and a last row; n = 49 is one block there
    @pytest.mark.parametrize("block", [1, 5, 49 * 50, 2 * 50 * 50 + 7, 7 * 50 * 50,
                                       50 ** 3 - 1])
    def test_blocks_straddling_every_boundary(self, monkeypatch, block, brute_blocks):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        for d, want in brute_blocks:
            assert _same_admission(_admission(d), want)

    @pytest.mark.parametrize("block", [1, 5, 49 * 50, 2 * 50 * 50 + 7, 7 * 50 * 50,
                                       50 ** 3 - 1])
    def test_validation_reads_every_row_block(self, monkeypatch, block, brute_blocks):
        # the integer cases, and line metrics broken only in their last
        # rows (by a shortcut) or only through them (a detour)
        cases = [d for d, _ in brute_blocks]
        for n in (3, 49, 50, 51):
            for bent in (2.5, 1.5):
                d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
                d[n - 3, n - 1] = d[n - 1, n - 3] = bent
                cases.append(d)
        monkeypatch.setattr(metric_core, "BLOCK", block)
        for d in cases:
            want = _brute_violation(d, REL_TOL * d.max())
            try:
                validate_space(d)
                got = None
            except TriangleViolation as exc:
                got = exc.witness
            assert got == want

    @pytest.mark.parametrize("block", [1, 5, 49 * 50, 2 * 50 * 50 + 7, 7 * 50 * 50,
                                       50 ** 3 - 1])
    def test_vertex_rows_match_the_brute_detours(self, monkeypatch, block, brute_blocks):
        spaces = [PointedMetricSpace(tuple(map(str, range(len(d)))), 0, shortest_path_closure(d))
                  for d, _ in brute_blocks]
        spaces += [interval_net(49), circle_net(50), line_net([0, 1e-12, 2e-12, 1, 2])]
        monkeypatch.setattr(metric_core, "BLOCK", block)
        for space in spaces:
            d = space.dist
            want = np.argwhere(np.triu(_brute_detours(d) > d + space.tol, k=1))
            assert np.array_equal(extreme_molecules(space), want)


@pytest.fixture(scope="module")
def brute_blocks():
    """Symmetric integer matrices with exact ties, beside their admission
    by triple loops."""
    rng = np.random.default_rng(17)
    cases = []
    for n in (2, 3, 7, 49, 50, 51):
        ties = rng.integers(1, 4, size=(n, n)).astype(float)
        ties = np.triu(ties, 1) + np.triu(ties, 1).T
        cases.append((ties, _brute_admission(ties)))
    return cases


class TestShortestPathClosure:
    def test_matches_reference_floyd_warshall_bitwise(self, monkeypatch):
        # in every row blocking: single rows, blocks of 2-7 rows, one block
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            d = np.full((n, n), np.inf)
            np.fill_diagonal(d, 0.0)
            for _ in range(2 * n):
                i, j = (int(v) for v in rng.integers(n, size=2))
                if i != j:
                    d[i, j] = d[j, i] = min(d[i, j], float(rng.uniform(0.1, 2.0)))
            given, want = d.copy(), _reference_closure(d)
            for block in (1, 20, 2 ** 17):
                monkeypatch.setattr(metric_core, "BLOCK", block)
                closed = shortest_path_closure(d)
                assert np.array_equal(d, given)
                assert np.array_equal(closed, want)
                assert np.array_equal(closed, closed.T)
