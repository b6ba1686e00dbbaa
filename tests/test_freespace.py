import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from lipfree import freespace, metric_core
from lipfree.errors import InvariantFailure, NotZeroSum, SpaceMismatch
from lipfree.fixtures import (
    circle_geodesic,
    line_net,
    random_space,
    random_zero_sum,
    tripod,
)
from lipfree.freespace import (
    ZERO_SUM_REL,
    FreeVector,
    _first_vertex,
    extreme_molecules,
    free_norm_dual,
    free_norm_primal,
    is_extreme_molecule,
    is_norming,
    molecule,
    molecule_distance,
    pairing,
)
from lipfree.lipschitz import LipschitzFunction, lipschitz_norm
from lipfree.metric_core import (
    REL_TOL,
    PointPair,
    circle_net,
    from_weighted_graph,
    intermediate_points,
    interval_net,
    snowflake,
    validate_space,
)


def assert_optimal_plan(mu, flow):
    """The plan ships positive points to negative points, moves exactly
    the vector, costs the returned value, and that value is the dual's."""
    c = mu.coeffs
    moved = np.zeros(c.size)
    for src, dst, mass in flow.plan:
        assert mass > 0 and c[src] > 0 and c[dst] < 0
        moved[src] += mass
        moved[dst] -= mass
    assert np.allclose(moved, c, rtol=0, atol=1e-12 * np.abs(c).sum())
    cost = sum(m * mu.space.d(s, t) for s, t, m in flow.plan)
    assert flow.value == pytest.approx(cost, abs=1e-12)
    assert abs(flow.value - free_norm_dual(mu).value) <= 1e-8 * max(1.0, flow.value)


def integer_graph_vectors():
    # integer weights and masses give many tied costs and empty tree arcs
    rng = np.random.default_rng(17)
    n = 60
    edges = [(int(rng.integers(v)), v, int(rng.integers(1, 4))) for v in range(1, n)]
    edges += [(int(u), int(v), int(rng.integers(1, 4)))
              for u, v in rng.integers(0, n, size=(60, 2)) if u != v]
    space = from_weighted_graph(n, edges)
    for _ in range(5):
        c = rng.integers(-3, 4, size=n).astype(float)
        c[space.base] -= c.sum()
        yield FreeVector(space, c)


def _unit_masses(net, positive):
    c = np.where(positive, 1.0, -1.0)
    c[net.base] -= c.sum()
    return [FreeVector(net, c)]


def alternating_interval_vector():
    net = interval_net(64)
    return _unit_masses(net, np.arange(net.n) % 2 == 0)


def halves_interval_vector():
    net = interval_net(64)
    return _unit_masses(net, np.arange(net.n) < net.n // 2)


def dense_euclidean_vector():
    rng = np.random.default_rng(160)
    pts = rng.normal(size=(160, 2))
    space = validate_space(np.linalg.norm(pts[:, None] - pts[None], axis=-1))
    c = rng.normal(size=space.n)
    return [FreeVector(space, c - c.mean())]


@pytest.fixture
def path3():
    return from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])


class TestFreeVector:
    def test_zero_sum_enforced(self, path3):
        with pytest.raises(NotZeroSum):
            FreeVector(path3, [1.0, 0.0, 0.5])

    def test_point_masses_balance_at_base(self, path3):
        mu = FreeVector.from_point_masses(path3, {2: 1.0, 1: 0.5})
        assert mu.coeffs[path3.base] == -1.5
        assert mu.coeffs.sum() == 0.0

    def test_point_mass_outside_the_space_rejected(self):
        # -1 once put its mass on the last point
        for masses in ({-1: 1.0}, {5: 1.0}):
            with pytest.raises(ValueError, match=r"outside 0\.\.4"):
                FreeVector.from_point_masses(interval_net(4), masses)

    def test_space_mismatch(self, path3):
        other = from_weighted_graph(3, [(0, 1, 2), (1, 2, 2)])
        with pytest.raises(SpaceMismatch):
            FreeVector(path3, [1, -1, 0]) + FreeVector(other, [1, -1, 0])


class TestFreeNormPrimal:
    def test_unnormalized_molecule_costs_distance(self, path3):
        mu = FreeVector(path3, [-1.0, 0.0, 1.0])
        value, plan = free_norm_primal(mu)
        assert value == 2.0
        assert plan == ((2, 0, 1.0),)

    def test_molecule_has_norm_one(self, path3):
        assert free_norm_primal(molecule(path3, 0, 2).to_free_vector()).value == 1.0

    def test_zero_vector(self, path3):
        assert free_norm_primal(FreeVector(path3, np.zeros(3))) == (0.0, ())

    def test_plan_is_a_feasible_transport(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = random_zero_sum(rng, random_space(rng, int(rng.integers(2, 16))))
            assert_optimal_plan(mu, free_norm_primal(mu))

    @pytest.mark.parametrize("vectors", [
        integer_graph_vectors, alternating_interval_vector, halves_interval_vector,
        dense_euclidean_vector,
    ])
    def test_degenerate_and_dense_plans_are_optimal(self, monkeypatch, vectors):
        monkeypatch.setattr(freespace, "_SIMPLEX_CAP", 5_000)
        for mu in vectors():
            assert_optimal_plan(mu, free_norm_primal(mu))

    @pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e13, 1e15, 1e300])
    def test_value_scales_with_the_distance(self, scale):
        # pricing is relative, so neither tiny nor huge units stall the simplex
        two = validate_space([[0.0, scale], [scale, 0.0]])
        assert free_norm_primal(FreeVector(two, [1.0, -1.0])) == (scale, ((0, 1, 1.0),))
        rng = np.random.default_rng(11)
        space = random_space(rng, 12)
        mu = random_zero_sum(rng, space)
        scaled = FreeVector(validate_space(space.dist * scale), mu.coeffs)
        assert free_norm_primal(scaled).value == pytest.approx(
            scale * free_norm_primal(mu).value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale", [1e13, 1e15])
    def test_large_distances_match_the_dual(self, scale):
        mu = FreeVector(validate_space([[0.0, scale], [scale, 0.0]]), [1.0, -1.0])
        assert_optimal_plan(mu, free_norm_primal(mu))

    def test_pivot_cap_is_an_invariant_failure(self, monkeypatch):
        monkeypatch.setattr(freespace, "_SIMPLEX_CAP", 1)
        rng = np.random.default_rng(5)
        mu = random_zero_sum(rng, random_space(rng, 12, "euclidean"))
        with pytest.raises(InvariantFailure):
            free_norm_primal(mu)


class TestFreeNormDual:
    def test_molecule_maximizer_is_certified(self, path3):
        value, maximizer = free_norm_dual(molecule(path3, 0, 2).to_free_vector())
        assert value == pytest.approx(1.0, abs=1e-9)
        assert lipschitz_norm(maximizer).value <= 1 + 1e-9
        assert maximizer.values[path3.base] == 0.0

    def test_zero_vector(self, lp_solves, path3):
        value, maximizer = free_norm_dual(FreeVector(path3, np.zeros(3)))
        assert value == 0.0
        assert maximizer.values.tolist() == [0.0, 0.0, 0.0]
        assert lp_solves == []  # no support, no LP

    def test_opposite_molecules_cancel(self, path3):
        mu = molecule(path3, 0, 2).to_free_vector() + molecule(path3, 2, 0).to_free_vector()
        assert free_norm_dual(mu).value == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_primal_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            space = random_space(rng, int(rng.integers(3, 10)))
            mu = random_zero_sum(rng, space)
            flow = free_norm_primal(mu).value
            lp = free_norm_dual(mu).value
            assert abs(flow - lp) <= 1e-8 * max(1.0, flow)

    def test_pairing_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            space = random_space(rng, 6)
            mu = random_zero_sum(rng, space)
            f = LipschitzFunction(space, rng.normal(size=6))
            bound = lipschitz_norm(f).value * free_norm_primal(mu).value
            assert abs(pairing(f, mu)) <= bound + 1e-8

    def test_one_column_per_support_pair(self, lp_solves):
        # zero-mass points take no part: one transportation LP per vector,
        # with a row per support point and a column per (positive,
        # negative) pair
        rng = np.random.default_rng(31)
        for kind in ("euclidean", "graph", "snowflake"):
            space = random_space(rng, 30, kind)
            for keep in (1.0, 0.4):
                c = random_zero_sum(rng, space).coeffs * (rng.random(30) < keep)
                c[int(np.flatnonzero(c)[0])] -= c.sum()
                mu = FreeVector(space, c)
                solves = len(lp_solves)
                free_norm_dual(mu)
                pos, neg = np.count_nonzero(c > 0), np.count_nonzero(c < 0)
                [solve] = lp_solves[solves:]
                shapes = [s for s in (solve.a_ub, solve.a_eq) if s is not None]
                assert sum(rows for rows, _ in shapes) == pos + neg
                assert {cols for _, cols in shapes} == {pos * neg}

    def test_dense_vector(self):
        # 120 positive and 120 negative masses: 14,400 pairs in one LP
        rng = np.random.default_rng(43)
        space = random_space(rng, 240, "euclidean")
        c = rng.random(240) * np.where(np.arange(240) % 2, -1.0, 1.0)
        c[c > 0] *= -c[c < 0].sum() / c[c > 0].sum()
        mu = FreeVector(space, c)
        flow = free_norm_primal(mu).value
        value, maximizer = free_norm_dual(mu)
        assert abs(value - flow) <= 1e-8 * max(1.0, flow)
        assert lipschitz_norm(maximizer).value <= 1 + 1e-9
        assert abs(pairing(maximizer, mu) - value) <= 1e-12 * value

    @pytest.mark.parametrize("heavier", [1.0, -1.0])
    def test_unbalanced_parts_stay_bounded(self, heavier):
        # one side outweighs the other by almost ZERO_SUM_REL, and the
        # first point on each side carries less mass than that imbalance,
        # so pinning the heavier side's first potential would leave the LP
        # unbounded in exact arithmetic
        rng = np.random.default_rng(37)
        for _ in range(10):
            space = random_space(rng, 12)
            p, q = rng.random(6), rng.random(6)
            p[0] = q[0] = 1e-16
            p, q = p / p.sum(), q / q.sum()
            c = np.concatenate([p, -q])
            c[heavier * c > 0] *= 1 + 1.9 * ZERO_SUM_REL
            mu = FreeVector(space, c)
            assert heavier * c.sum() > 0.5 * ZERO_SUM_REL * np.abs(c).sum()
            flow = free_norm_primal(mu).value
            assert abs(free_norm_dual(mu).value - flow) <= 1e-8 * max(1.0, flow)

    def test_maximizer_off_the_support(self):
        # sparse supports that leave out the base: the c-transform is
        # defined everywhere, vanishes at the base and attains the value
        rng = np.random.default_rng(41)
        for kind in ("euclidean", "graph", "snowflake"):
            for _ in range(8):
                space = random_space(rng, 20, kind)
                c = random_zero_sum(rng, space).coeffs * (rng.random(20) < 0.5)
                c[space.base] = 0.0
                c[int(np.flatnonzero(c)[0])] -= c.sum()
                mu = FreeVector(space, c)
                value, maximizer = free_norm_dual(mu)
                assert maximizer.values[space.base] == 0.0
                assert lipschitz_norm(maximizer).value <= 1 + 1e-9
                assert abs(pairing(maximizer, mu) - value) <= 1e-12 * max(1.0, value)

    @pytest.mark.parametrize("distance, mass", [(1e-20, 1.0), (1e13, 1.0),
                                                (1.0, 1e-12), (1.0, 1e12)])
    def test_value_scales_with_the_distance_and_mass(self, distance, mass):
        # costs and masses are priced relatively, so HiGHS's absolute
        # tolerances neither swamp tiny units nor stall on huge ones
        rng = np.random.default_rng(11)
        space = random_space(rng, 12)
        mu = random_zero_sum(rng, space)
        scaled = FreeVector(validate_space(space.dist * distance), mu.coeffs * mass)
        assert free_norm_dual(scaled).value == pytest.approx(
            distance * mass * free_norm_dual(mu).value, rel=1e-12, abs=0)

    def test_independent_of_the_primal_route(self, monkeypatch):
        def no_primal(*args, **kwargs):
            raise AssertionError("free_norm_dual used the transportation simplex")

        monkeypatch.setattr(freespace, "_transport", no_primal)
        monkeypatch.setattr(freespace, "free_norm_primal", no_primal)
        rng = np.random.default_rng(43)
        mu = random_zero_sum(rng, random_space(rng, 10))
        assert free_norm_dual(mu).value > 0


class TestNormProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(-3, 3), st.integers(0, 10_000))
    def test_homogeneity(self, a, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng, 5)
        mu = random_zero_sum(rng, space)
        lhs = free_norm_primal(a * mu).value
        rhs = abs(a) * free_norm_primal(mu).value
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng, 5)
        mu, nu = random_zero_sum(rng, space), random_zero_sum(rng, space)
        assert (
            free_norm_primal(mu + nu).value
            <= free_norm_primal(mu).value + free_norm_primal(nu).value + 1e-8
        )


class TestMoleculeDistance:
    def test_same_molecule(self, path3):
        m = molecule(path3, 0, 1)
        assert molecule_distance(m, m) == 0.0

    def test_opposite_orientation(self, path3):
        assert molecule_distance(molecule(path3, 0, 1), molecule(path3, 1, 0)) == \
            pytest.approx(2.0, abs=1e-12)

    def test_path_pair_matches_dual_oracle(self, path3):
        diff = molecule(path3, 0, 1).to_free_vector() - \
            molecule(path3, 0, 2).to_free_vector()
        oracle = free_norm_dual(diff).value
        value = molecule_distance(molecule(path3, 0, 1), molecule(path3, 0, 2))
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_space_mismatch(self, path3):
        other = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(SpaceMismatch):
            molecule_distance(molecule(path3, 0, 1), molecule(other, 0, 1))


class TestExtremeMolecules:
    def test_two_point_space(self):
        two = validate_space([[0, 1], [1, 0]])
        assert is_extreme_molecule(two, PointPair(0, 1)).is_extreme
        assert [tuple(v) for v in extreme_molecules(two).tolist()] == [(0, 1)]

    def test_path_long_pair_has_certificate(self, path3):
        result = is_extreme_molecule(path3, PointPair(0, 2))
        assert not result.is_extreme
        support = dict(result.certificate)
        assert support == {(0, 1): pytest.approx(0.5), (1, 2): pytest.approx(0.5)}
        # certificate really reconstructs the molecule
        target = molecule(path3, 0, 2).to_free_vector().coeffs
        rebuilt = sum(
            w * molecule(path3, u, v).to_free_vector().coeffs
            for (u, v), w in result.certificate
        )
        assert np.allclose(rebuilt, target, atol=1e-9)

    def test_triangle_pairs_all_extreme(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        for pair in tri.pairs():
            assert is_extreme_molecule(tri, pair).is_extreme

    def test_interval_net_extremes_are_adjacent(self):
        for n in (1, 2, 5, 8):
            net = interval_net(n)
            assert [tuple(v) for v in extreme_molecules(net).tolist()] == [
                (k, k + 1) for k in range(n)
            ]

    def test_square_keeps_diameters(self):
        net = circle_net(4)
        assert [tuple(v) for v in extreme_molecules(net).tolist()] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_oracle_matches_betweenness_on_random_spaces(self):
        rng = np.random.default_rng(13)
        spaces = [random_space(rng, int(rng.integers(3, 7))) for _ in range(10)]
        spaces += [interval_net(12), circle_net(10), tripod(1.0, 3).space,
                   random_space(rng, 12), random_space(rng, 12)]
        for space in spaces:
            lp_vertices = []
            for pair in space.pairs():
                lp_says = is_extreme_molecule(space, pair).is_extreme
                metric_says = not intermediate_points(space, pair)
                assert lp_says == metric_says
                if lp_says:
                    lp_vertices.append(pair)
            assert [PointPair(*v) for v in extreme_molecules(space).tolist()] == lp_vertices

    def test_enumeration_solves_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("extreme_molecules called linprog")

        monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
        assert len(extreme_molecules(interval_net(64))) == 64

    @pytest.mark.parametrize("factor, is_vertex", [(0.5, False), (2.0, True)])
    def test_betweenness_decided_by_space_tol(self, factor, is_vertex):
        # point 2 sits off the midpoint of the segment [0, 1] so that
        # d(0,2) + d(2,1) - d(0,1) = delta, a multiple of space.tol
        tol = REL_TOL  # the diameter is 1
        delta = factor * tol
        space = validate_space([[0.0, 1.0, 0.5 + delta / 2],
                                [1.0, 0.0, 0.5 + delta / 2],
                                [0.5 + delta / 2, 0.5 + delta / 2, 0.0]])
        assert space.tol == tol
        vertices = [PointPair(*v) for v in extreme_molecules(space).tolist()]
        assert (PointPair(0, 1) in vertices) == is_vertex

    def test_single_pair_outside_the_space_rejected(self, path3):
        # a negative index once read the last point: (-1, 0) said extreme
        # while (2, 0) is not; an index of n or more is refused too
        assert not is_extreme_molecule(path3, PointPair(2, 0)).is_extreme
        with pytest.raises(ValueError, match=">= 0"):
            PointPair(-1, 0)
        for pair in (PointPair(0, 3), PointPair(3, 1)):
            with pytest.raises(ValueError, match=r"outside 0\.\.2"):
                is_extreme_molecule(path3, pair)
            with pytest.raises(ValueError, match=r"outside 0\.\.2"):
                intermediate_points(path3, pair)

    def test_vertex_oracle_never_skips_the_solve(self, lp_solves):
        # the pair's own column is excluded, so no column equals the target:
        # every combination the oracle reports comes from one LP
        net = interval_net(5)
        for pair in net.pairs():
            solves = len(lp_solves)
            result = is_extreme_molecule(net, pair)
            assert len(lp_solves) - solves == (0 if result.is_extreme else 1)
        assert len(lp_solves) == 10  # the 15 pairs less the 5 adjacent ones


class TestFirstVertex:
    def test_first_vertex_past_rows_without_one(self):
        # within the tolerance, every pair in rows 0-2 has a point between
        space = line_net([0, 1e-12, 2e-12, 1, 2])
        assert extreme_molecules(space).tolist() == [[3, 4]]
        assert _first_vertex(space).tolist() == [[3, 4]]

    @pytest.mark.parametrize("block", [1, 5, 49 * 50, 7 * 50 * 50])
    def test_first_rows_of_the_full_list(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        rng = np.random.default_rng(41)
        spaces = [random_space(rng, int(rng.integers(2, 12))) for _ in range(30)]
        for space in spaces + [interval_net(49), circle_net(50)]:
            first = _first_vertex(space)
            assert first.dtype == np.intp
            assert np.array_equal(first, extreme_molecules(space)[:1])


def brute_vertices(space):
    """The vertex pairs from the whole detour tensor d(x, z) + d(z, y)."""
    d = space.dist
    through = d[:, :, None] + d[None, :, :]  # (x, z, y)
    idx = np.arange(space.n)
    through[idx, idx, :] = np.inf  # z = x
    through[:, idx, idx] = np.inf  # z = y
    return np.argwhere(np.triu(through.min(axis=1) > d + space.tol, k=1))


def tangled_graph(rng, n):
    """A connected graph with parallel edges, self-loops, edges longer than
    their shortest path and edges shorter than the space's tolerance."""
    edges = [(int(rng.integers(v)), v, float(rng.uniform(0.5, 2.0))) for v in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = (int(a) for a in rng.integers(n, size=2))
        w = float(rng.choice([rng.uniform(0.5, 2.0), 50.0, 1e-12]))
        edges.append((u, v, w))
        if rng.random() < 0.3:
            edges.append((v, u, w * rng.uniform(0.9, 1.1)))  # a parallel edge
    return from_weighted_graph(n, edges)


def edge_spaces():
    rng = np.random.default_rng(59)
    spaces = [tangled_graph(rng, n) for n in (2, 3, 4, 7, 12, 25, 40, 60)]
    spaces += [random_space(rng, int(rng.integers(2, 30)), "graph") for _ in range(10)]
    spaces += [line_net([0, 1e-12, 2e-12, 1, 2]), line_net([3.0, -1.0, 2.5, 0.0, 2.5 + 1e-12]),
               line_net([5.0, 1.0])]
    spaces += [tripod(1.0, k).space for k in (1, 2, 5, 13)]
    spaces += [circle_geodesic(n).space for n in (4, 6, 16, 34)]
    spaces += [interval_net(m) for m in (1, 2, 3, 8, 31, 64)]
    return spaces


class TestEdgeEnumeration:
    def test_graph_and_line_spaces_record_their_edges(self):
        space = from_weighted_graph(4, [(2, 1, 1.0), (1, 2, 0.5), (3, 3, 1.0), (0, 3, 2.0),
                                        (3, 0, 1.0), (0, 1, 9.0)])
        assert space.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
        assert space.edges.dtype == np.intp and not space.edges.flags.writeable
        assert line_net([2.0, 0.0, 3.0, 1.0]).edges.tolist() == [[0, 2], [0, 3], [1, 3]]
        assert interval_net(3).edges.tolist() == [[0, 1], [1, 2], [2, 3]]
        flake = snowflake(tripod(1.0, 3).space, 0.5)
        for space in (validate_space(space.dist), circle_net(6), flake):
            assert space.edges is None

    # blocks of one edge (block 1), of a few edges (64, 130 and 200 sums
    # over 2-65 points) and of every edge (2**17)
    @pytest.mark.parametrize("block", [1, 64, 130, 200, 1 << 17])
    def test_edges_give_the_brute_vertices(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        for space in edge_spaces():
            assert space.edges is not None
            found = extreme_molecules(space)
            assert found.dtype == np.intp
            assert np.array_equal(found, brute_vertices(space))
            assert np.array_equal(found, extreme_molecules(dataclasses.replace(space, edges=None)))
            assert np.array_equal(_first_vertex(space), found[:1])

    def test_interval_net_never_reads_rows(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("vertex enumeration read detour rows")

        net = interval_net(4096)
        monkeypatch.setattr(freespace, "detour_rows", no_rows)
        tracemalloc.start()
        try:
            found = extreme_molecules(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.tolist() == [[k, k + 1] for k in range(4096)]
        assert _first_vertex(net).tolist() == [[0, 1]]
        assert peak < 8 * 2 ** 20

    def test_snowflake_of_a_tripod_reads_rows(self, monkeypatch):
        rows = []
        real = freespace.detour_rows

        def counted(d, r0, r1):
            rows.extend(range(r0, r1))
            return real(d, r0, r1)

        monkeypatch.setattr(freespace, "detour_rows", counted)
        for k in (1, 3, 6):
            flake = snowflake(tripod(1.0, k).space, 0.6)
            rows.clear()
            found = extreme_molecules(flake)
            assert rows == list(range(flake.n))
            assert np.array_equal(found, brute_vertices(flake))
            assert np.array_equal(_first_vertex(flake), found[:1])


class TestIsNorming:
    def test_all_pairs_always_norming(self, path3):
        assert is_norming(path3, list(path3.pairs())).is_norming

    def test_missing_adjacent_pair_detected(self):
        net = interval_net(2)
        result = is_norming(net, [PointPair(0, 2)])
        assert not result.is_norming
        assert result.failing_vertex.as_tuple() in {(0, 1), (1, 2)}

    def test_extreme_set_is_norming(self):
        net = interval_net(3)
        vertices = [PointPair(*v) for v in extreme_molecules(net).tolist()]
        assert is_norming(net, vertices).is_norming

    @pytest.mark.parametrize("make", [
        lambda: interval_net(16),
        lambda: circle_net(9),
        lambda: tripod(1.0, 4).space,
        lambda: random_space(np.random.default_rng(3), 8),
    ], ids=["interval", "circle", "tripod", "random"])
    def test_every_pair_listed_needs_no_lp(self, lp_solves, make):
        space = make()
        assert is_norming(space, list(space.pairs())).is_norming
        assert lp_solves == []

    def test_unlisted_vertex_needs_no_lp(self, lp_solves):
        result = is_norming(interval_net(2), [PointPair(0, 2)])
        assert result.failing_vertex == PointPair(0, 1)
        assert lp_solves == []

    def test_vertex_listed_in_either_order(self):
        net = interval_net(2)
        assert is_norming(net, [PointPair(1, 0), PointPair(2, 1)]).is_norming

    def test_empty_set_rejected(self, path3):
        with pytest.raises(ValueError):
            is_norming(path3, [])

    @pytest.mark.parametrize("pair", [(0, 3), (-1, 1)])
    def test_pair_outside_the_space_rejected(self, path3, pair):
        # a negative index would otherwise list the pair of the last point;
        # PointPair refuses it, and is_norming an index of n or more
        with pytest.raises(ValueError, match=r"outside 0\.\.2" if min(pair) >= 0 else ">= 0"):
            is_norming(path3, list(path3.pairs()) + [PointPair(*pair)])


class TestMoleculeNormInvariant:
    @pytest.mark.parametrize("make", [
        lambda: interval_net(6),
        lambda: circle_net(7),
        lambda: from_weighted_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]),
    ])
    def test_every_molecule_is_unit(self, make):
        space = make()
        for pair in space.pairs():
            value = free_norm_primal(molecule(space, pair.x, pair.y).to_free_vector()).value
            assert abs(value - 1.0) <= 1e-9
