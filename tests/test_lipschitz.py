import tracemalloc

import numpy as np
import pytest
from conftest import first_maximum, integer_space, whole_quotients
from hypothesis import given, settings, strategies as st

from lipfree import metric_core
from lipfree.errors import (
    AnchorNotOnNet,
    FloorExceedsFunction,
    FloorNormTooLarge,
    NotAnIntervalNet,
)
from lipfree.lipschitz import (
    LipschitzFunction,
    clamp_unit,
    inf_extension,
    interval_coordinates,
    lipschitz_norm,
    local_slopes,
    mcshane_extend,
    peak_function,
    pointwise_lip_at_scale,
    quotients,
    sub_lipschitz_norm,
)
from lipfree.fixtures import random_lipschitz_function, random_space
from lipfree.metric_core import (
    PointedMetricSpace,
    from_weighted_graph,
    interval_net,
    line_net,
    validate_space,
)


@pytest.fixture
def path3():
    return from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])


class TestLipschitzNorm:
    def test_distance_function_has_norm_one(self, path3):
        f = LipschitzFunction(path3, path3.dist[:, path3.base])
        value, witness = lipschitz_norm(f)
        assert value == 1.0
        x, y = witness
        assert abs(f.values[x] - f.values[y]) == path3.d(x, y)

    def test_zero_function(self, path3):
        assert lipschitz_norm(LipschitzFunction(path3, np.zeros(3))).value == 0.0

    def test_constant_function_reports_the_first_pair(self, path3):
        # every off-diagonal quotient is 0 and the diagonal's -1 never wins
        assert lipschitz_norm(LipschitzFunction(path3, np.full(3, 2.5))) == (0.0, (0, 1))

    def test_three_point_scan(self):
        net = interval_net(2)
        f = LipschitzFunction(net, [0.0, 0.3, 1.0])
        # exhaustive oracle over the three pairs
        quotients = {
            (i, j): abs(f.values[i] - f.values[j]) / net.d(i, j)
            for i in range(3) for j in range(i + 1, 3)
        }
        assert max(quotients.values()) == pytest.approx(1.4)
        value, witness = lipschitz_norm(f)
        assert value == pytest.approx(1.4)
        assert witness == (1, 2)
        assert quotients[witness] == value

    def test_base_value_subtracted_on_construction(self, path3):
        f = LipschitzFunction(path3, [5.0, 6.0, 7.0])
        assert f.values[path3.base] == 0.0
        assert tuple(f.values) == (0.0, 1.0, 2.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(-4, 4),
    )
    def test_homogeneity(self, values, a):
        space = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        f = LipschitzFunction(space, values)
        lhs = lipschitz_norm(a * f).value
        rhs = abs(a) * lipschitz_norm(f).value
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    )
    def test_subadditivity(self, u, v):
        space = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
        f, g = LipschitzFunction(space, u), LipschitzFunction(space, v)
        assert (
            lipschitz_norm(f + g).value
            <= lipschitz_norm(f).value + lipschitz_norm(g).value + space.tol
        )


class TestPointwiseLipAtScale:
    def test_zero_function(self):
        net = interval_net(10)
        f = LipschitzFunction(net, np.zeros(11))
        assert pointwise_lip_at_scale(f, 3, 0.1) == 0.0

    def test_identity_slope(self):
        net = interval_net(10)
        f = LipschitzFunction(net, interval_coordinates(net))
        assert pointwise_lip_at_scale(f, 5, 0.1) == 1.0

    def test_tent_apex(self):
        net = interval_net(10)
        f = LipschitzFunction(net, np.abs(interval_coordinates(net) - 0.5))
        assert pointwise_lip_at_scale(f, 5, 0.1) == 1.0

    def test_large_scale_bounded_by_norm_with_equality_somewhere(self):
        net = interval_net(6)
        rng = np.random.default_rng(3)
        f = LipschitzFunction(net, rng.normal(size=7))
        norm = lipschitz_norm(f).value
        locals_ = [pointwise_lip_at_scale(f, x, net.diameter) for x in range(7)]
        assert all(v <= norm + 1e-12 for v in locals_)
        assert max(locals_) == pytest.approx(norm)

    def test_rejects_nonpositive_scale(self):
        net = interval_net(2)
        f = LipschitzFunction(net, np.zeros(3))
        with pytest.raises(ValueError):
            pointwise_lip_at_scale(f, 0, 0.0)

    def test_point_outside_the_space_rejected(self):
        # -1 once read the last point's slope, and 5 ended in an IndexError
        f = LipschitzFunction(interval_net(4), [0.0, 0.1, 0.2, 0.3, 0.7])
        assert pointwise_lip_at_scale(f, 4, 0.3) == pytest.approx(1.6)
        for x in (-1, 5):
            with pytest.raises(ValueError, match=r"outside 0\.\.4"):
                pointwise_lip_at_scale(f, x, 0.3)


def _slopes_point_by_point(f, r):
    """The reference: each point's largest quotient against the other
    points within distance r, 0 when there are none."""
    d, v = f.space.dist, f.values
    slopes = []
    for x in range(f.space.n):
        quotients = [abs(v[y] - v[x]) / d[x, y] for y in range(f.space.n)
                     if 0.0 < d[x, y] <= r]
        slopes.append(max(quotients, default=0.0))
    return np.array(slopes)


class TestQuotients:
    def test_divides_in_place_with_minus_one_on_the_diagonal(self, path3):
        num = np.abs(np.subtract.outer([0.0, 0.5, 3.0], [0.0, 0.5, 3.0]))
        q = quotients(num, path3.dist)
        assert q is num
        assert q.tolist() == [[-1.0, 0.5, 1.5], [0.5, -1.0, 2.5], [1.5, 2.5, -1.0]]

    def test_rows_from_an_offset_are_those_rows_of_the_whole(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 5, 9):
            num, den = rng.random((n, n)), rng.random((n, n)) + 0.5
            whole = quotients(num.copy(), den)
            for r0 in range(n):
                for r1 in range(r0 + 1, n + 1):
                    block = quotients(num[r0:r1].copy(), den[r0:r1], r0)
                    assert np.array_equal(block, whole[r0:r1])


def whole_gaps(v):
    return np.abs(np.subtract.outer(v, v))


@pytest.mark.parametrize("block", [1, 7, 64, 2 ** 17])
class TestRowBlockInvariance:
    """Norms and slopes read by row blocks equal their whole-matrix
    references, for every size of block."""

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 5, 8, 13, 40):
            space = integer_space(rng, n)
            yield rng, space, rng.integers(-3, 4, size=n).astype(float)
            cloud = random_space(rng, n)
            yield rng, cloud, random_lipschitz_function(rng, cloud).values

    def test_lipschitz_norm_keeps_the_first_row_major_witness(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        tied = 0
        for _, space, v in self.cases(block):
            f = LipschitzFunction(space, v)
            value, pair, hits = first_maximum(whole_quotients(whole_gaps(f.values), space.dist))
            tied += hits > 2  # more than one unordered pair
            assert tuple(lipschitz_norm(f)) == (value, pair)
        assert tied > 0

    def test_sub_lipschitz_norm(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        for rng, space, v in self.cases(block + 1):
            idx = rng.permutation(space.n)[:int(rng.integers(2, space.n + 1))]
            q = whole_quotients(whole_gaps(v[idx]), space.dist[np.ix_(idx, idx)])
            assert sub_lipschitz_norm(space, idx, v[idx]) == q.max()

    def test_inf_extension(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        for rng, space, v in self.cases(block + 3):
            idx = rng.permutation(space.n)[:int(rng.integers(1, space.n + 1))]
            for constant in (0.5, 1.0, 3.0):
                want = np.min(v[idx, None] + constant * space.dist[idx], axis=0)
                want[idx] = v[idx]
                assert np.array_equal(inf_extension(space, idx, v[idx], constant), want)

    def test_local_slopes_with_isolated_points(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        line = line_net([0.0, 1.0, 1.5, 5.0, 9.0, 9.25, 20.0])  # 5 and 20 lie 3+ from the rest
        on_line = LipschitzFunction(line, [0.0, 1.0, 0.5, 2.0, 1.0, 1.25, 3.0])
        assert local_slopes(on_line, 1.0)[[3, 6]].tolist() == [0.0, 0.0]
        for space, v in [(line, on_line.values)] + [c[1:] for c in self.cases(block + 2)]:
            d = space.dist
            for r in (0.5, 1.0, 2.0, float(np.min(d[d > 0])), space.diameter):
                want = np.max(whole_quotients(whole_gaps(v), d), axis=1,
                              where=d <= r, initial=0.0)
                got = local_slopes(LipschitzFunction(space, v, normalize=False), r)
                assert np.array_equal(got, want)


class TestLocalSlopes:
    @pytest.mark.parametrize("kind", ["euclidean", "graph", "snowflake"])
    def test_equal_to_the_point_by_point_loop(self, kind):
        rng = np.random.default_rng(61)
        for _ in range(40):
            space = random_space(rng, int(rng.integers(2, 12)), kind)
            f = random_lipschitz_function(rng, space)
            for share in (0.2, 0.5, 1.0):
                r = share * space.diameter
                expected = _slopes_point_by_point(f, r)
                assert np.array_equal(local_slopes(f, r), expected)
                x = int(rng.integers(space.n))
                assert pointwise_lip_at_scale(f, x, r) == expected[x]


class TestMcshaneExtend:
    def test_whole_space_is_identity(self, path3):
        values = [0.0, 0.7, 1.1]
        ext = mcshane_extend(path3, [0, 1, 2], values)
        assert np.array_equal(ext.values, values)

    def test_two_term_minimum_by_hand(self, path3):
        # F(2) = min(0 + 1*2, 1 + 1*1) = 2
        ext = mcshane_extend(path3, [0, 1], [0.0, 1.0])
        assert ext.values[2] == 2.0

    def test_inactive_floor_changes_nothing(self, path3):
        floor = LipschitzFunction(path3, np.zeros(3))
        ext = mcshane_extend(path3, [0, 1], [0.0, 1.0], floor=floor)
        assert ext.values[2] == 2.0
        assert np.all(ext.values >= floor.values - path3.tol)

    def test_restriction_is_exact_and_norm_preserved(self):
        rng = np.random.default_rng(11)
        space = from_weighted_graph(6, [(i, i + 1, 1 + i % 2) for i in range(5)])
        subset = [0, 2, 5]
        f_sub = [0.0, 1.3, -2.0]
        ext = mcshane_extend(space, subset, f_sub)
        assert [ext.values[i] for i in subset] == f_sub
        sub_norm = max(
            abs(f_sub[a] - f_sub[b]) / space.d(subset[a], subset[b])
            for a in range(3) for b in range(a + 1, 3)
        )
        assert lipschitz_norm(ext).value == pytest.approx(sub_norm, abs=1e-12)

    def test_idempotent_with_self_floor(self, path3):
        ext = mcshane_extend(path3, [0, 1], [0.0, 1.0])
        again = mcshane_extend(path3, [0, 1], [0.0, 1.0], floor=ext)
        assert np.array_equal(ext.values, again.values)

    def test_floor_norm_too_large(self, path3):
        steep = LipschitzFunction(path3, [0.0, -3.0, -6.0])
        with pytest.raises(FloorNormTooLarge):
            mcshane_extend(path3, [0, 1], [0.0, 1.0], floor=steep)

    def test_floor_above_function(self, path3):
        # norm 0.2 floor sitting above f_sub at point 2
        high = LipschitzFunction(path3, [0.0, 0.2, 0.1], normalize=False)
        with pytest.raises(FloorExceedsFunction) as exc:
            mcshane_extend(path3, [0, 2], [0.0, -0.4], floor=high)
        assert exc.value.witness == 2

    def test_subset_must_contain_base(self, path3):
        with pytest.raises(ValueError):
            mcshane_extend(path3, [1, 2], [0.0, 1.0])

    def test_subset_point_outside_the_space_rejected(self):
        # -1 once extended from the last point
        for subset in ([0, -1], [0, 5]):
            with pytest.raises(ValueError, match=r"outside 0\.\.4"):
                mcshane_extend(interval_net(4), subset, [0.0, 1.0])

    def test_one_point_subset(self):
        net = interval_net(4)
        ext = mcshane_extend(net, [0], [0.0])
        assert np.array_equal(ext.values, np.zeros(5))
        assert lipschitz_norm(ext).value == 0.0
        zero = LipschitzFunction(net, np.zeros(5))
        assert np.array_equal(mcshane_extend(net, [0], [0.0], floor=zero).values, np.zeros(5))
        with pytest.raises(FloorNormTooLarge):
            mcshane_extend(net, [0], [0.0], floor=LipschitzFunction(net, [0.0, 0, 0, 0, 0.1]))

    def test_floor_values_compared_within_the_space_tolerance(self):
        # f = (0, 1, 1) lies 0.5 below the floor (0, 1, 1.5) at point 2;
        # no caller tolerance can excuse that
        line = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        floor = LipschitzFunction(line, [0.0, 1.0, 1.5])
        with pytest.raises(FloorExceedsFunction) as exc:
            mcshane_extend(line, [0, 1, 2], [0.0, 1.0, 1.0], floor=floor)
        assert exc.value.witness == 2
        with pytest.raises(TypeError):
            mcshane_extend(line, [0, 1, 2], [0.0, 1.0, 1.0], floor=floor, tol=0.6)


class TestPeakFunction:
    def test_value_at_far_end(self):
        net = interval_net(4)
        g = peak_function(net, 0.0)
        assert g.values[4] == pytest.approx(0.5)  # integral of 1-s over [0,1]

    def test_vanishes_at_anchor(self):
        net = interval_net(4)
        g = peak_function(net, 0.5)
        assert g.values[2] - g.values[2] == 0.0
        anchored = peak_function(net, 0.0)
        assert anchored.values[0] == 0.0

    def test_norm_at_mesh_scale(self):
        net = interval_net(4)
        g = peak_function(net, 0.0)
        assert lipschitz_norm(g).value == pytest.approx(1 - 1 / 8, abs=1e-15)

    def test_argmax_pairs_hug_the_anchor(self):
        n = 16
        net = interval_net(n)
        g = peak_function(net, 0.5)
        coords = interval_coordinates(net)
        norm = lipschitz_norm(g).value
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                q = abs(g.values[i] - g.values[j]) / net.d(i, j)
                if q >= norm - 1e-12:
                    assert abs(coords[i] - 0.5) <= 1 / n + 1e-12
                    assert abs(coords[j] - 0.5) <= 1 / n + 1e-12

    def test_anchor_must_be_net_point(self):
        with pytest.raises(AnchorNotOnNet):
            peak_function(interval_net(4), 0.3)

    def test_non_interval_rejected(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(NotAnIntervalNet):
            peak_function(tri, 0.0)


class TestClampUnit:
    @pytest.mark.parametrize("value,expected", [(0.5, 0.5), (1.7, 1.0), (-0.3, 0.0)])
    def test_examples(self, value, expected):
        assert clamp_unit(value) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_one_lipschitz(self, a, b):
        assert abs(clamp_unit(a) - clamp_unit(b)) <= abs(a - b)


class TestIntervalCoordinates:
    def test_detects_net_from_labels(self):
        net = interval_net(4)
        rebuilt = validate_space(net.dist, base=0, labels=net.labels)
        assert np.array_equal(interval_coordinates(rebuilt),
                              interval_coordinates(net))

    @pytest.mark.parametrize("labels,detected", [
        ((0, 0.5, 1), True), (("0", "0.5", "1.0"), True),
        ((False, 0.5, True), False), ((0, 0.5, True), False)])
    def test_numeric_labels_are_coordinates_and_booleans_are_not(self, labels, detected):
        space = validate_space(interval_net(2).dist, base=0, labels=labels)
        if detected:
            assert interval_coordinates(space).tolist() == [0.0, 0.5, 1.0]
        else:
            with pytest.raises(NotAnIntervalNet, match="labels do not parse"):
                interval_coordinates(space)

    def test_rejects_non_interval(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(NotAnIntervalNet):
            interval_coordinates(tri)

    @pytest.mark.parametrize("block", [1, 7, 2 ** 17])
    def test_same_decision_as_allclose_at_the_boundary(self, monkeypatch, block):
        # one distance off by 1e-12 within a few ulps, either way: accepted
        # exactly when np.allclose(d, gaps, rtol=0, atol=1e-12) accepts
        monkeypatch.setattr(metric_core, "BLOCK", block)
        net = interval_net(4)
        decisions = set()
        for off in np.linspace(0.999e-12, 1.001e-12, 41):
            for sign in (1.0, -1.0):
                d = net.dist.copy()
                d[2, 3] = d[3, 2] = 0.25 + sign * off
                space = validate_space(d, labels=net.labels)
                close = np.allclose(d, net.dist, rtol=0.0, atol=1e-12)
                decisions.add(close)
                if close:
                    assert interval_coordinates(space).tolist() == list(net.meta["coords"])
                else:
                    with pytest.raises(NotAnIntervalNet, match="line metric"):
                        interval_coordinates(space)
        assert decisions == {True, False}

    def test_file_net_is_checked_one_block_at_a_time(self):
        # a 2,049-point net read from a file has no interval meta; its
        # matrix is 33.6 MB, and a whole-matrix np.allclose peaked at 105 MB
        small, net = interval_net(2), interval_net(2048)
        interval_coordinates(PointedMetricSpace(small.labels, 0, small.dist))  # warm-up
        space = PointedMetricSpace(net.labels, 0, net.dist)
        tracemalloc.start()
        try:
            coords = interval_coordinates(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coords.tolist() == list(net.meta["coords"])
        assert peak < 8 * metric_core.BLOCK + 16 * 8 * space.n  # a block, and O(n) vectors
