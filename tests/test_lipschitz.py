import numpy as np
import pytest
from conftest import first_maximum, integer_space, whole_quotients
from hypothesis import given, settings, strategies as st

from lipfree import metric_core
from lipfree.errors import AnchorNotOnNet, NotAnIntervalNet
from lipfree.lipschitz import (
    LipschitzFunction,
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

    def test_a_function_is_read_through_its_values(self, path3):
        # no scalar accessor reads f(-1) from the end of the array
        f = LipschitzFunction(path3, [0.0, 0.5, 2.0])
        assert not callable(f)
        assert f.values.tolist() == [0.0, 0.5, 2.0]

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
    points within distance r + space.tol, 0 when there are none."""
    d, v = f.space.dist, f.values
    slopes = []
    for x in range(f.space.n):
        quotients = [abs(v[y] - v[x]) / d[x, y] for y in range(f.space.n)
                     if 0.0 < d[x, y] <= r + f.space.tol]
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
                              where=d <= r + space.tol, initial=0.0)
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

    def test_the_extension_clears_a_function_below_it(self, path3):
        # 0 has norm 0 <= 1 and lies below (0, 1) on the subset
        ext = mcshane_extend(path3, [0, 1], [0.0, 1.0])
        assert ext.values[2] == 2.0
        assert np.all(ext.values >= 0.0)

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

    def test_re_extending_from_a_wider_subset_changes_nothing(self):
        ext = mcshane_extend(interval_net(4), [0, 2], [0.0, 1.0])
        assert ext.values.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        again = mcshane_extend(interval_net(4), [0, 2, 4], ext.values[[0, 2, 4]])
        assert np.array_equal(ext.values, again.values)

    def test_an_overflowing_extension_is_refused(self, path3):
        # constant 1e308: F(2) = min(0 + 1e308 * 2, -1e308 + 1e308 * 1) overflows
        # in its first term only, and is 0; on the line 0..3, F(3) overflows in both
        assert mcshane_extend(path3, [0, 1], [0.0, -1e308]).values.tolist() == [0.0, -1e308, 0.0]
        line = validate_space([[abs(i - j) for j in range(4)] for i in range(4)])
        with pytest.raises(ValueError, match="extension with constant 1e\\+308 overflows"):
            mcshane_extend(line, [0, 1], [0.0, 1 - 1e308])

    def test_an_overflowing_constant_is_refused(self):
        # 1e308 over a distance of 1/4
        with pytest.raises(ValueError, match="^too large: the Lipschitz constant on the subset "
                                             "overflows$"):
            mcshane_extend(interval_net(4), [0, 1], [0.0, -1e308])

    def test_an_extension_whose_spread_overflows_is_refused(self):
        # the base between -1 and 1: F = (0, -1e308, 1e308) is finite, and
        # its norm's difference F(2) - F(1) is not
        split = validate_space([[0, 1, 1], [1, 0, 2], [1, 2, 0]], labels=["0", "-1", "1"])
        with pytest.raises(ValueError, match="^too large: the extension with constant 1e\\+308 "
                                             "overflows$"):
            mcshane_extend(split, [0, 1], [0.0, -1e308])

    def test_the_two_ends_extend_to_the_line(self):
        ext = mcshane_extend(interval_net(4), [0, 4], [0.0, 1.0])
        assert ext.values.tolist() == [0, 0.25, 0.5, 0.75, 1.0]
        assert lipschitz_norm(ext).value == pytest.approx(1.0)

    @pytest.mark.parametrize("subset, f_sub, reason", [
        ([0, 9], [0.0, 1.0], "point 9 is outside 0..4"),
        ([0, -1], [0.0, 1.0], "point -1 is outside 0..4"),
        ([-1, 2], [0.0, 1.0], "point -1 is outside 0..4"),
        ([0, 10 ** 30], [0.0, 1.0], f"point {10 ** 30} is outside 0..4"),
        ([1, 2], [0.0, 1.0], "subset must contain the base point"),
        ([], [], "subset must contain the base point"),
        ([0, 1], [0.0, 1.0, 2.0], "f_sub must align with subset"),
        # a fraction or nan was once cast, to the point below or to the most negative index
        ([0.5, 1], [0.0, 1.0], "point 0.5 is not an integer"),
        ([0, float("nan")], [0.0, 1.0], "point nan is not an integer"),
        # once refused as an overflow, with constant -inf, or as an overflowing constant
        ([0, 1, 1], [0.0, 1.0, 1.0], "subset repeats point 1"),
        ([0, 1, 1], [0.0, 1.0, 2.0], "subset repeats point 1"),
        # a value past the float range once the base value is subtracted, or not finite
        ([0, 1], [1e308, -1e308], "function values must be finite, also less the base value"),
        ([0, 1], [0.0, float("inf")], "function values must be finite, also less the base value"),
        ([0, 1], [float("nan"), 1.0], "function values must be finite, also less the base value"),
    ], ids=["past_n", "negative", "negative_first", "past_n_huge", "no_base", "empty",
            "misaligned", "fractional", "nan", "repeated", "repeated_unequal", "shift_overflows",
            "inf_value", "nan_base_value"])
    def test_a_subset_or_values_it_cannot_extend_from_are_refused(self, subset, f_sub, reason):
        with pytest.raises(ValueError) as exc:
            mcshane_extend(interval_net(4), subset, f_sub)
        assert str(exc.value) == reason

    @pytest.mark.parametrize("subset, f_sub", [([0, 4], [1.0, 2.0]), ([2, 0, 4], [3.0, -1.0, 5.0]),
                                               ([0, 1], [5e-10, 1.0]), ([0, 1], [-1e300, 1e300])])
    def test_a_base_value_is_subtracted(self, subset, f_sub):
        # bitwise the extension of f_sub less its base value, as a function's is
        net = interval_net(4)
        shifted = np.asarray(f_sub) - f_sub[subset.index(net.base)]
        ext = mcshane_extend(net, subset, f_sub)
        assert np.array_equal(ext.values, mcshane_extend(net, subset, shifted).values)
        assert ext.values[net.base] == 0.0

    def test_a_floor_or_a_tolerance_is_no_argument(self):
        # a floor never changed the extension, which is the largest of its norm
        three = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        for extra in ({"floor": LipschitzFunction(three, np.zeros(3))}, {"tol": 0.6}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                mcshane_extend(three, [0, 2], [0, 2], **extra)
        assert mcshane_extend(three, [0, 2], [0, 2]).values.tolist() == [0, 1, 2]

    def test_subset_must_contain_base(self, path3):
        with pytest.raises(ValueError):
            mcshane_extend(path3, [1, 2], [0.0, 1.0])

    def test_subset_point_outside_the_space_rejected(self):
        # -1 once extended from the last point
        for subset in ([0, -1], [0, 5]):
            with pytest.raises(ValueError, match=r"outside 0\.\.4"):
                mcshane_extend(interval_net(4), subset, [0.0, 1.0])

    def test_sub_lipschitz_norm_rejects_a_point_outside_the_space(self):
        # -1 once read the slope to the last point, and 5 ended in an IndexError
        for subset in ([0, -1], [0, 5]):
            with pytest.raises(ValueError, match=r"outside 0\.\.4"):
                sub_lipschitz_norm(interval_net(4), subset, [0.0, 1.0])

    def test_inf_extension_rejects_a_point_outside_the_space(self):
        # -1 once filled the last point, and 5 ended in an IndexError
        for subset in ([0, -1], [0, 5]):
            with pytest.raises(ValueError, match=r"outside 0\.\.4"):
                inf_extension(interval_net(4), subset, [0.0, 1.0], 1.0)

    def test_one_point_subset(self):
        net = interval_net(4)
        ext = mcshane_extend(net, [0], [0.0])
        assert np.array_equal(ext.values, np.zeros(5))
        assert lipschitz_norm(ext).value == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), size=st.integers(1, 6), floor=st.sampled_from(
    [None, "zero", "scaled"]), k=st.floats(0, 2), shift=st.floats(0, 2))
def test_an_extension_restricts_exactly_keeps_its_norm_and_clears_its_floor(seed, size, floor,
                                                                            k, shift):
    """On a random space, subset and values, mcshane_extend returns an
    extension equal to the values on the subset, of their norm, and above
    the floor, the zero function or a scaled and lowered copy of the plain
    extension, wherever that floor is of no larger norm and lies below
    the values on the subset."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, 7)
    subset = [space.base, *(int(i) for i in rng.permutation(
        [p for p in range(space.n) if p != space.base])[:size - 1])]
    f_sub = rng.normal(size=len(subset)) * space.diameter
    f_sub[0] = 0.0
    L = sub_lipschitz_norm(space, subset, f_sub)
    g = None
    if floor is not None:
        plain = mcshane_extend(space, subset, f_sub)
        values = np.zeros(space.n) if floor == "zero" else k * plain.values - shift * L
        g = LipschitzFunction(space, values)
    ext = mcshane_extend(space, subset, f_sub)
    assert ext.values[subset].tolist() == f_sub.tolist()
    assert lipschitz_norm(ext).value == pytest.approx(L, rel=1e-12, abs=1e-12)
    if (g is not None and lipschitz_norm(g).value <= L * (1 + metric_core.REL_TOL)
            and np.all(g.values[subset] - f_sub <= L * space.tol)):
        assert np.all(ext.values >= g.values - 1e-9 * (L * space.diameter + 1))


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
        # the anchor is matched bitwise: 0.1 + 0.2 is one ulp above 3/10
        with pytest.raises(AnchorNotOnNet):
            peak_function(interval_net(10), 0.1 + 0.2)
        assert peak_function(interval_net(3), 1 / 3).values[1] == 1 / 3 - (1 / 3) ** 2 / 2

    def test_non_interval_rejected(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(NotAnIntervalNet):
            peak_function(tri, 0.0)


class TestIntervalCoordinates:
    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_a_net_is_known_by_construction(self, n):
        # the coordinates interval_net records; the same matrix and labels
        # rebuilt, or a line net holding the same points, are not a net
        net = interval_net(n)
        assert interval_coordinates(net).tolist() == list(net.meta["coords"])
        for space in (validate_space(net.dist, base=0, labels=net.labels),
                      PointedMetricSpace(net.labels, 0, net.dist),
                      line_net(list(net.meta["coords"]))):
            with pytest.raises(NotAnIntervalNet, match="^space was not built by interval_net$"):
                interval_coordinates(space)

    def test_rejects_non_interval(self):
        tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(NotAnIntervalNet):
            interval_coordinates(tri)
