import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from conftest import first_maximum, integer_space, whole_quotients
from hypothesis import given, settings, strategies as st

from lipfree import composition, fixtures, metric_core
from lipfree.composition import (
    IsometryCertificate,
    LipschitzMap,
    certify_isometry,
    certify_isometry_dual,
    certify_isometry_primal,
    compose,
    compose_maps,
    identity_map,
    operator_norm,
    push_forward,
)
from lipfree.errors import (
    BasePointNotPreserved,
    InputError,
    MapNormExceedsOne,
    NotNorming,
    SpaceMismatch,
)
from lipfree.fixtures import builtin_map, circle_geodesic, interval_geodesic, line_net, \
    random_lipschitz_function, random_one_lipschitz_map, random_space, tripod
from lipfree.freespace import FreeVector, extreme_molecules, molecule, pairing
from lipfree.geodesic import check_interval_necessary, check_interval_sufficient
from lipfree.lipschitz import LipschitzFunction, lipschitz_norm
from lipfree.metric_core import (
    REL_TOL,
    PointPair,
    circle_net,
    from_weighted_graph,
    interval_net,
    shortest_path_closure,
    validate_space,
)


@pytest.fixture
def path3():
    return from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])


@pytest.fixture
def two_point():
    return validate_space([[0, 1], [1, 0]])


# codomain pairs of the path 0-1-2 that norm it, with the non-vertex (0, 2)
NORMING_WITH_NON_VERTEX = [PointPair(0, 1), PointPair(1, 2), PointPair(0, 2)]


@pytest.fixture
def squeezed_path():
    """The path 0-1-2-3 with weights 1, 0.5, 1 onto the unit path 0-1-2,
    collapsing the short middle edge: an isometric composition."""
    domain = from_weighted_graph(4, [(0, 1, 1), (1, 2, 0.5), (2, 3, 1)])
    codomain = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
    return LipschitzMap(domain, codomain, (0, 1, 1, 2))


class TestLipschitzMap:
    def test_base_preservation_enforced(self, path3, two_point):
        with pytest.raises(BasePointNotPreserved):
            LipschitzMap(path3, two_point, (1, 0, 1))

    def test_norm_witness(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        norm = phi.norm_with_witness()
        assert norm.value == 1.0
        x, y = norm.witness
        assert two_point.d(phi(x), phi(y)) == path3.d(x, y)

    @pytest.mark.parametrize("x", [-1, 3])
    def test_point_outside_the_domain_rejected(self, path3, x):
        # a negative index is no point, and is never read from the end
        with pytest.raises(ValueError, match=rf"point {x} is outside 0\.\.2"):
            identity_map(path3)(x)
        assert identity_map(path3)(2) == 2

    @pytest.mark.parametrize("k", [3, -1, 10**30, 2**63])
    def test_image_outside_the_codomain_named_by_the_range_rule(self, path3, k):
        with pytest.raises(ValueError, match=rf"^point {k} is outside 0\.\.2$"):
            LipschitzMap(path3, path3, (0, k, 2))
        with pytest.raises(ValueError, match=rf"^point {k} is outside 0\.\.2$"):
            identity_map(path3)(k)

    def test_compose_maps(self, path3):
        ident = identity_map(path3)
        collapse = LipschitzMap(path3, path3, (0, 0, 0))
        both = compose_maps(collapse, ident)
        assert both.image == (0, 0, 0)


class TestPushForward:
    def test_molecule_pushes_to_scaled_molecule(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        mu = molecule(path3, 1, 2)
        out = push_forward(phi, mu)
        # (delta_1 - delta_0) / d_N(1,2)
        assert np.allclose(out.coeffs, [-1.0, 1.0])

    def test_collapsed_pair_vanishes(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        out = push_forward(phi, molecule(path3, 0, 2))
        assert np.all(out.coeffs == 0.0)

    def test_zero_vector(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        assert np.all(push_forward(phi, FreeVector(path3, np.zeros(3))).coeffs == 0.0)

    def test_functoriality_exact(self, path3, two_point):
        psi = LipschitzMap(path3, path3, (0, 1, 1))
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        mu = FreeVector(path3, [0.25, 0.5, -0.75])
        direct = push_forward(compose_maps(phi, psi), mu)
        staged = push_forward(phi, push_forward(psi, mu))
        assert np.array_equal(direct.coeffs, staged.coeffs)

    def test_space_mismatch(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        with pytest.raises(SpaceMismatch):
            push_forward(phi, FreeVector(two_point, [1.0, -1.0]))


class TestCompose:
    def test_identity(self, path3):
        f = LipschitzFunction(path3, [0.0, 0.5, 2.0])
        assert np.array_equal(compose(identity_map(path3), f).values, f.values)

    def test_zero_function(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        f = LipschitzFunction(two_point, np.zeros(2))
        assert np.all(compose(phi, f).values == 0.0)

    def test_halving_shrinks_norm(self):
        # t -> t/2 from the mesh-1/2 net into the mesh-1/4 net
        domain = interval_net(2)
        codomain = interval_net(4)
        phi = LipschitzMap(domain, codomain, (0, 1, 2))
        f = LipschitzFunction(codomain, [0, 0.25, 0.5, 0.75, 1.0])
        assert lipschitz_norm(compose(phi, f)).value == pytest.approx(0.5)

    def test_adjoint_pairing(self, path3, two_point):
        rng = np.random.default_rng(2)
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        for _ in range(10):
            f = LipschitzFunction(two_point, rng.normal(size=2))
            mu = random_free_vector(rng, path3)
            lhs = pairing(compose(phi, f), mu)
            rhs = pairing(f, push_forward(phi, mu))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_norm_contraction(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            phi = random_one_lipschitz_map(rng, 6, 5)
            f = random_lipschitz_function(rng, phi.codomain)
            lhs = lipschitz_norm(compose(phi, f)).value
            rhs = lipschitz_norm(f).value * operator_norm(phi)
            assert lhs <= rhs + phi.domain.tol + 1e-12


def random_free_vector(rng, space):
    c = rng.normal(size=space.n)
    c[space.base] -= c.sum()
    return FreeVector(space, c)


class TestOperatorNorm:
    def test_identity(self, path3):
        assert operator_norm(identity_map(path3)) == 1.0

    def test_constant(self, path3, two_point):
        assert operator_norm(LipschitzMap(path3, two_point, (0, 0, 0))) == 0.0

    def test_halving_on_quarter_net(self):
        domain = interval_net(4)
        codomain = interval_net(8)
        phi = LipschitzMap(domain, codomain, (0, 1, 2, 3, 4))
        # oracle: max over all 10 pairs of the difference quotient
        quotients = [
            codomain.d(phi(i), phi(j)) / domain.d(i, j)
            for i in range(5) for j in range(i + 1, 5)
        ]
        assert max(quotients) == 0.5
        assert operator_norm(phi) == 0.5

    def test_random_functions_never_exceed_it(self):
        rng = np.random.default_rng(6)
        phi = random_one_lipschitz_map(rng, 7, 5, kind="quotient")
        bound = operator_norm(phi)
        best = 0.0
        for _ in range(40):
            f = random_lipschitz_function(rng, phi.codomain)
            fnorm = lipschitz_norm(f).value
            if fnorm > 0:
                best = max(best, lipschitz_norm(compose(phi, f)).value / fnorm)
        assert best <= bound + 1e-9


@pytest.mark.parametrize("block", [1, 7, 64, 2 ** 17])
def test_map_norm_read_by_row_blocks_is_the_whole_matrix_norm(monkeypatch, block):
    # integer graph metrics tie often, and random tables repeat images
    monkeypatch.setattr(metric_core, "BLOCK", block)
    rng = np.random.default_rng(block)
    maps = [builtin_map(name, 8) for name in ("identity", "fold", "halving", "collapse")]
    for n, m in ((2, 2), (5, 3), (9, 4), (16, 16), (40, 7)):
        domain, codomain = integer_space(rng, n), integer_space(rng, m)
        img = rng.integers(m, size=n)
        img[domain.base] = codomain.base
        maps.append(LipschitzMap(domain, codomain, tuple(img)))
        maps.append(random_one_lipschitz_map(rng, n, m))
    tied = 0
    for phi in maps:
        img = np.asarray(phi.image)
        value, pair, hits = first_maximum(
            whole_quotients(phi.codomain.dist[np.ix_(img, img)], phi.domain.dist))
        tied += hits > 2  # more than one unordered pair
        want = (value, pair) if value > 0 else (0.0, None)
        assert tuple(LipschitzMap(phi.domain, phi.codomain, phi.image).norm_with_witness()) == want
    assert tied > 0


class TestRandomQuotientMap:
    def test_codomain_is_the_closure_of_the_fiber_distances(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            phi = random_one_lipschitz_map(rng, int(rng.integers(2, 12)),
                                           int(rng.integers(2, 9)), kind="quotient")
            img = np.asarray(phi.image)
            m = phi.codomain.n
            fibers = np.zeros((m, m))
            for a in range(m):
                for b in range(m):
                    if a != b:
                        fibers[a, b] = min(phi.domain.d(x, y)
                                           for x in np.flatnonzero(img == a)
                                           for y in np.flatnonzero(img == b))
            assert np.array_equal(phi.codomain.dist, shortest_path_closure(fibers))


@pytest.mark.parametrize("spaces", ["random", "integer"])
def test_random_table_maps_equal_the_map_by_map_draws(monkeypatch, spaces):
    # the sampler tests each draw's quotients as one array; the loop it
    # replaced built every drawn map and read its norm. Integer metrics
    # put quotients of exactly 1 on the acceptance boundary
    if spaces == "integer":
        monkeypatch.setattr(fixtures, "random_space", lambda rng, n: integer_space(rng, n))

    def drawn_map_by_map(rng, domain_n, codomain_n):
        n_space = fixtures.random_space(rng, domain_n)
        m_space = fixtures.random_space(rng, codomain_n)
        for _ in range(60):
            img = rng.integers(codomain_n, size=domain_n)
            img[n_space.base] = m_space.base
            phi = LipschitzMap(n_space, m_space, tuple(int(v) for v in img))
            if phi.norm_with_witness().value <= 1.0:
                return phi
        return LipschitzMap(n_space, m_space, (m_space.base,) * domain_n)

    drawn = set()
    for seed in range(200):
        sizes = np.random.default_rng(seed).integers(2, 17, size=2)
        new, old = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        got, want = random_one_lipschitz_map(new, *sizes, "table"), drawn_map_by_map(old, *sizes)
        assert got.image == want.image
        assert np.array_equal(got.domain.dist, want.domain.dist)
        assert np.array_equal(got.codomain.dist, want.codomain.dist)
        assert new.bit_generator.state == old.bit_generator.state
        drawn.add(any(got.image))
    assert drawn == {False, True}  # some draws are accepted, some fall back to collapse


class TestCertifyDual:
    def test_identity_isometric_with_witnesses(self, path3):
        cert = certify_isometry_dual(identity_map(path3))
        assert cert.verdict == "isometric"
        assert len(cert.witnesses["pair"]) == len(extreme_molecules(path3)) > 0
        assert np.array_equal(cert.witnesses["preimage"], cert.witnesses["pair"])

    def test_constant_map_fails(self, path3, two_point):
        cert = certify_isometry_dual(LipschitzMap(path3, two_point, (0, 0, 0)))
        assert cert.verdict == "not_isometric"
        assert cert.failing_pair is not None

    def test_path_onto_two_points(self, path3, two_point):
        # (0,1,0) hits the unique extreme pair with an adjacent preimage
        cert = certify_isometry_dual(LipschitzMap(path3, two_point, (0, 1, 0)))
        assert cert.verdict == "isometric"
        assert cert.witnesses["preimage"][0].tolist() == [0, 1]

    def test_norm_above_one_rejected(self, two_point, path3):
        stretched = validate_space([[0, 3], [3, 0]])
        with pytest.raises(MapNormExceedsOne, match=r"3\.0 > 1 \+ 1e-09"):
            certify_isometry_dual(LipschitzMap(two_point, stretched, (0, 1)))

    def test_caller_pair_set_must_norm(self):
        net = interval_net(2)
        with pytest.raises(NotNorming):
            certify_isometry_dual(identity_map(net), pairs=[PointPair(0, 2)])

    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    def test_caller_pair_set_on_a_codomain_without_vertices_refused(self, method):
        # the gate asks for the vertices before any route runs, the primal's too
        space = line_net([0, 1e-12, 2e-12, 1])
        with pytest.raises(InputError, match=r"^no pair is a vertex: points 0 and 1 lie "):
            certify_isometry(identity_map(space), method, pairs=list(space.pairs()))

    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    def test_caller_pair_outside_the_codomain_rejected(self, path3, method):
        pairs = list(path3.pairs()) + [PointPair(0, 3)]
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            certify_isometry(identity_map(path3), method, pairs=pairs)
        with pytest.raises(ValueError, match=">= 0"):  # a negative index is refused earlier
            PointPair(-1, 1)

    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    @pytest.mark.parametrize("name", ["fold", "halving"])
    def test_caller_pair_set_checked_before_the_deficit_exit(self, monkeypatch,
                                                             method, name):
        # halving's norm 1/2 fails both routes, and the primal never reads
        # a pair, yet a pair set that misses a vertex is refused as for
        # fold, before either route runs, after one check
        checks = []
        real = composition.is_norming

        def counted(*args):
            checks.append(args)
            return real(*args)

        monkeypatch.setattr(composition, "is_norming", counted)
        with pytest.raises(NotNorming):
            certify_isometry(builtin_map(name, 4), method, pairs=[PointPair(0, 1)])
        assert len(checks) == 1

    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    def test_norming_set_with_a_non_vertex_changes_nothing(self, squeezed_path, method):
        # (0, 2) is norming but no vertex: its only preimage pair (0, 3) is
        # longer, yet the certificates read the vertices alone
        report = certify_isometry(squeezed_path, method, pairs=NORMING_WITH_NON_VERTEX)
        assert report.to_dict() == certify_isometry(squeezed_path, method).to_dict()
        assert report.verdict == "isometric"


def _pairs_change_nothing(phi):
    """Every method's report with every codomain pair listed equals the
    one without pairs, and decides the map."""
    for method in ("dual", "primal", "both"):
        report = certify_isometry(phi, method, pairs=list(phi.codomain.pairs()))
        got = report.to_dict()
        assert got == certify_isometry(phi, method).to_dict()
        for cert in (got["dual"], got["primal"]) if method == "both" else (got,):
            assert cert["verdict"] in ("isometric", "not_isometric")
            assert "scope" not in cert


def test_a_norming_set_leaves_random_certificates_as_they_are():
    rng = np.random.default_rng(47)
    for _ in range(150):
        _pairs_change_nothing(random_one_lipschitz_map(rng, int(rng.integers(2, 12)),
                                                       int(rng.integers(2, 9))))


@pytest.mark.parametrize("name", ["identity", "fold", "halving", "collapse"])
def test_a_norming_set_leaves_builtin_certificates_as_they_are(name):
    for mesh in range(1, 18):
        _pairs_change_nothing(builtin_map(name, mesh))


def test_fold_is_the_net_folded_at_k_over_n():
    """fold's domain is the line net on the coordinates k / n, 0 <= k <= 2n,
    as Python divides them, and its image folds k onto min(k, 2n - k)."""
    for n in range(1, 65):
        phi = builtin_map("fold", n)
        domain = line_net([k / n for k in range(2 * n + 1)])
        assert (phi.domain.labels, phi.domain.meta) == (domain.labels, domain.meta)
        assert phi.domain.dist.tobytes() == domain.dist.tobytes()
        assert phi.domain.edges.tobytes() == domain.edges.tobytes()
        assert phi.image == tuple(k if k <= n else 2 * n - k for k in range(2 * n + 1))
        assert {type(k) for k in phi.image} == {int}
        assert phi.codomain.dist.tobytes() == interval_net(n).dist.tobytes()


class TestCertifyPrimal:
    def test_identity(self, path3):
        assert certify_isometry_primal(identity_map(path3)).verdict == "isometric"

    def test_fold_onto_interval(self):
        # mesh-one fold: 0,1,2 on a line folded onto a single edge
        from lipfree.fixtures import line_net
        domain = line_net([0.0, 1.0, 2.0])
        codomain = interval_net(1)
        cert = certify_isometry_primal(LipschitzMap(domain, codomain, (0, 1, 0)))
        assert cert.verdict == "isometric"

    def test_missed_point_reported(self, path3):
        # norm-one inclusion of a sub-path misses point 2: the quotient
        # metric is infinite from it, and (0, 2) is the first such pair
        sub = validate_space(path3.dist[np.ix_([0, 1], [0, 1])])
        cert = certify_isometry_primal(LipschitzMap(sub, path3, (0, 1)))
        assert cert.verdict == "not_isometric"
        assert (cert.failing_pair, cert.modulus) == ((0, 2), 0.0)

    @pytest.mark.parametrize("name", ["identity", "fold"])
    def test_isometric_builtins_solve_no_lp(self, lp_solves, name):
        cert = certify_isometry_primal(builtin_map(name, 16))
        assert cert.verdict == "isometric"
        assert lp_solves == []

    def test_primal_solves_no_lp(self, lp_solves):
        rng = np.random.default_rng(41)
        maps = [identity_map(tripod(1.0, 4).space)]
        maps += [random_one_lipschitz_map(rng, int(rng.integers(2, 12)), int(rng.integers(2, 9)))
                 for _ in range(200)]
        verdicts = {certify_isometry(phi, "primal").verdict for phi in maps}
        assert verdicts == {"isometric", "not_isometric"}
        assert lp_solves == []

    def test_pass_memory_stays_below_three_domain_matrices(self):
        # the quotient pass reads the domain matrix by row blocks, with no
        # per-pair arrays beside it
        phi = builtin_map("fold", 256)
        n = phi.domain.n
        extreme_molecules(phi.codomain)  # warm-up, so the pass does no first-time setup
        tracemalloc.start()
        try:
            assert certify_isometry(phi, "primal").verdict == "isometric"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8

    @pytest.mark.parametrize("mesh", [1, 4, 64])
    def test_halving_has_modulus_zero_at_its_first_missed_point(self, mesh):
        # halving at mesh n, of norm 1/2, misses the points n+1..2n: the
        # quotient metric is infinite from n+1, so m = 0 at (0, n+1)
        phi = builtin_map("halving", mesh)
        cert = certify_isometry_primal(phi)
        assert operator_norm(phi) == 0.5
        assert (cert.verdict, cert.failing_pair, cert.modulus) == (
            "not_isometric", (0, mesh + 1), 0.0)
        assert cert.notes == "the quotient metric exceeds the codomain's distance"

    def test_deficit_certificates_carry_each_routes_tolerances(self):
        # a norm deficit is decided by the routes, each under its own rule
        for name in ("halving", "fold"):
            report = certify_isometry(builtin_map(name, 4), "both")
            assert report.dual.tolerances == {"tol_metric": 1e-9, "preimage_ratio": REL_TOL}
            assert report.primal.tolerances == {"tol_metric": 1e-9, "modulus": REL_TOL}
            assert "modulus" in report.primal.to_dict()


def _quotient_reference(phi):
    """c from every pair of domain points, its textbook Floyd-Warshall
    closure cbar, and min d/cbar off the diagonal with its first row-major
    pair: the modulus by its definition, with lo = min d/c."""
    n, img, d = phi.codomain.n, phi.image, phi.codomain.dist
    c = np.full((n, n), np.inf)
    for a in range(phi.domain.n):
        for b in range(phi.domain.n):
            c[img[a], img[b]] = min(c[img[a], img[b]], phi.domain.dist[a, b])
    cbar = c.copy()
    for k in range(n):
        for i in range(n):
            for j in range(n):
                cbar[i, j] = min(cbar[i, j], cbar[i, k] + cbar[k, j])
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    ratios = [(float(d[x, y] / cbar[x, y]), (x, y)) for x, y in off]
    modulus = min(r for r, _ in ratios)
    pair = next(p for r, p in ratios if r == modulus)
    return c, min(float(d[x, y] / c[x, y]) for x, y in off), modulus, pair


def _shrunk_quotient(rng):
    """A quotient map whose codomain is then shortened at one pair to 0.6
    of its distance and closed again: usually norm one with 0 < m < 1."""
    phi = random_one_lipschitz_map(rng, int(rng.integers(3, 12)), int(rng.integers(3, 9)),
                                   kind="quotient")
    d = phi.codomain.dist.copy()
    x, y = rng.choice(phi.codomain.n, size=2, replace=False)
    d[x, y] = d[y, x] = 0.6 * d[x, y]
    return LipschitzMap(phi.domain, validate_space(shortest_path_closure(d)), phi.image)


class TestQuotientModulus:
    """The primal certificate's modulus m = min d/cbar against its
    definition, the dual, and the functions that attain it."""

    def test_equilateral_codomain(self):
        # domain distances 1, 1 and 1.5 onto an equilateral triangle of
        # side 1: cbar(0, 2) = min(1.5, 1 + 1), so m = 1/1.5
        domain = validate_space([[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]])
        codomain = validate_space(1.0 - np.eye(3))
        report = certify_isometry(LipschitzMap(domain, codomain, (0, 1, 2)), "both")
        assert report.primal.modulus == 2 / 3
        assert report.primal.failing_pair == (0, 2)
        assert report.verdict == report.dual.verdict == "not_isometric"
        assert report.dual.failing_pair == (0, 2)

    def test_isometric_builtins_and_geodesic_identities_have_modulus_one(self):
        maps = [builtin_map(name, mesh) for name in ("identity", "fold")
                for mesh in range(1, 257)]
        maps += [identity_map(g.space) for g in (
            interval_geodesic(64), circle_geodesic(64), tripod(1.0, 16))]
        for phi in maps:
            cert = certify_isometry_primal(phi)
            assert (cert.verdict, cert.modulus) == ("isometric", 1.0), phi.codomain

    def test_quotient_maps_have_modulus_one_exactly(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            phi = random_one_lipschitz_map(rng, int(rng.integers(2, 12)),
                                           int(rng.integers(2, 9)), kind="quotient")
            assert certify_isometry_primal(phi).modulus == 1.0

    @pytest.mark.parametrize("block", [1, 7, 64, 2 ** 17])
    def test_matches_the_definition_and_the_dual(self, monkeypatch, squeezed_path, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        rng = np.random.default_rng(block)
        maps = [squeezed_path]  # lo = 2/2.5, and the closure gives m = 1
        maps += [random_one_lipschitz_map(rng, int(rng.integers(2, 12)), int(rng.integers(2, 9)))
                 for _ in range(60)]
        maps += [_shrunk_quotient(rng) for _ in range(20)]
        for n, m in ((3, 2), (6, 4), (12, 5), (30, 9)):  # integer metrics tie often
            domain, codomain = integer_space(rng, n), integer_space(rng, m)
            img = rng.integers(m, size=n)
            img[domain.base] = codomain.base
            phi = LipschitzMap(domain, codomain, tuple(img))
            if operator_norm(phi) <= 1.0:
                maps.append(phi)
        outcomes = set()
        for phi in maps:
            c, lo, modulus, pair = _quotient_reference(phi)
            img = np.asarray(phi.image)
            if np.isfinite(c).all():
                rows = list(composition._fibre_rows(img, phi.domain.dist, phi.codomain.n))
                assert np.array_equal(np.concatenate([r for _, r in rows]), c)
            if operator_norm(phi) < 1.0 - REL_TOL:
                continue  # the map norm decides before the modulus is read
            cert = certify_isometry(phi, "both")
            assert cert.verdict == cert.dual.verdict == (
                "isometric" if modulus >= 1.0 - REL_TOL else "not_isometric")
            closed = lo < 1.0 - REL_TOL  # else m is read from c: lo <= m <= the map norm
            assert cert.primal.modulus == (modulus if closed else lo) <= operator_norm(phi)
            assert lo <= modulus
            if not cert.isometric:
                assert cert.primal.failing_pair == pair
            outcomes.add((cert.verdict, closed, cert.primal.modulus == 0.0))
        assert outcomes == {("isometric", False, False), ("isometric", True, False),
                            ("not_isometric", True, False), ("not_isometric", True, True)}

    def test_modulus_never_exceeds_the_map_norm(self):
        # each d/c and d/cbar is one rounded quotient, as the map norm's, and the
        # closure never shortens the closest fibre pair, so m <= Lip(phi) bitwise
        rng = np.random.default_rng(2026)
        for _ in range(400):
            phi = random_one_lipschitz_map(rng, int(rng.integers(2, 13)), int(rng.integers(2, 10)))
            report = certify_isometry(phi, "both")  # a split raises MethodDisagreement
            assert report.primal.modulus <= operator_norm(phi)

    def test_distance_function_attains_the_modulus(self):
        # f = cbar(., x) at the failing pair (x, y): Lip(f o phi) = 1 and
        # Lip(f) = 1/m, so C_phi shrinks f's norm by exactly m
        rng = np.random.default_rng(67)
        attained = 0
        while attained < 20:
            phi = _shrunk_quotient(rng)
            cert = certify_isometry_primal(phi)
            if cert.modulus is None or cert.isometric:
                continue  # a norm-deficit map, or a shortcut through the closure
            attained += 1
            cbar = shortest_path_closure(_quotient_reference(phi)[0])
            f = LipschitzFunction(phi.codomain, cbar[:, cert.failing_pair[0]])
            ratio = lipschitz_norm(compose(phi, f)).value / lipschitz_norm(f).value
            assert 0.0 < cert.modulus < 1.0
            assert ratio == pytest.approx(cert.modulus, rel=1e-12)
            for _ in range(20):  # and no function is shrunk further
                g = random_lipschitz_function(rng, phi.codomain)
                assert (lipschitz_norm(compose(phi, g)).value
                        >= cert.modulus * lipschitz_norm(g).value * (1 - 1e-12))


class TestPairPassMemory:
    def test_no_pass_holds_a_domain_sized_matrix(self):
        # fold at mesh 1024: a 2,049-point domain, whose N x N float matrix
        # is 33.6 MB; every pass over its pairs reads it by row blocks
        builtin = builtin_map("fold", 1024)
        certify_isometry(builtin_map("fold", 8))  # warm-up: first-time setup
        peaks = {}
        tracemalloc.start()
        try:
            for name, run in (("operator_norm", operator_norm),
                              ("check_interval_sufficient", check_interval_sufficient),
                              ("certify_isometry", certify_isometry),
                              ("certify_isometry_primal", certify_isometry_primal)):
                phi = LipschitzMap(builtin.domain, builtin.codomain, builtin.image)  # no cached norm
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run(phi)
                peaks[name] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < 8 * 2 ** 20, peaks


class TestOnePass:
    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    @pytest.mark.parametrize("case", ["isometric", "deficit", "norming_pairs"])
    def test_norm_and_vertices_computed_once(self, monkeypatch, method, case):
        calls = {"vertex_pairs": [], "norm_with_witness": 0}
        real_vertices, real_norm = metric_core.vertex_pairs, LipschitzMap.norm_with_witness

        def vertex_pairs(space):
            calls["vertex_pairs"].append(space)
            return real_vertices(space)

        def norm_with_witness(phi):
            calls["norm_with_witness"] += 1
            return real_norm(phi)

        monkeypatch.setattr(metric_core, "vertex_pairs", vertex_pairs)
        monkeypatch.setattr(LipschitzMap, "norm_with_witness", norm_with_witness)
        phi = builtin_map("halving" if case == "deficit" else "fold", 8)
        pairs = list(phi.codomain.pairs()) if case == "norming_pairs" else None
        report = certify_isometry(phi, method, pairs=pairs)
        assert report.verdict == ("not_isometric" if case == "deficit" else "isometric")
        # the primal alone reads no vertex, deficit or not, unless a pair
        # set is checked; every other run reads the codomain's, computed
        # once per space however often they are read
        enumerates = case == "norming_pairs" or method != "primal"
        assert calls == {"vertex_pairs": [phi.codomain] * enumerates, "norm_with_witness": 1}
        certify_isometry(phi, method, pairs=pairs)
        extreme_molecules(phi.codomain)
        assert calls["vertex_pairs"] == [phi.codomain]

    def test_map_norm_computed_once_per_map(self, monkeypatch):
        quotients = []
        real = composition._largest_quotient

        def counted(*args):
            quotients.append(args)
            return real(*args)

        monkeypatch.setattr(composition, "_largest_quotient", counted)
        phi = builtin_map("fold", 8)
        report = certify_isometry(phi, "both")
        assert report.verdict == "isometric"
        assert operator_norm(phi) == 1.0
        assert len(quotients) == 1

    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    def test_each_route_names_its_own_deficit_pair(self, method):
        # a map of norm 1/2 onto each codomain: the dual fails at the first
        # vertex, whose preimage ratio is 1/2 (rows 0-2 of the line net hold
        # no vertex, so its first vertex is (3, 4)); the primal reads m = 1/2
        # at the first row-major pair of the closed quotient metric
        rng = np.random.default_rng(23)
        codomains = [random_space(rng, int(rng.integers(2, 12))) for _ in range(40)]
        codomains.append(line_net([0, 1e-12, 2e-12, 1, 2]))
        for codomain in codomains:
            domain = validate_space(2.0 * codomain.dist)
            phi = LipschitzMap(domain, codomain, tuple(range(codomain.n)))
            report = certify_isometry(phi, method)
            dual = report.dual if method == "both" else report
            primal = report.primal if method == "both" else report
            if method != "primal":
                assert dual.verdict == "not_isometric"
                assert dual.failing_pair == tuple(extreme_molecules(codomain)[0].tolist())
            if method != "dual":
                pair = _quotient_reference(phi)[3]
                assert (primal.verdict, primal.failing_pair, primal.modulus) == (
                    "not_isometric", pair, 0.5)
        assert extreme_molecules(codomain)[0].tolist() == [3, 4]

    def test_the_primal_reads_no_vertex(self, monkeypatch):
        # a deficit is the primal's like any map: halving, collapse, and a
        # map of norm 1/2 onto a space whose every pair is a vertex
        circle = circle_net(256)
        onto = LipschitzMap(validate_space(2.0 * circle.dist), circle, tuple(range(256)))
        maps = [builtin_map("halving", 16), builtin_map("collapse", 16), onto]

        def refuse(space):
            raise AssertionError("the primal read a vertex")

        monkeypatch.setattr(metric_core, "vertex_pairs", refuse)
        certs = [certify_isometry(phi, "primal") for phi in maps]
        assert [(c.verdict, c.failing_pair, c.modulus) for c in certs] == [
            ("not_isometric", (0, 17), 0.0), ("not_isometric", (0, 1), 0.0),
            ("not_isometric", (0, 1), 0.5)]

    def test_pass_builds_no_pair_object_per_vertex(self, monkeypatch):
        # nearly every pair of a plane cloud is a vertex; the pass reads
        # them as one index array, from enumeration to the certificates
        pts = np.random.default_rng(31).uniform(size=(120, 2))
        cloud = validate_space(np.hypot(*(pts[:, None, :] - pts[None, :, :]).T))
        phi = identity_map(cloud)
        built = []
        real = PointPair.__post_init__

        def counted(pair):
            built.append(pair)
            real(pair)

        monkeypatch.setattr(PointPair, "__post_init__", counted)
        report = certify_isometry(phi, "both")
        assert report.verdict == "isometric"
        assert len(report.dual.witnesses["pair"]) > 5000
        assert len(built) <= 2


class TestCertifyBoth:
    def test_identity_agreement(self, path3):
        report = certify_isometry(identity_map(path3), "both")
        assert report.verdict == "isometric"
        assert report.dual.verdict == report.primal.verdict

    def test_constant_agreement(self, path3, two_point):
        report = certify_isometry(LipschitzMap(path3, two_point, (0, 0, 0)), "both")
        assert report.verdict == "not_isometric"

    def test_random_maps_never_disagree(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            phi = random_one_lipschitz_map(
                rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
            report = certify_isometry(phi, "both")
            assert report.dual.verdict == report.primal.verdict

    def test_near_hit_is_read_in_closed_form(self, lp_solves):
        # a preimage pair one ulp longer than the pair: the modulus is the
        # ratio, within the tolerance, and no LP is solved
        far = np.nextafter(1.0, np.inf)
        domain = validate_space([[0, far], [far, 0]])
        codomain = validate_space([[0, 1], [1, 0]])
        report = certify_isometry(LipschitzMap(domain, codomain, (0, 1)), "both")
        assert report.verdict == report.dual.verdict == "isometric"
        assert report.primal.modulus == 1.0 / far < 1.0
        assert lp_solves == []

    def test_unknown_method_rejected(self, path3):
        with pytest.raises(ValueError):
            certify_isometry(identity_map(path3), "fastest")

    def test_isometric_verdict_preserves_norms_from_below(self):
        rng = np.random.default_rng(23)
        found = 0
        while found < 5:
            phi = random_one_lipschitz_map(rng, 6, 5, kind="quotient")
            cert = certify_isometry_dual(phi)
            if cert.verdict != "isometric":
                continue
            found += 1
            for _ in range(10):
                f = random_lipschitz_function(rng, phi.codomain)
                assert (
                    lipschitz_norm(compose(phi, f)).value
                    >= lipschitz_norm(f).value - 1e-9
                )


THRESHOLD = 1.0 - REL_TOL
ULP = np.spacing(THRESHOLD)
# two-point maps of norm about t: (domain distance, codomain distance)
_TWO_POINT = {"b=t": lambda t: (1.0, t), "a=1/t": lambda t: (1.0 / t, 1.0),
              "a=3": lambda t: (3.0, 3.0 * t), "a=0.1": lambda t: (0.1, 0.1 * t)}


@pytest.mark.parametrize("k, family", [
    (k, family) for family in (*_TWO_POINT, "scaled") for k in range(-8, 9)])
def test_maps_within_ulps_of_the_threshold_get_one_verdict(k, family):
    # t = 1 - REL_TOL + k ulps, with norm deficits on the negative side;
    # "scaled" maps three seeded codomains from their own metric over t
    t = THRESHOLD + k * ULP
    if family == "scaled":
        rng = np.random.default_rng(59)
        maps = [LipschitzMap(validate_space(c.dist / t), c, tuple(range(c.n)))
                for c in (random_space(rng, n) for n in (5, 9, 14))]
    else:
        a, b = _TWO_POINT[family](t)
        maps = [LipschitzMap(validate_space([[0, a], [a, 0]]),
                             validate_space([[0, b], [b, 0]]), (0, 1))]
    for phi in maps:
        assert abs(operator_norm(phi) - THRESHOLD) <= 9 * ULP  # scaling rounds once more
        verdict = certify_isometry(phi, "both").verdict
        assert certify_isometry(phi, "dual").verdict == verdict
        assert certify_isometry(phi, "primal").verdict == verdict


def _loop_dual_certificate(phi, vertices):
    """The dual certificate vertex by vertex, one fibre block and one
    argmin each: the reference for the one-pass form."""
    tolerances = {"tol_metric": phi.codomain.tol, "preimage_ratio": REL_TOL}

    def failed(pair, notes):
        return IsometryCertificate(
            verdict="not_isometric", method="dual_preimage",
            failing_pair=pair.as_tuple(), tolerances=tolerances, notes=notes)

    img = np.asarray(phi.image)
    witnesses = []
    for pair in vertices:
        xs = np.flatnonzero(img == pair.x)
        ys = np.flatnonzero(img == pair.y)
        if xs.size == 0 or ys.size == 0:
            return failed(pair, "pair has no preimage on one side")
        block = phi.domain.dist[np.ix_(xs, ys)]
        i, j = divmod(int(np.argmin(block)), ys.size)
        best = float(block[i, j])
        target = phi.codomain.d(pair.x, pair.y)
        if target / best < 1.0 - REL_TOL:
            return failed(pair, f"best preimage distance {best!r} exceeds {target!r}")
        witnesses.append({"pair": pair.as_tuple(), "preimage": (int(xs[i]), int(ys[j])),
                          "codomain_distance": target, "domain_distance": best})
    return IsometryCertificate(verdict="isometric", method="dual_preimage",
                               witnesses=tuple(witnesses), tolerances=tolerances)


def _witness_dicts(phi, cert):
    """The witness columns as the reference's dicts, one per row, each
    codomain distance read from the codomain matrix."""
    w = cert.witnesses
    return [{"pair": (x, y), "preimage": (a, b), "codomain_distance": phi.codomain.d(x, y),
             "domain_distance": d} for (x, y), (a, b), d in zip(
                 w["pair"].tolist(), w["preimage"].tolist(), w["domain_distance"].tolist())]


def _assert_same_dual(phi):
    vertices = extreme_molecules(phi.codomain)
    got = composition._dual_certificate(phi, vertices)
    want = _loop_dual_certificate(phi, [PointPair(*v) for v in vertices.tolist()])
    assert _witness_dicts(phi, got) == (list(want.witnesses) if want.isometric else [])
    want = dataclasses.replace(want, witnesses=got.witnesses)
    assert got.to_dict() == want.to_dict()
    assert repr(got) == repr(want)


class TestDualCertificateOracle:
    """The one-pass dual certificate against the pair-by-pair loop."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dn=st.integers(2, 11), cn=st.integers(2, 8),
           kind=st.sampled_from(["identity", "inclusion", "quotient", "table", "collapse"]))
    def test_random_maps(self, seed, dn, cn, kind):
        _assert_same_dual(random_one_lipschitz_map(np.random.default_rng(seed), dn, cn, kind))

    @pytest.mark.parametrize("name", ["identity", "fold", "halving", "collapse"])
    @pytest.mark.parametrize("mesh", [1, 2, 3, 8, 17])
    def test_builtins(self, name, mesh):
        # halving leaves every odd codomain point without a preimage and
        # collapse every point but the base: empty fibres on both sides
        _assert_same_dual(builtin_map(name, mesh))

    def test_first_failing_pair_in_list_order(self, path3):
        # of path3's two vertices, (0, 1) fails the ratio (preimages 2
        # apart, images 1) and (1, 2) has no preimage of point 2; whichever
        # vertex is listed first is reported
        phi = LipschitzMap(validate_space([[0, 2], [2, 0]]), path3, (0, 1))
        vertices = [PointPair(0, 1), PointPair(1, 2)]
        assert extreme_molecules(path3).tolist() == [[0, 1], [1, 2]]
        for order, first in ((vertices, (0, 1)), (vertices[::-1], (1, 2))):
            got = composition._dual_certificate(phi, np.array([p.as_tuple() for p in order]))
            assert got.to_dict() == _loop_dual_certificate(phi, order).to_dict()
            assert got.failing_pair == first

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_chunks_of_every_size(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(20):
            _assert_same_dual(random_one_lipschitz_map(rng, int(rng.integers(2, 12)),
                                                       int(rng.integers(2, 9))))
        _assert_same_dual(builtin_map("fold", 6))


@pytest.mark.parametrize("name", ["identity", "fold", "halving", "collapse"])
def test_report_dicts_are_shallow_and_equal_to_asdict(monkeypatch, name):
    # to_dict copies no leaf and writes each witness column with one
    # tolist(); its JSON is that of dataclasses.asdict with the fields
    # to_dict rewrites
    written = []

    class Column(np.ndarray):
        def tolist(self):
            written.append(self)
            return super().tolist()

    phi = builtin_map(name, 16)
    necessary = check_interval_necessary(phi)
    report = certify_isometry(phi, "both")
    for obj in (necessary, check_interval_sufficient(phi, r=necessary.r_loc),
                report.dual, report.primal):
        want = dataclasses.asdict(obj)
        columns = getattr(obj, "witnesses", {})
        for key, column in columns.items():
            want["witnesses"][key] = column.tolist()
            columns[key] = column.view(Column)
        written.clear()
        with monkeypatch.context() as patched:
            patched.setattr(copy, "deepcopy", None)  # asdict's copy of every leaf
            got = obj.to_dict()
        assert [id(c) for c in written] == [id(c) for c in columns.values()]
        if "rows" in want:
            want["rows"] = [list(r) for r in obj.rows]
        else:
            want["failing_pair"] = list(obj.failing_pair) if obj.failing_pair else None
            if obj.modulus is None:
                del want["modulus"]
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert (len(report.dual.to_dict()["witnesses"]["pair"]) > 0) == (name in ("identity", "fold"))


def test_witness_rows_check_on_their_own():
    # every row is checkable without the certifier: its preimage pair maps
    # onto its pair, at the recorded domain distance, with ratio one
    rng = np.random.default_rng(43)
    positive = 0
    for _ in range(300):
        phi = random_one_lipschitz_map(rng, int(rng.integers(2, 12)), int(rng.integers(2, 9)))
        cert = certify_isometry_dual(phi)
        w = cert.witnesses
        assert w["pair"].dtype == w["preimage"].dtype == np.intp
        assert w["pair"].shape == w["preimage"].shape == (len(w["domain_distance"]), 2)
        if not cert.isometric:
            assert w["pair"].size == 0
            continue
        positive += 1
        assert np.array_equal(w["pair"], extreme_molecules(phi.codomain))
        assert np.array_equal(np.asarray(phi.image)[w["preimage"]], w["pair"])
        assert np.array_equal(phi.domain.dist[tuple(w["preimage"].T)], w["domain_distance"])
        ratio = phi.codomain.dist[tuple(w["pair"].T)] / w["domain_distance"]
        assert np.all(ratio >= 1.0 - REL_TOL)
    assert positive >= 50
