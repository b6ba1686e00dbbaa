import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from conftest import first_maximum, integer_space, whole_quotients
from hypothesis import given, settings, strategies as st

from lipfree import composition, freespace, metric_core
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

    def test_compose_maps(self, path3):
        ident = identity_map(path3)
        collapse = LipschitzMap(path3, path3, (0, 0, 0))
        both = compose_maps(collapse, ident)
        assert both.image == (0, 0, 0)


class TestPushForward:
    def test_molecule_pushes_to_scaled_molecule(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        mu = molecule(path3, 1, 2).to_free_vector()
        out = push_forward(phi, mu)
        # (delta_1 - delta_0) / d_N(1,2)
        assert np.allclose(out.coeffs, [-1.0, 1.0])

    def test_collapsed_pair_vanishes(self, path3, two_point):
        phi = LipschitzMap(path3, two_point, (0, 1, 0))
        out = push_forward(phi, molecule(path3, 0, 2).to_free_vector())
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
        # halving's norm 1/2 decides its verdict without reading a pair,
        # and the primal never reads one, yet a pair set that misses a
        # vertex is refused as for fold, after one check
        checks = []
        real = composition._norming_failure

        def counted(*args):
            checks.append(args)
            return real(*args)

        monkeypatch.setattr(composition, "_norming_failure", counted)
        with pytest.raises(NotNorming):
            certify_isometry(builtin_map(name, 4), method, pairs=[PointPair(0, 1)])
        assert len(checks) == 1

    def test_caller_norming_set_downgrades_scope(self, path3):
        cert = certify_isometry_dual(identity_map(path3),
                                     pairs=list(path3.pairs()))
        assert cert.verdict == "isometric"
        assert cert.scope == "sufficient_only"

    def test_failed_caller_pair_is_inconclusive(self, squeezed_path):
        # (0, 2) is norming but no vertex: its only preimage pair (0, 3)
        # is longer, which says nothing about the isometric map
        cert = certify_isometry_dual(squeezed_path, pairs=NORMING_WITH_NON_VERTEX)
        assert cert.verdict == "inconclusive"
        assert not cert.isometric
        assert cert.scope == "sufficient_only"
        assert cert.failing_pair == (0, 2)


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

    def test_strictly_contractive_short_circuits(self):
        cert = certify_isometry_primal(builtin_map("halving", 4))
        assert cert.verdict == "not_isometric"
        assert "below one" in cert.notes

    def test_deficit_certificates_name_the_norm_tolerance(self):
        report = certify_isometry(builtin_map("halving", 4), "both")
        for cert in (report.dual, report.primal):
            assert cert.tolerances["map_norm"] == REL_TOL
        isometric = certify_isometry(builtin_map("fold", 4), "both")
        assert "map_norm" not in isometric.dual.tolerances
        assert "map_norm" not in isometric.primal.tolerances


def _quotient_reference(phi):
    """c from every pair of domain points, its textbook Floyd-Warshall
    closure cbar, and 1 / max cbar/d off the diagonal with its first
    row-major pair: the modulus by its definition, with lo = 1 / max c/d."""
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
    off = ~np.eye(n, dtype=bool)
    ratios = [(cbar[x, y] / d[x, y], (x, y)) for x in range(n) for y in range(n) if x != y]
    worst = max(r for r, _ in ratios)
    pair = next(p for r, p in ratios if r == worst)
    return c, 1.0 / float((c / np.where(off, d, 1.0))[off].max()), 1.0 / worst, pair


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
        calls = {"extreme_molecules": 0, "_first_vertex": 0, "norm_with_witness": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(LipschitzMap, "norm_with_witness")
        counted(freespace, "extreme_molecules")
        counted(composition, "extreme_molecules")
        counted(composition, "_first_vertex")
        phi = builtin_map("halving" if case == "deficit" else "fold", 8)
        pairs = list(phi.codomain.pairs()) if case == "norming_pairs" else None
        report = certify_isometry(phi, method, pairs=pairs)
        assert report.verdict == ("not_isometric" if case == "deficit" else "isometric")
        # the norm-deficit exit reads only the first vertex, and the primal
        # alone none: no full enumeration
        deficit = case == "deficit"
        enumerates = not deficit and (method != "primal" or case == "norming_pairs")
        assert calls == {"extreme_molecules": int(enumerates), "_first_vertex": int(deficit),
                         "norm_with_witness": 1}

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
    def test_deficit_names_the_first_vertex(self, method):
        # a map of norm 1/2 onto each codomain; rows 0-2 of the line net
        # hold no vertex, so its first vertex is (3, 4)
        rng = np.random.default_rng(23)
        codomains = [random_space(rng, int(rng.integers(2, 12))) for _ in range(40)]
        codomains.append(line_net([0, 1e-12, 2e-12, 1, 2]))
        for codomain in codomains:
            domain = validate_space(2.0 * codomain.dist)
            phi = LipschitzMap(domain, codomain, tuple(range(codomain.n)))
            report = certify_isometry(phi, method)
            certs = (report.dual, report.primal) if method == "both" else (report,)
            want = tuple(extreme_molecules(codomain)[0].tolist())
            for cert in certs:
                assert cert.verdict == "not_isometric"
                assert cert.failing_pair == want
        assert want == (3, 4)

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

    def test_inconclusive_dual_defers_to_the_primal(self, squeezed_path):
        report = certify_isometry(squeezed_path, "both", pairs=NORMING_WITH_NON_VERTEX)
        assert report.verdict == "isometric"
        assert report.primal.verdict == "isometric"
        assert report.dual.verdict == "inconclusive"
        assert report.dual.failing_pair == (0, 2)
        assert certify_isometry(squeezed_path, "both").dual.verdict == "isometric"

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


def _loop_dual_certificate(phi, vertices, pairs):
    """The dual certificate pair by pair, one fibre block and one argmin
    each: the reference for the one-pass form."""
    if pairs is None:
        pair_list, scope, negative = vertices, "necessary_and_sufficient", "not_isometric"
    else:
        pair_list, scope, negative = list(pairs), "sufficient_only", "inconclusive"
    tolerances = {"tol_metric": phi.codomain.tol, "preimage_ratio": REL_TOL}

    def failed(pair, notes):
        return IsometryCertificate(
            verdict=negative, method="dual_preimage", scope=scope,
            failing_pair=pair.as_tuple(), tolerances=tolerances, notes=notes)

    img = np.asarray(phi.image)
    witnesses = []
    for pair in pair_list:
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
    return IsometryCertificate(verdict="isometric", method="dual_preimage", scope=scope,
                               witnesses=tuple(witnesses), tolerances=tolerances)


def _rows(pairs):
    """A pair list as the (m, 2) index array the certifiers read."""
    return None if pairs is None else np.array([p.as_tuple() for p in pairs],
                                               dtype=np.intp).reshape(-1, 2)


def _pair_sets(phi, rng):
    """The vertex list, then caller sets: every pair, every pair reversed
    and in reverse order, and a shuffled subset in mixed orientation,
    which may list non-vertices and miss vertices."""
    everything = list(phi.codomain.pairs())
    flipped = [PointPair(p.y, p.x) for p in reversed(everything)]
    keep = rng.permutation(len(everything))[:max(1, len(everything) // 2)]
    mixed = [everything[k] if rng.random() < 0.5 else flipped[-1 - k] for k in keep]
    return [None, everything, flipped, mixed]


def _witness_dicts(phi, cert):
    """The witness columns as the reference's dicts, one per row, each
    codomain distance read from the codomain matrix."""
    w = cert.witnesses
    return [{"pair": (x, y), "preimage": (a, b), "codomain_distance": phi.codomain.d(x, y),
             "domain_distance": d} for (x, y), (a, b), d in zip(
                 w["pair"].tolist(), w["preimage"].tolist(), w["domain_distance"].tolist())]


def _assert_same_dual(phi, rng):
    vertices = extreme_molecules(phi.codomain)
    for pairs in _pair_sets(phi, rng):
        got = composition._dual_certificate(phi, vertices, _rows(pairs))
        want = _loop_dual_certificate(phi, [PointPair(*v) for v in vertices.tolist()], pairs)
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
        rng = np.random.default_rng(seed)
        _assert_same_dual(random_one_lipschitz_map(rng, dn, cn, kind), rng)

    @pytest.mark.parametrize("name", ["identity", "fold", "halving", "collapse"])
    @pytest.mark.parametrize("mesh", [1, 2, 3, 8, 17])
    def test_builtins(self, name, mesh):
        # halving leaves every odd codomain point without a preimage and
        # collapse every point but the base: empty fibres on both sides
        _assert_same_dual(builtin_map(name, mesh), np.random.default_rng(mesh))

    def test_first_failing_pair_in_list_order(self, path3):
        # (0, 1) fails the ratio (preimages 2 apart, images 1) and codomain
        # point 2 has no preimage; whichever pair is listed first is reported
        phi = LipschitzMap(validate_space([[0, 2], [2, 0]]), path3, (0, 1))
        pairs = [PointPair(0, 1), PointPair(1, 2)]
        for order, first in ((pairs, (0, 1)), (pairs[::-1], (1, 2))):
            got = composition._dual_certificate(phi, _rows([]), _rows(order))
            assert got.to_dict() == _loop_dual_certificate(phi, [], order).to_dict()
            assert got.failing_pair == first

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_chunks_of_every_size(self, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(20):
            _assert_same_dual(random_one_lipschitz_map(rng, int(rng.integers(2, 12)),
                                                       int(rng.integers(2, 9))), rng)
        _assert_same_dual(builtin_map("fold", 6), rng)


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
