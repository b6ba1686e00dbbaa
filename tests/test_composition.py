import numpy as np
import pytest

from lipfree import composition, freespace
from lipfree.composition import (
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
from lipfree.fixtures import builtin_map, random_lipschitz_function, \
    random_one_lipschitz_map, tripod
from lipfree.freespace import FreeVector, molecule, pairing
from lipfree.lipschitz import LipschitzFunction, lipschitz_norm
from lipfree.metric_core import (
    REL_TOL,
    PointPair,
    from_weighted_graph,
    interval_net,
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


class TestCertifyDual:
    def test_identity_isometric_with_witnesses(self, path3):
        cert = certify_isometry_dual(identity_map(path3))
        assert cert.verdict == "isometric"
        for w in cert.witnesses:
            assert w["preimage"] == w["pair"]

    def test_constant_map_fails(self, path3, two_point):
        cert = certify_isometry_dual(LipschitzMap(path3, two_point, (0, 0, 0)))
        assert cert.verdict == "not_isometric"
        assert cert.failing_pair is not None

    def test_path_onto_two_points(self, path3, two_point):
        # (0,1,0) hits the unique extreme pair with an adjacent preimage
        cert = certify_isometry_dual(LipschitzMap(path3, two_point, (0, 1, 0)))
        assert cert.verdict == "isometric"
        assert cert.witnesses[0]["preimage"] == (0, 1)

    def test_norm_above_one_rejected(self, two_point, path3):
        stretched = validate_space([[0, 3], [3, 0]])
        with pytest.raises(MapNormExceedsOne, match=r"3\.0 > 1 \+ 1e-09"):
            certify_isometry_dual(LipschitzMap(two_point, stretched, (0, 1)))

    def test_caller_pair_set_must_norm(self):
        net = interval_net(2)
        with pytest.raises(NotNorming):
            certify_isometry_dual(identity_map(net), pairs=[PointPair(0, 2)])

    @pytest.mark.parametrize("method", ["dual", "both"])
    @pytest.mark.parametrize("name", ["fold", "halving"])
    def test_caller_pair_set_checked_before_the_deficit_exit(self, monkeypatch,
                                                             method, name):
        # halving's norm 1/2 decides its verdict without reading a pair,
        # yet a pair set that misses a vertex is refused as for fold,
        # after one check
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

    def test_missed_vertex_reported(self, path3):
        # norm-one inclusion of a sub-path misses the far adjacent pair
        sub = validate_space(path3.dist[np.ix_([0, 1], [0, 1])])
        cert = certify_isometry_primal(LipschitzMap(sub, path3, (0, 1)))
        assert cert.verdict == "not_isometric"
        assert cert.failing_pair == (1, 2)

    @pytest.mark.parametrize("name", ["identity", "fold"])
    def test_isometric_builtins_solve_no_lp(self, lp_solves, name):
        cert = certify_isometry_primal(builtin_map(name, 16))
        assert cert.verdict == "isometric"
        assert lp_solves == []

    @pytest.mark.parametrize("make", [
        lambda: builtin_map("identity", 16),
        lambda: builtin_map("fold", 16),
        lambda: identity_map(tripod(1.0, 4).space),
    ], ids=["identity", "fold", "tripod"])
    def test_isometric_pass_makes_no_kernel_call(self, hull_calls, make):
        assert certify_isometry_primal(make()).verdict == "isometric"
        assert hull_calls == []

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


class TestOnePass:
    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    @pytest.mark.parametrize("case", ["isometric", "deficit", "norming_pairs"])
    def test_norm_and_vertices_computed_once(self, monkeypatch, method, case):
        calls = {"extreme_molecules": 0, "norm_with_witness": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(LipschitzMap, "norm_with_witness")
        counted(freespace, "extreme_molecules")
        counted(composition, "extreme_molecules")
        phi = builtin_map("halving" if case == "deficit" else "fold", 8)
        pairs = list(phi.codomain.pairs()) if case == "norming_pairs" else None
        report = certify_isometry(phi, method, pairs=pairs)
        assert report.verdict == ("not_isometric" if case == "deficit" else "isometric")
        assert calls == {"extreme_molecules": 1, "norm_with_witness": 1}


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

    def test_near_hit_reaches_the_kernel(self, hull_calls, lp_solves):
        # a pushed molecule one ulp longer than the vertex is no exact hit
        far = np.nextafter(1.0, np.inf)
        domain = validate_space([[0, far], [far, 0]])
        codomain = validate_space([[0, 1], [1, 0]])
        report = certify_isometry(LipschitzMap(domain, codomain, (0, 1)), "both")
        assert report.verdict == report.dual.verdict == "isometric"
        assert hull_calls == [PointPair(0, 1)]
        assert len(lp_solves) == 1

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
