"""Acceptance criteria as report-producing functions.

Each criterion function returns a plain dict with a boolean ``passed``
plus the quantities that decide it. Reports are deterministic for a
fixed seed set, in any interpreter whatever its string hashing;
``runtime_s`` keys are the only nondeterministic fields and are stripped
before determinism comparisons.

``python acceptance_criteria.py`` runs criteria 1-10 and writes the
stripped reports to stdout as a pickle, for the determinism criterion.
"""

from __future__ import annotations

import itertools
import pickle
import sys
import time

import numpy as np

from lipfree.composition import (
    LipschitzMap,
    certify_isometry,
    certify_isometry_dual,
    certify_isometry_primal,
    identity_map,
    operator_norm,
)
from lipfree.fixtures import (
    builtin_map,
    circle_geodesic,
    interval_geodesic,
    random_extension_instance,
    random_one_lipschitz_map,
    random_space,
    random_zero_sum,
    tripod,
)
from lipfree.freespace import (
    extreme_molecules,
    free_norm_dual,
    free_norm_primal,
    is_extreme_molecule,
    molecule,
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
    lipschitz_norm,
    mcshane_extend,
    peak_function,
    sub_lipschitz_norm,
)
from lipfree.metric_core import (
    PointedMetricSpace,
    PointPair,
    circle_net,
    from_weighted_graph,
    intermediate_points,
    interval_net,
    snowflake,
)

MESHES = (8, 16, 32, 64)


def criterion_1_primal_dual_agreement() -> dict:
    """500 random zero-sum vectors: flow and LP values agree to 1e-8 relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    failures = 0
    for _ in range(500):
        space = random_space(rng, int(rng.integers(2, 13)))
        mu = random_zero_sum(rng, space)
        flow = free_norm_primal(mu).value
        lp = free_norm_dual(mu).value
        gap = abs(flow - lp)  # relative at every scale, as freenorm --method both
        worst = max(worst, gap / flow)
        if gap > 1e-8 * flow:
            failures += 1
    runtime = time.perf_counter() - started
    return {
        "criterion": 1,
        "name": "primal-dual free-norm agreement",
        "instances": 500,
        "failures": failures,
        "worst_relative_gap": worst,
        "runtime_s": runtime,
        "runtime_ok": runtime < 30.0,
        "passed": failures == 0 and runtime < 30.0,
    }


def _molecule_fixture_spaces() -> list[tuple[str, PointedMetricSpace]]:
    rng = np.random.default_rng(1002)
    spaces = [(f"interval_net({n})", interval_net(n)) for n in (1, 2, 3, 4, 8, 16, 32, 64)]
    spaces += [(f"circle_net({n})", circle_net(n)) for n in (3, 4, 6, 8, 16, 32)]
    spaces.append(("tripod", tripod().space))
    spaces += [(f"random_{k}", random_space(rng, int(rng.integers(3, 11))))
               for k in range(4)]
    return spaces


def criterion_2_molecule_norms() -> dict:
    """Every molecule of every fixture space has transport norm 1."""
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    failures = []
    for name, space in _molecule_fixture_spaces():
        for pair in space.pairs():
            value = free_norm_primal(molecule(space, pair.x, pair.y)).value
            err = abs(value - 1.0)
            worst = max(worst, err)
            checked += 1
            if err > 1e-9:
                failures.append([name, pair.as_tuple(), value])
    return {
        "criterion": 2,
        "name": "molecule norms are one",
        "molecules_checked": checked,
        "worst_error": worst,
        "failures": failures,
        "runtime_s": time.perf_counter() - started,
        "passed": not failures,
    }


def _canonical_metric_matrices(n: int, max_d: int = 4) -> np.ndarray:
    """All n-point metrics with distances in 1..max_d, up to relabeling."""
    m = n * (n - 1) // 2
    iu = np.triu_indices(n, 1)
    vals = np.array(list(itertools.product(range(1, max_d + 1), repeat=m)),
                    dtype=np.uint8)
    mats = np.zeros((vals.shape[0], n, n), dtype=np.uint8)
    mats[:, iu[0], iu[1]] = vals
    mats += mats.transpose(0, 2, 1)
    ok = np.ones(vals.shape[0], dtype=bool)
    for i, j, k in itertools.permutations(range(n), 3):
        ok &= (mats[:, i, k].astype(np.int16)
               <= mats[:, i, j].astype(np.int16) + mats[:, j, k].astype(np.int16))
    mats = mats[ok]
    shifts = (3 * np.arange(m - 1, -1, -1)).astype(np.uint64)
    keys = np.full(mats.shape[0], np.iinfo(np.uint64).max, dtype=np.uint64)
    for p in itertools.permutations(range(n)):
        pm = mats[:, p][:, :, p]
        tri = pm[:, iu[0], iu[1]].astype(np.uint64)
        keys = np.minimum(keys, (tri << shifts).sum(axis=1))
    _, first = np.unique(keys, return_index=True)
    return mats[np.sort(first)]


def criterion_3_extremality_oracle() -> dict:
    """LP vertex oracle agrees with empty betweenness, exhaustively.

    The LP (``is_extreme_molecule``) runs on every pair; both the
    per-pair betweenness test and the vertex enumeration, which is built
    on betweenness, must match it.
    """
    started = time.perf_counter()
    spaces = 0
    pairs_checked = 0
    disagreements = []
    for n in (2, 3, 4, 5):
        for mat in _canonical_metric_matrices(n):
            space = PointedMetricSpace(tuple(f"p{i}" for i in range(n)), 0,
                                       mat.astype(float))
            spaces += 1
            enumerated = {tuple(v) for v in extreme_molecules(space).tolist()}
            for pair in space.pairs():
                pairs_checked += 1
                lp_extreme = is_extreme_molecule(space, pair).is_extreme
                metric_extreme = not intermediate_points(space, pair)
                if not lp_extreme == metric_extreme == (pair.as_tuple() in enumerated):
                    disagreements.append([n, mat.tolist(), pair.as_tuple()])
    runtime = time.perf_counter() - started
    return {
        "criterion": 3,
        "name": "extremality oracle agreement (exhaustive <= 5 points)",
        "spaces": spaces,
        "pairs_checked": pairs_checked,
        "disagreements": disagreements,
        "runtime_s": runtime,
        "runtime_ok": runtime < 300.0,
        "passed": not disagreements and runtime < 300.0,
    }


def criterion_4_certifier_equivalence() -> dict:
    """300 random norm-at-most-one maps: dual and primal verdicts agree."""
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    kinds = ("identity", "inclusion", "quotient", "table", "collapse")
    disagreements = []
    verdict_counts = {"isometric": 0, "not_isometric": 0}
    for k in range(300):
        phi = random_one_lipschitz_map(
            rng, int(rng.integers(2, 9)), int(rng.integers(2, 7)),
            kind=kinds[k % len(kinds)])
        dual = certify_isometry_dual(phi)
        primal = certify_isometry_primal(phi)
        if dual.verdict != primal.verdict:
            disagreements.append([k, kinds[k % len(kinds)],
                                  dual.verdict, primal.verdict])
        else:
            verdict_counts[dual.verdict] += 1
    return {
        "criterion": 4,
        "name": "dual/primal certifier equivalence on random maps",
        "instances": 300,
        "verdicts": verdict_counts,
        "disagreements": disagreements,
        "runtime_s": time.perf_counter() - started,
        "passed": not disagreements,
    }


def _distance_fixture_spaces() -> list[tuple[str, PointedMetricSpace]]:
    rng = np.random.default_rng(1005)
    path3 = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
    tri = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    return [
        ("path3", path3),
        ("triangle", tri),
        ("tripod", tripod().space),
        ("interval_net(4)", interval_net(4)),
        ("interval_net(7)", interval_net(7)),
        ("circle_net(6)", circle_net(6)),
        ("circle_net(8)", circle_net(8)),
        ("snowflaked_path", snowflake(path3, 0.5)),
        ("random_6", random_space(rng, 6)),
        ("random_8", random_space(rng, 8)),
    ]


def criterion_5_molecule_distance_bound() -> dict:
    """Close molecules obey the distance-ratio lower bound.

    The bound max(d(u,x), d(v,y)) / d(x,y) only controls the transport
    distance of molecules already within distance one of each other
    (far-apart molecules sit at distance about two regardless of point
    separation, so the unrestricted bound is false; interval_net(8)
    with pairs (1,7/8) and (0,1/8) is a counterexample).
    """
    started = time.perf_counter()
    checked = 0
    guarded_out = 0
    violations = []
    worst_slack = np.inf
    for name, space in _distance_fixture_spaces():
        ordered = [(u, v) for u in range(space.n) for v in range(space.n) if u != v]
        for (u, v) in ordered:
            m_uv = molecule(space, u, v)
            for (x, y) in ordered:
                if (u, v) == (x, y):
                    continue
                dist = free_norm_primal(m_uv - molecule(space, x, y)).value
                if dist >= 1.0:
                    guarded_out += 1
                    continue
                checked += 1
                bound = max(space.d(u, x), space.d(v, y)) / space.d(x, y)
                worst_slack = min(worst_slack, dist - bound)
                if dist < bound - 1e-8:
                    violations.append([name, (u, v), (x, y), dist, bound])
    return {
        "criterion": 5,
        "name": "molecule distance lower bound (close pairs)",
        "pairs_checked": checked,
        "pairs_beyond_unit_distance": guarded_out,
        "worst_slack": worst_slack,
        "violations": violations,
        "runtime_s": time.perf_counter() - started,
        "passed": not violations,
    }


def criterion_6_extension_exactness() -> dict:
    """200 random extension instances: restriction, norm, floor, and that
    re-extending from the subset and its first other point changes nothing."""
    started = time.perf_counter()
    rng = np.random.default_rng(1006)
    failures = []
    re_extended = 0
    for k in range(200):
        space, subset, f_sub, floor = random_extension_instance(
            rng, int(rng.integers(3, 11)))
        ext = mcshane_extend(space, subset, f_sub)
        restricted = ext.values[subset]
        if not np.array_equal(restricted, np.asarray(f_sub, dtype=float)):
            failures.append([k, "restriction"])
            continue
        L = sub_lipschitz_norm(space, subset, f_sub)
        if abs(lipschitz_norm(ext).value - L) > 1e-9:
            failures.append([k, "norm", lipschitz_norm(ext).value, L])
        if floor is not None and np.any(floor.values - ext.values > 1e-9):
            failures.append([k, "floor"])
        z = next((p for p in range(space.n) if p not in subset), None)
        if z is not None:
            wider = sorted(subset + [z])
            again = mcshane_extend(space, wider, ext.values[wider])
            re_extended += 1
            if np.any(np.abs(again.values - ext.values) > L * space.tol):
                failures.append([k, "re-extension", z])
    return {
        "criterion": 6,
        "name": "inf-convolution extension exactness",
        "instances": 200,
        "re_extended": re_extended,
        "failures": failures,
        "runtime_s": time.perf_counter() - started,
        "passed": not failures,
    }


def _builtin_family_reports() -> dict:
    """Shared certification and check reports for the builtin map family."""
    out = {}
    for n in MESHES:
        for name in ("identity", "fold", "halving", "collapse"):
            phi = builtin_map(name, n)
            cert = certify_isometry(phi, "both")
            entry = {
                "operator_norm": operator_norm(phi),
                "verdict": cert.verdict,
                "sufficient": check_interval_sufficient(phi),
            }
            if entry["operator_norm"] >= 1.0 - phi.codomain.tol:
                entry["necessary"] = check_interval_necessary(phi)
            out[(name, n)] = entry
    return out


def criterion_7_interval_necessary(family: dict | None = None) -> dict:
    """Identity and fold certify isometric with mesh-scale defects;
    halving is rejected with operator norm exactly one half."""
    started = time.perf_counter()
    if family is None:
        family = _builtin_family_reports()
    failures = []
    for n in MESHES:
        for name in ("identity", "fold"):
            entry = family[(name, n)]
            if entry["verdict"] != "isometric":
                failures.append([name, n, "verdict", entry["verdict"]])
            if entry["necessary"].max_defect > 4.0 / n:
                failures.append([name, n, "defect", entry["necessary"].max_defect])
        halving = family[("halving", n)]
        if halving["verdict"] != "not_isometric":
            failures.append(["halving", n, "verdict", halving["verdict"]])
        if abs(halving["operator_norm"] - 0.5) > 1e-12:
            failures.append(["halving", n, "norm", halving["operator_norm"]])
    return {
        "criterion": 7,
        "name": "interval necessary condition at mesh scale",
        "meshes": list(MESHES),
        "failures": failures,
        "runtime_s": time.perf_counter() - started,
        "passed": not failures,
    }


def stretched_circle(n: int) -> tuple[LipschitzMap, DiscretizedGeodesicSpace]:
    """k -> k onto circle_geodesic(n) from a cycle of n/2 edges of 2pi/n,
    then n/2 of 4pi/n: norm 1, and the stretched half is compressed by 1/2."""
    gspace = circle_geodesic(n)
    edges = [(k, (k + 1) % n, (2 if k < n // 2 else 4) * np.pi / n) for k in range(n)]
    return LipschitzMap(from_weighted_graph(n, edges), gspace.space, tuple(range(n))), gspace


def stretched_tripod(k: int) -> tuple[LipschitzMap, DiscretizedGeodesicSpace]:
    """k -> k onto tripod(1, k) from the tripod with leg 3's edges doubled:
    norm 1, and leg 3 is compressed by 1/2."""
    gspace = tripod(1.0, k)
    edges = [(0 if s == 0 else j * k + s, 1 + j * k + s, (2 if j == 2 else 1) / k)
             for j in range(3) for s in range(k)]
    image = tuple(range(1 + 3 * k))
    return LipschitzMap(from_weighted_graph(1 + 3 * k, edges), gspace.space, image), gspace


def criterion_8_sufficient(family: dict | None = None) -> dict:
    """Every builtin map, and every stretched geodesic map or identity,
    passing the sufficiency check certifies isometric; on the geodesic
    families both certifiers agree (``certify_isometry`` raises
    otherwise) and the modulus is the known one, 1/2 stretched and 1 for
    the identity."""
    started = time.perf_counter()
    if family is None:
        family = _builtin_family_reports()
    violations = []
    passing = []
    for (name, n), entry in sorted(family.items()):
        if entry["sufficient"].predicts_isometric:
            passing.append([name, n])
            if entry["verdict"] != "isometric":
                violations.append([name, n, entry["verdict"]])
    # the sizes at which the default eps is below 1/2
    for label, build, sizes in (("circle", stretched_circle, (32, 64, 128, 256)),
                                ("tripod", stretched_tripod, (8, 16, 32, 64))):
        for size in sizes:
            stretched, gspace = build(size)
            for name, phi, modulus in ((f"stretched_{label}", stretched, 0.5),
                                       (f"{label}_identity", identity_map(gspace.space), 1.0)):
                cert = certify_isometry(phi, "both")
                if check_geodesic_sufficient(phi, gspace).predicts_isometric:
                    passing.append([name, size])
                    if cert.verdict != "isometric":
                        violations.append([name, size, cert.verdict])
                if cert.primal.modulus != modulus:
                    violations.append([name, size, "modulus", cert.primal.modulus])
    return {
        "criterion": 8,
        "name": "sufficient condition at mesh scale",
        "passing_maps": passing,
        "violations": violations,
        "runtime_s": time.perf_counter() - started,
        "passed": not violations,
    }


def criterion_9_inverse_projections() -> dict:
    """Inverse projections are exact on fixtures; identity defect profiles
    stay within four meshes."""
    started = time.perf_counter()
    fixtures = [(f"interval({n})", interval_geodesic(n)) for n in (8, 16, 32)]
    fixtures += [(f"circle({n})", circle_geodesic(n)) for n in (8, 16, 32)]
    fixtures += [("tripod", tripod()), ("tripod/4", tripod(subdivisions=4))]
    failures = []
    for name, gspace in fixtures:
        for (x, y) in sorted(gspace.paths):
            proj = inverse_projection(gspace, PointPair(x, y))
            norm = lipschitz_norm(proj).value
            if abs(norm - 1.0) > 1e-9:
                failures.append([name, "norm", norm])
            path = list(gspace.paths[x, y])
            arclength = np.concatenate([[0.0], np.cumsum(gspace.space.dist[path[:-1], path[1:]])])
            if not np.array_equal(proj.values[path], arclength):
                failures.append([name, "restriction"])
            profile = check_geodesic_necessary(
                identity_map(gspace.space), gspace, PointPair(x, y))
            if profile.max_defect > 4.0 * gspace.mesh:
                failures.append([name, "defect", profile.max_defect])
    return {
        "criterion": 9,
        "name": "inverse projections and identity defect profiles",
        "fixtures": [name for name, _ in fixtures],
        "failures": failures,
        "runtime_s": time.perf_counter() - started,
        "passed": not failures,
    }


def criterion_10_peak_localization() -> dict:
    """Peak function: norm 1 - h/2, and high-ratio pairs hug the anchor.

    Pairs attaining the maximal ratio stay inside the two cells adjacent
    to the anchor. Pairs merely above 1 - h can reach one cell further
    (the pair (x-h, x+2h) attains exactly 1 - 5h/6), so the quantitative
    band is checked against a two-cell window on each side.
    """
    started = time.perf_counter()
    n = 64
    h = 1.0 / n
    x = 0.5
    net = interval_net(n)
    g = peak_function(net, x)
    coords = np.array([k / n for k in range(n + 1)])
    norm = lipschitz_norm(g).value
    norm_ok = abs(norm - (1.0 - h / 2.0)) <= 1e-12
    argmax_violations = []
    band_violations = []
    band_pairs = 0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            ratio = abs(g.values[i] - g.values[j]) / net.d(i, j)
            near_i, near_j = abs(coords[i] - x), abs(coords[j] - x)
            if ratio >= norm - 1e-12:
                if near_i > h + 1e-15 or near_j > h + 1e-15:
                    argmax_violations.append([i, j, ratio])
            if ratio > 1.0 - h:
                band_pairs += 1
                if near_i > 2 * h + 1e-15 or near_j > 2 * h + 1e-15:
                    band_violations.append([i, j, ratio])
    return {
        "criterion": 10,
        "name": "peak function localization",
        "norm": norm,
        "norm_expected": 1.0 - h / 2.0,
        "norm_ok": norm_ok,
        "argmax_within_adjacent_cells": not argmax_violations,
        "band_pairs": band_pairs,
        "band_within_two_cells": not band_violations,
        "argmax_violations": argmax_violations,
        "band_violations": band_violations,
        "runtime_s": time.perf_counter() - started,
        "passed": norm_ok and not argmax_violations and not band_violations,
    }


def run_criteria() -> dict:
    """Criteria 1-10 as a single report dict."""
    family = _builtin_family_reports()
    reports = [
        criterion_1_primal_dual_agreement(),
        criterion_2_molecule_norms(),
        criterion_3_extremality_oracle(),
        criterion_4_certifier_equivalence(),
        criterion_5_molecule_distance_bound(),
        criterion_6_extension_exactness(),
        criterion_7_interval_necessary(family),
        criterion_8_sufficient(family),
        criterion_9_inverse_projections(),
        criterion_10_peak_localization(),
    ]
    return {"criteria": reports}


def strip_runtime_fields(obj):
    """Deep-copy with every runtime_s key removed (the only timing data)."""
    if isinstance(obj, dict):
        return {k: strip_runtime_fields(v) for k, v in obj.items()
                if k != "runtime_s"}
    if isinstance(obj, (list, tuple)):
        return [strip_runtime_fields(v) for v in obj]
    return obj


if __name__ == "__main__":
    pickle.dump(strip_runtime_fields(run_criteria()), sys.stdout.buffer)
