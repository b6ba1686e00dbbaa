"""The benchmark's seeded workloads.

Each workload builds its inputs from a seed through lipfree's own
constructors, runs one operation per input and checks every result.
Operations reach lipfree through module attributes, so the traced run's
span wrappers (see spans.py) see every call. Why each workload exists is
written down in README.md beside this file.

An operation returns a plain result; ``check`` returns None when the
result is right and a one-line reason when it is not. ``pass_s`` is a
pass's adjusted time (see speed.py) at the commit that added the
benchmark, rounded up with a margin of about a tenth; a timed run makes
as many whole passes as fit in ``--seconds`` at that time, and at least
one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from lipfree import composition, fixtures, freespace, geodesic, io, lipschitz, metric_core
from lipfree.metric_core import PointPair

FREENORM_AGREEMENT = 1e-8  # the CLI's `freenorm --method both` agreement rule
SPACE_KINDS = ("euclidean", "graph", "snowflake")


def _cert_tol(phi) -> float:
    return max(phi.domain.tol, phi.codomain.tol)


def _enumerate_cold(phi, tracer) -> None:
    """In the traced run, enumerate the codomain's vertices before the
    certifiers, so that their spans hold only the warm-cache work.

    The certifiers skip enumeration when the map's norm is below one;
    this mirrors that exit so the traced operation does the same work
    as the untraced one.
    """
    if tracer is not None and phi.norm_with_witness().value >= 1.0 - _cert_tol(phi):
        freespace.extreme_molecules(phi.codomain)


class MeshSweep:
    """`experiment interval` / `experiment geodesic` for one map per operation."""

    name = "mesh_sweep"
    pass_s = 15.0
    GRID = tuple(("interval", kind, mesh)
                 for kind in ("identity", "fold", "halving")
                 for mesh in (16, 24, 32, 40)) + (
        ("circle", "identity", 16),
        ("circle", "identity", 32),
        ("tripod", "identity", 8),
    )

    def build(self, rng: np.random.Generator, workdir: Path) -> list:
        # The grid is fixed; the seed only orders it. Each operation builds
        # its map itself, as the CLI does, so every vertex cache is cold.
        return [self.GRID[i] for i in rng.permutation(len(self.GRID))]

    def run(self, spec, tracer=None) -> dict:
        family, kind, size = spec
        if family == "interval":
            phi = fixtures.builtin_map(kind, size)
            necessary = geodesic.check_interval_necessary(phi)
            sufficient = geodesic.check_interval_sufficient(
                phi, r=4.0 * necessary.extra["mesh"])
            _enumerate_cold(phi, tracer)
            cert = composition.certify_isometry(phi, method="both")
            necessary_ok = necessary.holds
        else:
            gspace = (fixtures.circle_geodesic(size) if family == "circle"
                      else fixtures.tripod(1.0, size))
            phi = composition.LipschitzMap(gspace.space, gspace.space,
                                           tuple(range(gspace.space.n)))
            _enumerate_cold(phi, tracer)
            cert = composition.certify_isometry(phi, method="both")
            profiles = [geodesic.check_geodesic_necessary(phi, gspace, PointPair(x, y))
                        for (x, y) in sorted(gspace.paths)]
            sufficient = geodesic.check_geodesic_sufficient(phi, gspace, r=4.0 * gspace.mesh)
            necessary_ok = all(p.holds for p in profiles)
        return {
            "verdict": cert.verdict,
            "necessary": necessary_ok,
            "sufficient": sufficient.predicts_isometric,
            "norm": composition.operator_norm(phi),
            "tol": _cert_tol(phi),
        }

    def check(self, spec, res: dict) -> str | None:
        family, kind, size = spec
        want = "not_isometric" if kind == "halving" else "isometric"
        if res["verdict"] != want:
            return f"{spec}: verdict {res['verdict']}, expected {want}"
        positive = want == "isometric"
        if res["necessary"] != positive or res["sufficient"] != positive:
            return (f"{spec}: necessary={res['necessary']} sufficient={res['sufficient']} "
                    f"disagree with verdict {want}")
        norm = 0.5 if kind == "halving" else 1.0
        if abs(res["norm"] - norm) > res["tol"]:
            return f"{spec}: operator norm {res['norm']!r}, expected {norm}"
        return None


class Transport:
    """One zero-sum vector: transport simplex, then the dual LP."""

    name = "transport"
    pass_s = 18.0
    SIZES = (40, 50, 60, 70, 80)
    KINDS = SPACE_KINDS
    DENSE, SPARSE = 5, 2  # vectors per (kind, size)

    def build(self, rng: np.random.Generator, workdir: Path) -> list:
        # Sizes, kinds and the dense/sparse split are fixed so that seeds
        # differ only in geometry and masses; sparse supports cover a
        # quarter to a half of the points. With two sparse vectors in
        # seven the median latency falls among the 50-point dense vectors,
        # not in the gap between two groups, where it moved with the seed.
        vectors = []
        for kind in self.KINDS:
            for n in self.SIZES:
                for dense in (True,) * self.DENSE + (False,) * self.SPARSE:
                    space = fixtures.random_space(rng, n, kind)
                    while True:
                        mu = fixtures.random_zero_sum(rng, space)
                        support = int(np.count_nonzero(mu.coeffs))
                        if support == n if dense else n // 4 <= support <= n // 2:
                            break
                    vectors.append(mu)
        return [vectors[i] for i in rng.permutation(len(vectors))]

    def run(self, mu, tracer=None):
        return freespace.free_norm_primal(mu), freespace.free_norm_dual(mu)

    def check(self, mu, res) -> str | None:
        flow, dual = res
        if abs(flow.value - dual.value) > FREENORM_AGREEMENT * max(1.0, flow.value):
            return f"n={mu.space.n}: flow {flow.value!r} and LP {dual.value!r} disagree"
        c = mu.coeffs
        sent = np.zeros(c.size)
        cost = 0.0
        for src, dst, mass in flow.plan:
            if mass < 0 or c[src] <= 0 or c[dst] >= 0:
                return f"n={mu.space.n}: plan entry {(src, dst, mass)} is not positive to negative"
            sent[src] += mass
            sent[dst] -= mass
            cost += mass * mu.space.d(src, dst)
        scale = max(1.0, float(np.abs(c).sum()))
        if np.abs(sent - c).max() > 1e-9 * scale:
            return f"n={mu.space.n}: plan masses do not sum to the vector's parts"
        if abs(cost - flow.value) > FREENORM_AGREEMENT * max(1.0, flow.value):
            return f"n={mu.space.n}: plan cost {cost!r} differs from flow value {flow.value!r}"
        return None


class CertifyRandom:
    """Validate, wrap and certify five random maps, one of each kind."""

    name = "certify_random"
    pass_s = 17.0
    KINDS = ("identity", "inclusion", "quotient", "table", "collapse")
    BATCHES = 100

    def build(self, rng: np.random.Generator, workdir: Path) -> list:
        # One operation certifies one map of each kind. Single maps would
        # make the latency bimodal (norm-deficit maps exit in a few
        # milliseconds), which puts the median in the gap between the
        # modes. The map certified again with a caller-supplied pair set
        # (every fifth map) takes each kind in turn.
        # Requested sizes cycle through 6..16 points per side, the same for
        # every seed; the five maps of an operation get sizes spread over
        # that range, so operations cost about the same.
        batches = []
        for b in range(self.BATCHES):
            batch = []
            for k, kind in enumerate(self.KINDS):
                dn, cn = 6 + (3 * b + 5 * k) % 11, 6 + (b + 2 * k) % 11
                phi = self._map(rng, b, kind, dn, cn)
                batch.append((phi.domain.dist, phi.domain.base, phi.codomain.dist,
                              phi.codomain.base, phi.image, k == b % len(self.KINDS)))
            batches.append(tuple(batch))
        return [batches[i] for i in rng.permutation(len(batches))]

    @staticmethod
    def _map(rng: np.random.Generator, b: int, kind: str, dn: int, cn: int):
        """``random_one_lipschitz_map(rng, dn, cn, kind)``, with the space kind
        and the sizes it would draw fixed for identity and inclusion maps.

        Those two families draw their space kind (Euclidean, graph,
        snowflake) and their size, and the vertex enumeration they lead to
        grows steeply with both; drawn per seed, they moved a run's median
        by a fifth from seed to seed. Here the batch index fixes them, so
        seeds differ in geometry only, as on ``transport``.
        """
        if kind == "identity":
            space = fixtures.random_space(rng, 3 + (7 * b) % 8, SPACE_KINDS[b % 3])
            return composition.LipschitzMap(space, space, tuple(range(space.n)))
        if kind == "inclusion":
            m = fixtures.random_space(rng, cn, SPACE_KINDS[(b + 1) % 3])
            size = 2 + (5 * b) % (cn - 1)
            subset = [m.base] + [int(v) for v in rng.choice(
                [i for i in range(m.n) if i != m.base], size=size - 1, replace=False)]
            sub = metric_core.validate_space(m.dist[np.ix_(subset, subset)])
            return composition.LipschitzMap(sub, m, tuple(subset))
        return fixtures.random_one_lipschitz_map(rng, dn, cn, kind)

    def run(self, batch, tracer=None) -> list[dict]:
        results = []
        for d_dom, base_dom, d_cod, base_cod, image, with_pairs in batch:
            domain = metric_core.validate_space(d_dom, base=base_dom)
            codomain = metric_core.validate_space(d_cod, base=base_cod)
            phi = composition.LipschitzMap(domain, codomain, image)
            _enumerate_cold(phi, tracer)
            report = composition.certify_isometry(phi, method="both")
            pair_verdict = None
            if with_pairs:
                pair_verdict = composition.certify_isometry_dual(
                    phi, pairs=list(codomain.pairs())).verdict
            results.append({"verdict": report.verdict, "pair_verdict": pair_verdict,
                            "norm": composition.operator_norm(phi), "tol": _cert_tol(phi)})
        return results

    def check(self, batch, results: list[dict]) -> str | None:
        for kind, res in zip(self.KINDS, results):
            if res["pair_verdict"] == "isometric" and res["verdict"] != "isometric":
                return f"{kind} map: pair-set certificate is positive but the full verdict is not"
            if res["norm"] < 1.0 - res["tol"] and res["verdict"] == "isometric":
                return f"{kind} map of norm {res['norm']!r} certified isometric"
        return None


class Cli:
    """One `python -m lipfree.cli` subprocess on generated files."""

    name = "cli"
    pass_s = 6.0
    LABELS = ("validate", "validate_graph", "norm", "freenorm_flow", "freenorm_both",
              "extremes", "isometry", "experiment_interval")

    def build(self, rng: np.random.Generator, workdir: Path) -> list:
        workdir.mkdir(parents=True, exist_ok=True)

        def write(name: str, obj) -> str:
            path = workdir / name
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        space40 = fixtures.random_space(rng, 40, "euclidean")
        space40_path = write("space40.json", io.space_to_dict(space40))

        edges = [[int(rng.integers(v)), v, float(rng.uniform(0.5, 2.0))] for v in range(1, 40)]
        edges += [[int(u), int(v), float(rng.uniform(0.5, 2.0))]
                  for u, v in (rng.choice(40, size=2, replace=False) for _ in range(20))]
        graph = metric_core.from_weighted_graph(40, edges)
        graph_path = write("graph40.json", {"labels": list(graph.labels), "base": 0,
                                            "metric": {"type": "graph", "n": 40, "edges": edges}})

        values = rng.normal(size=40) * space40.diameter
        function_path = write("function40.json", {"space": "space40.json",
                                                  "values": values.tolist()})
        norm = lipschitz.lipschitz_norm(lipschitz.LipschitzFunction(space40, values)).value

        while True:
            mu = fixtures.random_zero_sum(rng, space40)
            if np.count_nonzero(mu.coeffs) == 40:
                break
        vector_path = write("vector40.json", {"space": "space40.json",
                                              "coeffs": mu.coeffs.tolist()})
        transport = freespace.free_norm_dual(mu).value

        space16 = fixtures.random_space(rng, 16)
        space16_path = write("space16.json", io.space_to_dict(space16))
        vertex_count = len(freespace.extreme_molecules(space16))

        phi = fixtures.random_one_lipschitz_map(rng, 10, 10, "inclusion")
        map_path = write("map10.json", {"domain": io.space_to_dict(phi.domain),
                                        "codomain": io.space_to_dict(phi.codomain),
                                        "image": list(phi.image)})
        verdict = composition.certify_isometry(phi, method="both").verdict

        def approx(want):
            return lambda got: abs(got - want) <= FREENORM_AGREEMENT * max(1.0, abs(want))

        def equals(want):
            return lambda got: got == want

        def is_true(got):
            return got is True

        # (label, argv, expected command, checks on results), in LABELS order
        return [
            ("validate", ["validate", space40_path], "validate",
             {"valid": is_true, "points": equals(40)}),
            ("validate_graph", ["validate", graph_path], "validate",
             {"valid": is_true, "points": equals(40)}),
            ("norm", ["norm", function_path], "norm", {"norm": approx(norm)}),
            ("freenorm_flow", ["freenorm", vector_path, "--method", "flow"], "freenorm",
             {"value": approx(transport)}),
            ("freenorm_both", ["freenorm", vector_path, "--method", "both"], "freenorm",
             {"agree": is_true, "flow": approx(transport)}),
            ("extremes", ["extremes", space16_path], "extremes",
             {"count": equals(vertex_count)}),
            ("isometry", ["isometry", "--map", map_path, "--method", "both"], "isometry",
             {"verdict": equals(verdict)}),
            ("experiment_interval", ["experiment", "interval", "--mesh", "16",
                                     "--map", "builtin:fold"], "experiment.interval",
             {"certificate": lambda c: c["verdict"] == "isometric"}),
        ]

    def run(self, item, tracer=None, prefix=None):
        """Run the command; ``prefix`` replaces ``python -m lipfree.cli``."""
        argv = item[1]
        proc = subprocess.run((prefix or [sys.executable, "-m", "lipfree.cli"]) + argv,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item, res) -> str | None:
        label, _, command, expect = item
        code, stdout, stderr = res
        if code != 0:
            return f"{label}: exit code {code}: {stderr.strip()[-200:]}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{label}: stdout is not one JSON report"
        if report.get("command") != command:
            return f"{label}: command {report.get('command')!r}, expected {command!r}"
        results = report.get("results", {})
        for key, ok in expect.items():
            if key not in results or not ok(results[key]):
                return f"{label}: results.{key} = {results.get(key)!r} is wrong"
        return None


WORKLOADS = {w.name: w for w in (MeshSweep, Transport, CertifyRandom, Cli)}

