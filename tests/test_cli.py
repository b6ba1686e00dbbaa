import argparse
import contextlib
import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lipfree import cli, composition, io
from lipfree.fixtures import builtin_map, circle_geodesic, tripod
from lipfree.freespace import DualResult
from lipfree.io import geodesic_space_to_dict, space_to_dict
from lipfree.metric_core import REL_TOL, interval_net


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "lipfree.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


def run_in_process(capsys, *args):
    """Exit code, report (or None) and stderr of one in-process CLI call."""
    code = cli.run(list(args))
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


def read_record(path, via=None):
    """The input record of one file read, digested from its bytes here;
    ``via`` is (referencing file, field)."""
    record = {"path": str(path), "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
    return record if via is None else {**record, "via": {"path": str(via[0]), "field": via[1]}}


def strip_timing(report):
    report = copy.deepcopy(report)
    report.pop("timing", None)
    report.get("results", {}).pop("wall_time_s", None)
    return report


@pytest.fixture
def files(tmp_path):
    two = write(tmp_path / "two.json", {
        "labels": ["a", "b"], "base": 0,
        "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]},
    })
    bad = write(tmp_path / "bad.json", {
        "labels": ["a", "b", "c"], "base": 0,
        "metric": {"type": "matrix", "d": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
    })
    vec = write(tmp_path / "vec.json", {"space": "two.json", "coeffs": [1, -1]})
    mp = write(tmp_path / "map.json", {
        "domain": "two.json", "codomain": "two.json", "image": [0, 1],
    })
    three = write(tmp_path / "three.json", {
        "labels": ["a", "b", "c"], "base": 0,
        "metric": {"type": "matrix", "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    })
    map3 = write(tmp_path / "map3.json", {
        "domain": "three.json", "codomain": "three.json", "image": [0, 1, 2],
    })
    net = write(tmp_path / "net4.json", space_to_dict(interval_net(4)))
    fn = write(tmp_path / "f.json", {"space": "net4.json",
                                     "values": [0, 0.25, 0.5, 0.75, 1.0]})
    geo = write(tmp_path / "tripod.json", geodesic_space_to_dict(tripod()))
    return {"two": two, "bad": bad, "vec": vec, "map": mp, "net": net,
            "fn": fn, "geo": geo, "three": three, "map3": map3, "dir": tmp_path}


class TestExitCodes:
    def test_valid_space(self, files):
        proc = run_cli("validate", files["two"])
        assert proc.returncode == 0
        report = report_of(proc)
        assert report["results"]["valid"] is True
        assert report["argv"] == ["validate", files["two"]]  # sys.argv[1:]
        assert report["inputs"] == [read_record(files["two"])]

    def test_metric_violation_is_a_computed_verdict(self, files):
        proc = run_cli("validate", files["bad"])
        assert proc.returncode == 0
        results = report_of(proc)["results"]
        assert results["valid"] is False
        assert results["error"]["kind"] == "TriangleViolation"
        assert results["error"]["witness"] == [0, 1, 2]
        assert report_of(proc)["inputs"] == [read_record(files["bad"])]

    @pytest.mark.parametrize("flags, tolerances", [
        ((), {"tol_validation": REL_TOL * 5.0}),  # the default, from max(d) = 5
        (("--tol", "0.5"), {"tol_validation": 0.5}),
    ])
    def test_failed_triangle_check_reports_its_tolerance(self, files, capsys, flags,
                                                         tolerances):
        code, report, _ = run_in_process(capsys, "validate", files["bad"], *flags)
        assert code == 0
        assert report["results"]["error"]["kind"] == "TriangleViolation"
        assert report["tolerances"] == tolerances

    def test_exact_failure_reports_no_tolerance(self, files, capsys):
        asymmetric = write(files["dir"] / "asym.json", {
            "metric": {"type": "matrix", "d": [[0, 1], [2, 0]]}})
        code, report, _ = run_in_process(capsys, "validate", asymmetric)
        assert code == 0
        assert report["results"]["error"]["kind"] == "AsymmetricDistance"
        assert report["tolerances"] == {}

    @pytest.mark.parametrize("metric, kind", [
        ({"type": "matrix", "d": [[0, 1], [2, 0]]}, "AsymmetricDistance"),
        ({"type": "graph", "n": 3, "edges": [[0, 1, 1]]}, "DisconnectedGraph"),
    ])
    def test_exact_failure_names_no_given_tol(self, files, capsys, metric, kind):
        # a --tol beside a refusal by an exact test took no part in it
        path = write(files["dir"] / "refused.json", {"metric": metric})
        code, report, _ = run_in_process(capsys, "validate", path, "--tol", "0")
        assert code == 0
        assert report["results"]["error"]["kind"] == kind
        assert report["tolerances"] == {}

    def test_nonzero_self_distance_is_named(self, files, capsys):
        path = write(files["dir"] / "diag.json", {
            "metric": {"type": "matrix", "d": [[1, 1], [1, 0]]}})
        code, report, _ = run_in_process(capsys, "validate", path)
        assert code == 0
        assert report["results"]["error"] == {
            "kind": "NonzeroSelfDistance", "message": "d[0][0]=1.0 is not zero",
            "witness": [0, 0]}
        code, report, err = run_in_process(capsys, "extremes", path)
        assert code == 2
        assert report is None
        assert "input error: NonzeroSelfDistance: d[0][0]=1.0 is not zero" in err

    @pytest.mark.parametrize("metric, where", [
        ({"type": "graph", "n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]},
         "metric.edges: a path length overflows"),
        ({"type": "matrix", "d": [[0, 1e308], [1e308, 0]]},
         "metric.d: 1e+308 is too large: sums overflow"),
    ])
    def test_overflowing_distances_are_malformed(self, files, capsys, metric, where):
        # the graph was once reported disconnected, after a RuntimeWarning
        path = write(files["dir"] / "huge.json", {"metric": metric})
        for command in ("validate", "extremes"):
            code, report, err = run_in_process(capsys, command, path)
            assert code == 2
            assert report is None
            assert err == f"input error: MalformedInput: {path}.{where}\n"

    @pytest.mark.parametrize("metric, where", [
        ({"type": "graph", "n": 3, "edges": [1.5, [1, 2, 1.0]]},
         "metric.edges: expected [i, j, w] triples"),
        ({"type": "graph", "n": 3, "edges": [[0, 1], [1, 2, 1.0]]},
         "metric.edges: expected [i, j, w] triples"),
        ({"type": "matrix", "d": [[0, 1], [1, 0, 2]]},
         "metric.d: expected rows of numbers of equal length"),
    ])
    def test_misshapen_space_names_the_fault(self, files, capsys, metric, where):
        path = write(files["dir"] / "misshapen.json", {"metric": metric})
        code, report, err = run_in_process(capsys, "validate", path)
        assert code == 2
        assert report is None
        assert err == f"input error: MalformedInput: {path}.{where}\n"

    def test_malformed_json_exits_2(self, files):
        broken = files["dir"] / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        proc = run_cli("validate", str(broken))
        assert proc.returncode == 2

    def test_missing_file_exits_2(self):
        proc = run_cli("norm", "/nonexistent/f.json")
        assert proc.returncode == 2

    @staticmethod
    def _unreadable(files, kind):
        if kind == "directory":
            return str(files["dir"])
        path = files["dir"] / "utf16.json"
        path.write_bytes(b'\xff\xfe{"metric": 1}')
        return str(path)

    @pytest.mark.parametrize("kind, reason", [("not_utf8", "not UTF-8"),
                                              ("directory", "cannot read file")])
    def test_unreadable_file_exits_2(self, files, capsys, kind, reason):
        path = self._unreadable(files, kind)
        code, report, err = run_in_process(capsys, "validate", path)
        assert code == 2
        assert report is None
        assert f"MalformedInput: {path}: {reason}" in err

    def test_unreadable_file_exits_2_without_traceback(self, files):
        proc = run_cli("validate", self._unreadable(files, "not_utf8"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n", [10 ** 9, 4 * 10 ** 9])
    def test_graph_with_too_few_edges_is_disconnected(self, files, capsys, n):
        """No n x n array is built: numpy would refuse both sizes."""
        path = write(files["dir"] / "huge.json",
                     {"metric": {"type": "graph", "n": n, "edges": [[0, 1, 1.0]]}})
        code, report, _ = run_in_process(capsys, "validate", path)
        assert code == 0
        assert report["results"]["valid"] is False
        assert report["results"]["error"]["kind"] == "DisconnectedGraph"
        assert len(report["results"]["error"]["message"]) < 80
        code, report, err = run_in_process(capsys, "extremes", path)
        assert code == 2
        assert report is None
        assert "input error: DisconnectedGraph" in err

    def test_unknown_command_exits_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    @pytest.mark.parametrize("space, where", [
        ({"metric": {"type": "matrix", "d": [[0, 1, 2], [1, 0, 1]]}}, "metric.d"),
        ({"labels": ["a"], "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}}, "labels"),
        ({"metric": {"type": "graph", "n": 2, "edges": [[0, 5, 1.0]]}}, "metric.edges"),
        ({"metric": {"type": "graph", "n": 3, "edges": [[0, 1, 1], [1, -1, 1]]}},
         "metric.edges"),
        ({"base": "x", "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}}, "base"),
        ({"metric": {"type": "graph", "n": "two", "edges": [[0, 1, 1.0]]}}, "metric.n"),
        ({"metric": 5}, "metric"),
        ({"metric": {"type": "matrix", "d": [[0, "1"], ["1", 0]]}}, "metric.d"),
        ({"metric": {"type": "matrix", "d": [[0, True], [True, 0]]}}, "metric.d"),
        ({"metric": {"type": "graph", "n": 2, "edges": [[0, 1, "2"]]}}, "metric.edges"),
        ({"metric": {"type": "matrix", "d": [[0]]}}, "metric.d"),
        ({"metric": {"type": "graph", "n": 1, "edges": []}}, "metric.n"),
    ])
    def test_malformed_space_exits_2_without_traceback(self, files, space, where):
        path = write(files["dir"] / "malformed.json", space)
        proc = run_cli("validate", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"MalformedInput: {path}.{where}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, field, entries", [
        ("norm", "values", [0, "a"]),
        ("norm", "values", [0, None]),
        ("freenorm", "coeffs", [1, "b"]),
        ("freenorm", "coeffs", [1, None]),
        ("norm", "values", [0, "1"]),
        ("norm", "values", [0, True]),
        ("freenorm", "coeffs", ["1", -1]),
        ("freenorm", "coeffs", [True, -1]),
    ])
    def test_non_numeric_entries_exit_2(self, files, capsys, command, field, entries):
        path = write(files["dir"] / "malformed.json", {"space": "two.json", field: entries})
        code, report, err = run_in_process(capsys, command, path)
        assert code == 2
        assert report is None
        assert f"MalformedInput: {path}.{field}:" in err

    def test_out_of_range_geodesic_path_exits_2(self, files, capsys):
        path = write(files["dir"] / "g.json", {
            "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]},
            "paths": [{"pair": [0, 9], "points": [0, 9]}]})
        code, report, err = run_in_process(
            capsys, "experiment", "geodesic", "--space", path, "--map", "builtin:identity")
        assert code == 2
        assert report is None
        assert f"MalformedInput: {path}.paths[0]:" in err

    @pytest.mark.parametrize("paths", [[], [{"pair": [0, 0], "points": [0, 0]}]],
                             ids=["no_paths", "equal_endpoints"])
    def test_geodesic_file_without_a_usable_path_exits_2(self, files, capsys, paths):
        path = write(files["dir"] / "g.json", {
            "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}, "paths": paths})
        code, report, err = run_in_process(
            capsys, "experiment", "geodesic", "--space", path, "--map", "builtin:identity")
        assert code == 2
        assert report is None
        assert f"MalformedInput: {path}.paths:" in err
        assert "Traceback" not in err

    def test_boolean_labels_are_not_interval_coordinates(self, files, capsys):
        net = space_to_dict(interval_net(2))
        net["labels"] = [False, 0.5, True]
        write(files["dir"] / "odd.json", net)
        path = write(files["dir"] / "odd_map.json", {
            "domain": "odd.json", "codomain": "odd.json", "image": [0, 1, 2]})
        code, report, err = run_in_process(capsys, "experiment", "interval",
                                           "--map", f"file:{path}")
        assert code == 2
        assert report is None
        assert "input error: CodomainNotInterval" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("label", [None, [0.5], {"t": 0.5}])
    def test_non_string_labels_are_not_an_interval(self, files, capsys, label):
        net = space_to_dict(interval_net(2))
        net["labels"][1] = label
        write(files["dir"] / "odd.json", net)
        path = write(files["dir"] / "odd_map.json", {
            "domain": "odd.json", "codomain": "odd.json", "image": [0, 1, 2]})
        code, report, err = run_in_process(capsys, "experiment", "interval",
                                           "--map", f"file:{path}")
        assert code == 2
        assert report is None
        assert "input error: CodomainNotInterval" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["fold", "halving", "nope"])
    def test_unknown_geodesic_builtin_names_the_map_flag(self, files, capsys, name):
        code, report, err = run_in_process(capsys, "experiment", "geodesic", "--space",
                                           files["geo"], "--map", f"builtin:{name}")
        assert code == 2
        assert report is None
        assert f"MalformedInput: --map: unknown builtin map {name!r}" in err
        assert "builtin:identity" in err

    @pytest.mark.parametrize("pairs", ["a,b", "0,0", "0,7", "-1,2", "0,1,2", "0", ";"])
    @pytest.mark.parametrize("command", ["norming", "isometry"])
    def test_bad_pairs_exit_2(self, files, capsys, command, pairs):
        argv = (["norming", files["three"]] if command == "norming"
                else ["isometry", "--map", files["map3"], "--method", "dual"])
        code, report, err = run_in_process(capsys, *argv, f"--pairs={pairs}")
        assert code == 2
        assert report is None
        assert "MalformedInput: --pairs:" in err

    @pytest.mark.parametrize("name", ["fold", "halving"])
    def test_non_norming_pairs_exit_2(self, files, capsys, name):
        # (0, 1) misses a vertex of either codomain; halving's norm
        # deficit must not decide the verdict before the pairs are checked
        phi = builtin_map(name, 4)
        write(files["dir"] / "domain.json", space_to_dict(phi.domain))
        write(files["dir"] / "codomain.json", space_to_dict(phi.codomain))
        mp = write(files["dir"] / f"{name}.json", {
            "domain": "domain.json", "codomain": "codomain.json", "image": list(phi.image)})
        code, report, err = run_in_process(capsys, "isometry", "--map", mp, "--pairs", "0,1")
        assert code == 2
        assert report is None
        assert "NotNorming" in err

    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    def test_non_norming_pairs_exit_2_for_every_method(self, files, capsys, method):
        code, report, err = run_in_process(capsys, "isometry", "--map", files["map3"],
                                           "--method", method, "--pairs", "0,2")
        assert code == 2
        assert report is None
        assert "NotNorming" in err

    @pytest.mark.parametrize("subset", ["a", "0,9", "0,1,1", "0,-1", "1,2", ","])
    def test_bad_subset_exits_2(self, files, capsys, subset):
        code, report, err = run_in_process(capsys, "extend", files["fn"],
                                           f"--subset={subset}")
        assert code == 2
        assert report is None
        assert "MalformedInput: --subset:" in err

    def test_flow_lp_disagreement_exits_3(self, files, capsys, monkeypatch):
        real = cli.free_norm_dual

        def shifted(mu):
            value, maximizer = real(mu)
            return DualResult(value + 1.0, maximizer)

        monkeypatch.setattr(cli, "free_norm_dual", shifted)
        code, report, _ = run_in_process(capsys, "freenorm", files["vec"], "--method", "both")
        assert code == 3
        assert report["error"]["kind"] == "MethodDisagreement"
        assert report["results"]["flow"] == pytest.approx(1.0)
        assert report["results"]["lp"] == pytest.approx(2.0)
        assert report["results"]["agree"] is False
        assert report["argv"] == ["freenorm", files["vec"], "--method", "both"]
        assert report["inputs"] == [read_record(files["vec"]),
                                    read_record(files["two"], (files["vec"], "space"))]
        assert report["tolerances"] == {"agreement": REL_TOL, "lp_feasibility": REL_TOL}

    def _tiny_vector(self, files, coeffs):
        # the path 0-1-2 with distances scaled by 1e-9
        tiny = write(files["dir"] / "tiny.json", {
            "metric": {"type": "matrix", "d": [[0, 1e-9, 2e-9], [1e-9, 0, 1e-9],
                                               [2e-9, 1e-9, 0]]}})
        return write(files["dir"] / "tiny_vec.json", {"space": tiny, "coeffs": coeffs})

    def test_agreement_is_relative_below_unit_scale(self, files, capsys, monkeypatch):
        # flow 3e-9 against a dual of 0: within 1e-8 absolutely, yet wrong
        real = cli.free_norm_dual
        monkeypatch.setattr(cli, "free_norm_dual",
                            lambda mu: DualResult(0.0, real(mu).maximizer))
        vec = self._tiny_vector(files, [1.0, 1.0, -2.0])
        code, report, _ = run_in_process(capsys, "freenorm", vec, "--method", "both")
        assert code == 3
        assert report["results"]["flow"] == pytest.approx(3e-9)
        assert report["results"]["agree"] is False

    @pytest.mark.parametrize("coeffs", [[1.0, 1.0, -2.0], [0.0, 0.0, 0.0]])
    def test_agreement_holds_below_unit_scale(self, files, capsys, coeffs):
        vec = self._tiny_vector(files, coeffs)
        code, report, _ = run_in_process(capsys, "freenorm", vec, "--method", "both")
        assert code == 0
        assert report["results"]["agree"] is True

    @pytest.mark.parametrize("excess, code", [(0.5e-9, 0), (2e-9, 3)])
    def test_agreement_is_one_relative_tol(self, files, capsys, monkeypatch, excess, code):
        # the LP reads excess * flow too high: within REL_TOL it agrees, beyond
        # it exits 3
        real = cli.free_norm_dual
        monkeypatch.setattr(cli, "free_norm_dual", lambda mu: DualResult(
            real(mu).value * (1.0 + excess), real(mu).maximizer))
        got, report, _ = run_in_process(capsys, "freenorm", files["vec"], "--method", "both")
        assert got == code
        assert report["results"]["agree"] is (code == 0)
        assert report["tolerances"]["agreement"] == REL_TOL

    def test_tol_never_loosens_the_floor(self, files, capsys):
        # f = (0, 1, 1) on the line 0-1-2 lies 0.5 below the floor (0, 1, 1.5)
        # at point 2; --tol only admits the space, so 0.6 does not excuse it
        f = write(files["dir"] / "f_line.json", {"space": "three.json", "values": [0, 1, 1]})
        g = write(files["dir"] / "g_line.json", {"space": "three.json", "values": [0, 1, 1.5]})
        for tol in ((), ("--tol", "0.6")):
            code, report, err = run_in_process(capsys, "extend", f, "--subset", "0,1,2",
                                               "--floor", g, *tol)
            assert code == 2 and report is None
            assert "FloorExceedsFunction" in err

    def test_certifier_disagreement_exits_3(self, files, capsys, monkeypatch):
        real = composition._primal_certificate

        def flipped(phi):
            cert = real(phi)
            return dataclasses.replace(
                cert, verdict="not_isometric" if cert.isometric else "isometric")

        monkeypatch.setattr(composition, "_primal_certificate", flipped)
        code, report, _ = run_in_process(capsys, "isometry", "--map", files["map"],
                                         "--method", "both")
        assert code == 3
        assert report["error"]["kind"] == "MethodDisagreement"
        assert report["results"]["dual"]["verdict"] == "isometric"
        assert report["results"]["primal"]["verdict"] == "not_isometric"
        assert report["argv"] == ["isometry", "--map", files["map"], "--method", "both"]
        assert report["inputs"] == [read_record(files["map"]),
                                    read_record(files["two"], (files["map"], "domain")),
                                    read_record(files["two"], (files["map"], "codomain"))]
        assert report["tolerances"] == {"tol_metric": REL_TOL}  # the diameter is 1

    def test_tol_does_not_loosen_the_dual(self, files, capsys):
        # the vertex (1, 2) has its one preimage 1e-6 farther: --tol 1e-3
        # admits the spaces and leaves the ratio rule to both certifiers
        stretched = write(files["dir"] / "stretched.json", {
            "domain": {"metric": {"type": "matrix", "d": [
                [0, 1, 2 + 1e-6], [1, 0, 1 + 1e-6], [2 + 1e-6, 1 + 1e-6, 0]]}},
            "codomain": "three.json", "image": [0, 1, 2]})
        code, report, _ = run_in_process(capsys, "isometry", "--map", stretched,
                                         "--method", "both", "--tol", "1e-3")
        assert code == 0
        results = report["results"]
        assert results["verdict"] == results["dual"]["verdict"] == "not_isometric"
        assert results["dual"]["failing_pair"] == [1, 2]
        assert report["tolerances"] == {"tol_metric": REL_TOL * 2.0, "tol_validation": 1e-3}
        assert results["dual"]["tolerances"] == {"tol_metric": REL_TOL * 2.0,
                                                 "preimage_ratio": REL_TOL}

    def test_repeated_path_point_exits_2(self, files, capsys):
        path = write(files["dir"] / "g.json", {
            "metric": {"type": "matrix", "d": [[0, 1, 2, 1.5], [1, 0, 1, 1],
                                               [2, 1, 0, 1.5], [1.5, 1, 1.5, 0]]},
            "paths": [{"pair": [0, 2], "points": [0, 1, 1, 2]}]})
        code, report, err = run_in_process(
            capsys, "experiment", "geodesic", "--space", path, "--map", "builtin:identity")
        assert code == 2
        assert report is None
        assert f"MalformedInput: {path}.paths:" in err

    @pytest.mark.parametrize("step", (1e-1, 1e-3))
    @pytest.mark.parametrize("k", (0.25, 4.0))
    def test_near_straight_paths_never_exit_3(self, files, capsys, step, k):
        """Arclength over chord is 1 + k REL_TOL: the path is admitted and
        projected when k < 1, and rejected as input otherwise."""
        chord = 2 * step * (1 - k * REL_TOL)
        path = write(files["dir"] / "near.json", {
            "metric": {"type": "matrix", "d": [[0, step, chord, 1], [step, 0, step, 1],
                                               [chord, step, 0, 1], [1, 1, 1, 0]]},
            "paths": [{"pair": [0, 2], "points": [0, 1, 2]}]})
        code, _, err = run_in_process(
            capsys, "experiment", "geodesic", "--space", path, "--map", "builtin:identity")
        assert (code, "NotStraightPath" in err) == ((0, False) if k < 1 else (2, True))

    def test_inconclusive_dual_pair_exits_0(self, files, capsys):
        # the path 0-1-2-3 (weights 1, 0.5, 1) squeezed onto the path 0-1-2
        # is isometric; the listed pair (0, 2) is norming but no vertex, and
        # its preimage distance 2.5 exceeds 2
        squeezed = write(files["dir"] / "squeezed.json", {
            "domain": {"metric": {"type": "graph", "n": 4,
                                  "edges": [[0, 1, 1], [1, 2, 0.5], [2, 3, 1]]}},
            "codomain": "three.json", "image": [0, 1, 1, 2]})
        code, report, _ = run_in_process(capsys, "isometry", "--map", squeezed,
                                         "--method", "both", "--pairs", "0,1;1,2;0,2")
        assert code == 0
        results = report["results"]
        assert results["verdict"] == results["primal"]["verdict"] == "isometric"
        assert results["dual"]["verdict"] == "inconclusive"
        assert results["dual"]["scope"] == "sufficient_only"
        assert results["dual"]["failing_pair"] == [0, 2]

    @pytest.mark.parametrize("argv", [
        ("isometry", "--map", "{halving}", "--method", "dual", "--tol=nan"),
        ("isometry", "--map", "{halving}", "--method", "both", "--tol=nan"),
        ("isometry", "--map", "{halving}", "--method", "primal", "--tol=inf"),
        ("isometry", "--map", "{map3}", "--tol=-1"),
        ("validate", "{three}", "--tol=nan"),
        ("extremes", "{three}", "--tol=-inf"),
    ])
    def test_bad_tol_exits_2(self, files, capsys, argv):
        """The path 0-2-4 mapped onto the path 0-1-2 has norm 1/2; no
        tolerance may certify it, crash on it or print NaN for it."""
        halving = write(files["dir"] / "halving.json", {
            "domain": {"metric": {"type": "matrix", "d": [[0, 2, 4], [2, 0, 2], [4, 2, 0]]}},
            "codomain": "three.json", "image": [0, 1, 2]})
        code, report, err = run_in_process(
            capsys, *[a.format(halving=halving, **files) for a in argv])
        assert code == 2
        assert report is None
        assert "MalformedInput: --tol:" in err

    @pytest.mark.parametrize("argv", [
        ("isometry", "--map", "{map}", "--method", "bogus"),
        ("freenorm", "{vec}", "--method", "dual"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold",
         "--method", "bogus"),
        ("experiment", "interval", "--mesh", "0", "--map", "builtin:fold"),
        ("experiment", "interval", "--mesh", "-3", "--map", "builtin:fold"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--r-loc", "-1"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--r-loc", "0"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--r-loc", "nan"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--eps", "-1"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--eps", "inf"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--probe", "-2"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--probe", "2",
         "--seed", "-1"),
        ("experiment", "geodesic", "--space", "{geo}", "--map", "builtin:identity",
         "--r-loc", "-1"),
        ("experiment", "geodesic", "--space", "{geo}", "--map", "builtin:identity",
         "--eps", "nan"),
        ("norm", "{fn}", "--tol", "1e-9"),
        ("freenorm", "{vec}", "--tol", "1e-9"),
    ])
    def test_bad_flags_exit_2_without_traceback(self, files, capsys, argv):
        try:
            code = cli.run([a.format(**files) for a in argv])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_mesh_too_large_for_memory_exits_2(self, capsys, monkeypatch):
        # a huge --mesh asks numpy for more memory than the machine has;
        # the allocation is faked here rather than attempted
        def too_large(name, n):
            raise MemoryError(f"Unable to allocate an interval net with {n + 1} points")

        monkeypatch.setattr(cli, "builtin_map", too_large)
        code, report, err = run_in_process(capsys, "experiment", "interval",
                                           "--mesh", "1000000", "--map", "builtin:identity")
        assert code == 2
        assert report is None
        assert err == ("input error: MemoryError: Unable to allocate an interval net "
                       "with 1000001 points\n")


class TestCommands:
    def test_norm(self, files):
        proc = run_cli("norm", files["fn"])
        assert proc.returncode == 0
        results = report_of(proc)["results"]
        assert results["norm"] == pytest.approx(1.0)

    def test_freenorm_both(self, files):
        proc = run_cli("freenorm", files["vec"], "--method", "both")
        results = report_of(proc)["results"]
        assert results["agree"] is True
        assert results["flow"] == pytest.approx(results["lp"], abs=1e-8)

    def test_freenorm_single_methods(self, files):
        flow = report_of(run_cli("freenorm", files["vec"], "--method", "flow"))
        lp = report_of(run_cli("freenorm", files["vec"], "--method", "lp"))
        assert flow["results"]["value"] == pytest.approx(1.0)
        assert lp["results"]["value"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("method", ["flow", "lp", "both"])
    def test_freenorm_reports_the_lp_tolerance(self, files, capsys, method):
        code, report, _ = run_in_process(capsys, "freenorm", files["vec"],
                                         "--method", method)
        assert code == 0
        lp = {} if method == "flow" else {"lp_feasibility": REL_TOL}
        assert report["tolerances"] == {"agreement": REL_TOL, **lp}

    def test_extremes(self, files):
        results = report_of(run_cli("extremes", files["net"]))["results"]
        assert results["pairs"] == [[0, 1], [1, 2], [2, 3], [3, 4]]

    @pytest.mark.parametrize("command", ["extremes", "norming"])
    def test_admitting_tol_recorded_beside_the_metric_tol(self, files, capsys, command):
        # the triangle inequality is off by 0.1: --tol 0.2 admits the
        # space, and space.tol still decides that 1 lies between 0 and 2
        loose = write(files["dir"] / "loose.json", {
            "metric": {"type": "matrix", "d": [[0, 1, 2.1], [1, 0, 1], [2.1, 1, 0]]}})
        pairs = ["--pairs", "0,1;1,2"] if command == "norming" else []
        code, report, _ = run_in_process(capsys, command, loose, "--tol", "0.2", *pairs)
        assert code == 0
        assert report["tolerances"] == {"tol_metric": REL_TOL * 2.1, "tol_validation": 0.2}
        if command == "extremes":
            assert report["results"]["pairs"] == [[0, 1], [1, 2]]
        else:
            assert report["results"]["is_norming"] is True
        code, report, _ = run_in_process(capsys, command, files["three"], *pairs)
        assert report["tolerances"] == {"tol_metric": REL_TOL * 2.0}

    @pytest.mark.parametrize("form", ["matrix", "graph"])
    def test_tol_named_only_where_it_admitted_the_space(self, files, capsys, form):
        # one file, the net {0, 1/2, 1} with a stored path, read by every
        # command that takes --tol: --tol 0 admits the matrix form, whose
        # triangle check runs at 0, and is named beside the space's own
        # tolerance; a graph-form space is never rechecked, so its own
        # tolerance is named alone
        metric = ({"type": "matrix", "d": [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]]}
                  if form == "matrix" else
                  {"type": "graph", "n": 3, "edges": [[0, 1, 0.5], [1, 2, 0.5]]})
        space = write(files["dir"] / "net2.json", {
            "labels": ["0.0", "0.5", "1.0"], "base": 0, "metric": metric,
            "paths": [{"pair": [0, 2], "points": [0, 1, 2]}]})
        mp = write(files["dir"] / "net2_map.json", {
            "domain": "net2.json", "codomain": "net2.json", "image": [0, 1, 2]})
        fn = write(files["dir"] / "net2_f.json", {"space": "net2.json", "values": [0, 1, 0]})
        admitted = {"tol_validation": 0.0} if form == "matrix" else {}
        for argv in (("validate", space), ("extremes", space),
                     ("norming", space, "--pairs", "0,1;1,2"), ("isometry", "--map", mp),
                     ("extend", fn, "--subset", "0,1", "--floor", fn),
                     ("experiment", "interval", "--map", f"file:{mp}"),
                     ("experiment", "geodesic", "--space", space, "--map", "builtin:identity")):
            code, report, err = run_in_process(capsys, *argv, "--tol", "0")
            assert code == 0, err
            assert report["results"].get("valid", True) is True
            tolerances = {k: v for k, v in report["tolerances"].items()
                          if k not in ("r_loc", "eps")}  # the experiments' scales
            assert tolerances == {"tol_metric": REL_TOL * 1.0, **admitted}, argv[:2]

    def test_norming(self, files):
        proc = run_cli("norming", files["net"], "--pairs", "0,1;1,2;2,3;3,4")
        assert report_of(proc)["results"]["is_norming"] is True
        proc = run_cli("norming", files["net"], "--pairs", "0,4")
        assert report_of(proc)["results"]["is_norming"] is False

    def test_isometry(self, files):
        proc = run_cli("isometry", "--map", files["map"], "--method", "both")
        results = report_of(proc)["results"]
        assert results["verdict"] == "isometric"
        assert "wall_time_s" in results

    def test_extend(self, files):
        proc = run_cli("extend", files["fn"], "--subset", "0,4")
        results = report_of(proc)["results"]
        assert results["values"] == [0, 0.25, 0.5, 0.75, 1.0]
        assert results["norm"] == pytest.approx(1.0)

    def test_report_written_to_out(self, files):
        out = files["dir"] / "report.json"
        proc = run_cli("validate", files["two"], "--out", str(out))
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["results"]["valid"] is True


class TestExperiments:
    def test_interval_builtin_with_csv(self, files):
        csv_path = files["dir"] / "profile.csv"
        proc = run_cli("experiment", "interval", "--mesh", "8",
                       "--map", "builtin:fold", "--csv", str(csv_path))
        assert proc.returncode == 0
        results = report_of(proc)["results"]
        assert results["certificate"]["verdict"] == "isometric"
        assert results["necessary"]["max_defect"] <= 4 / 8
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,best_ratio,defect"
        assert len(lines) == 1 + len(results["necessary"]["rows"])

    def test_out_writes_the_report_and_no_other_file(self, files, capsys):
        out_dir = files["dir"] / "out"
        out_dir.mkdir()
        code, report, _ = run_in_process(
            capsys, "experiment", "interval", "--mesh", "4", "--map", "builtin:fold",
            "--out", str(out_dir / "report.json"))
        assert code == 0 and report is None
        assert [p.name for p in out_dir.iterdir()] == ["report.json"]
        report = json.loads((out_dir / "report.json").read_text())
        assert report["results"]["certificate"]["verdict"] == "isometric"

    def test_interval_halving_negative_is_exit_zero(self, files):
        proc = run_cli("experiment", "interval", "--mesh", "8",
                       "--map", "builtin:halving")
        assert proc.returncode == 0
        results = report_of(proc)["results"]
        assert results["certificate"]["verdict"] == "not_isometric"
        assert results["operator_norm"] == 0.5

    def test_probe_without_seed_is_seeded_by_default(self, files):
        # identical argv give identical reports, the random probe included
        write(files["dir"] / "net8.json", space_to_dict(interval_net(8)))
        path = write(files["dir"] / "halves.json", {
            "domain": "net8.json", "codomain": "net8.json", "image": [0, 0, 1, 1, 2, 2, 3, 3, 4]})
        a, b = (report_of(run_cli("experiment", "interval", "--map", f"file:{path}",
                                  "--probe", "1")) for _ in range(2))
        assert a["results"]["random_probe"]["seed"] == 0
        assert strip_timing(a) == strip_timing(b)

    def test_interval_probe_is_seeded(self, files):
        a = run_cli("experiment", "interval", "--mesh", "4",
                    "--map", "builtin:identity", "--probe", "8", "--seed", "3")
        b = run_cli("experiment", "interval", "--mesh", "4",
                    "--map", "builtin:identity", "--probe", "8", "--seed", "3")
        assert (strip_timing(report_of(a)) == strip_timing(report_of(b)))

    def test_geodesic_experiment(self, files):
        proc = run_cli("experiment", "geodesic", "--space", files["geo"],
                       "--map", "builtin:identity")
        assert proc.returncode == 0
        results = report_of(proc)["results"]
        assert results["certificate"]["verdict"] == "isometric"
        assert all(p["max_defect"] <= p["eps"] for p in results["necessary"])

    def test_geodesic_collapse_fails_the_necessary_check(self, files, capsys):
        gspace = circle_geodesic(16)
        write(files["dir"] / "circle.json", geodesic_space_to_dict(gspace))
        path = write(files["dir"] / "collapse.json", {
            "domain": "circle.json", "codomain": "circle.json", "image": [0] * 16})
        code, report, _ = run_in_process(capsys, "experiment", "geodesic", "--space",
                                         str(files["dir"] / "circle.json"), "--map", path)
        assert code == 0
        necessary = report["results"]["necessary"][0]
        assert necessary["max_defect"] == 1.0
        assert necessary["eps"] == report["tolerances"]["eps"] == 0.5
        assert necessary["holds"] is False
        sufficient = report["results"]["sufficient"]
        assert (sufficient["density_ok"], sufficient["predicts_isometric"]) == (False, False)
        assert sufficient["extra"]["worst_point"] == 8  # opposite the base

    def test_tolerances_in_force_are_never_null(self, files, capsys):
        runs = [
            ("experiment", "interval", "--mesh", "4", "--map", "builtin:identity"),
            ("experiment", "geodesic", "--space", files["geo"], "--map", "builtin:identity"),
        ]
        for argv in runs:
            code, report, _ = run_in_process(capsys, *argv)
            assert code == 0
            tolerances = report["tolerances"]
            assert set(tolerances) == {"r_loc", "eps", "tol_metric"}
            assert all(v is not None for v in tolerances.values())
        # the geodesic defaults are the ones its profiles used: r_loc is
        # four meshes, and eps four meshes per diameter (2 on the tripod),
        # capped at 1/2
        mesh = report["results"]["mesh"]
        for profile in report["results"]["necessary"]:
            assert profile["r_loc"] == tolerances["r_loc"] == 4 * mesh
            assert profile["eps"] == tolerances["eps"] == min(4 * mesh / 2.0, 0.5) == 0.5

    def test_builtin_requires_mesh(self):
        proc = run_cli("experiment", "interval", "--map", "builtin:fold")
        assert proc.returncode == 2


LOOSE = {"base": 0, "metric": {"type": "matrix",
                                "d": [[0, 1, 2.001], [1, 0, 1], [2.001, 1, 0]]}}

# One case per place a command's inputs can hold a space; the case puts
# LOOSE there, which only --tol 0.01 admits, and admissible spaces
# elsewhere. "far" lies above "three" and LOOSE, so maps from it are
# norm-one, as are maps from LOOSE onto "three" or the interval net.
TOL_REACH = [
    ("validate", ("validate", "{d}/loose.json")),
    ("extremes", ("extremes", "{d}/loose.json")),
    ("norming", ("norming", "{d}/loose.json", "--pairs", "0,1;1,2")),
    ("isometry", ("isometry", "--map", "{d}/loose_inline_three.json")),
    ("isometry", ("isometry", "--map", "{d}/loose_three.json")),
    ("isometry", ("isometry", "--map", "{d}/far_loose_inline.json")),
    ("isometry", ("isometry", "--map", "{d}/far_loose.json")),
    ("isometry", ("isometry", "--map", "{d}/far_three.json", "--domain", "{d}/loose.json")),
    ("isometry", ("isometry", "--map", "{d}/far_three.json",
                  "--codomain", "{d}/loose.json")),
    ("extend", ("extend", "{d}/f_loose_inline.json", "--subset", "0,1")),
    ("extend", ("extend", "{d}/f_loose.json", "--subset", "0,1")),
    ("extend", ("extend", "{d}/f_three.json", "--subset", "0,1",
                "--floor", "{d}/floor_loose.json")),
    ("experiment.interval", ("experiment", "interval",
                             "--map", "file:{d}/loose_inline_net.json")),
    ("experiment.interval", ("experiment", "interval", "--map", "file:{d}/loose_net.json")),
    ("experiment.geodesic", ("experiment", "geodesic", "--space", "{d}/loose_geo.json",
                             "--map", "builtin:identity")),
    ("experiment.geodesic", ("experiment", "geodesic", "--space", "{d}/three_geo.json",
                             "--map", "file:{d}/loose_three.json")),
]


def commands_with_tol(parser, prefix=()):
    """The dotted names of the (sub)commands that define --tol."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= commands_with_tol(sub, prefix + (name,))
        elif "--tol" in action.option_strings:
            found.add(".".join(prefix))
    return found


class TestTolReach:
    @pytest.fixture
    def tol_dir(self, files):
        d = files["dir"]
        three = {"base": 0, "metric": {"type": "matrix",
                                       "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}}
        write(d / "loose.json", LOOSE)
        write(d / "far.json", {"metric": {"type": "matrix",
                                          "d": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]}})
        write(d / "net2.json", space_to_dict(interval_net(2)))
        image = [0, 1, 2]
        for name, domain, codomain in (
                ("loose_inline_three", LOOSE, "three.json"),
                ("loose_three", "loose.json", "three.json"),
                ("far_loose_inline", "far.json", LOOSE),
                ("far_loose", "far.json", "loose.json"),
                ("far_three", "far.json", "three.json"),
                ("loose_inline_net", LOOSE, "net2.json"),
                ("loose_net", "loose.json", "net2.json")):
            write(d / f"{name}.json", {"domain": domain, "codomain": codomain,
                                       "image": image})
        for name, space, values in (("f_loose_inline", LOOSE, [0, 1, 2]),
                                    ("f_loose", "loose.json", [0, 1, 2]),
                                    ("f_three", "three.json", [0, 1, 2]),
                                    ("floor_loose", "loose.json", [0, 0, 0])):
            write(d / f"{name}.json", {"space": space, "values": values})
        write(d / "loose_geo.json", {**LOOSE, "paths": [{"pair": [0, 1], "points": [0, 1]}]})
        write(d / "three_geo.json", {**three, "paths": [{"pair": [0, 2],
                                                         "points": [0, 1, 2]}]})
        return d

    def test_table_covers_every_command_with_tol(self):
        assert {command for command, _ in TOL_REACH} == commands_with_tol(cli.build_parser())

    @pytest.mark.parametrize("command, argv", TOL_REACH,
                             ids=[" ".join(argv).replace("{d}/", "") for _, argv in TOL_REACH])
    def test_tol_admits_every_space_a_command_reads(self, tol_dir, capsys, command, argv):
        argv = [a.format(d=tol_dir) for a in argv]
        code, report, err = run_in_process(capsys, *argv)
        if command == "validate":  # a rejected space is validate's computed verdict
            assert code == 0 and report["results"]["valid"] is False
        else:
            assert code == 2 and "TriangleViolation" in err
        code, report, err = run_in_process(capsys, *argv, "--tol", "0.01")
        assert code == 0, err
        assert report["results"].get("valid", True) is True


# Every command that reads a file, with the files it reads in read order:
# (file,) for a file named on the command line, (file, referencing file,
# field) for one reached through a space reference.
READS = [
    (("validate", "{three}"), [("three",)]),
    (("norm", "{fn}"), [("fn",), ("net", "fn", "space")]),
    (("freenorm", "{vec}"), [("vec",), ("two", "vec", "space")]),
    (("extremes", "{net}"), [("net",)]),
    (("norming", "{net}", "--pairs", "0,1"), [("net",)]),
    (("isometry", "--map", "{map3}"),
     [("map3",), ("three", "map3", "domain"), ("three", "map3", "codomain")]),
    (("isometry", "--map", "{map3}", "--domain", "{three}", "--codomain", "{three}"),
     [("three",), ("three",), ("map3",)]),
    (("extend", "{f3}", "--subset", "0,1", "--floor", "{floor3}"),
     [("f3",), ("three", "f3", "space"), ("floor3",), ("three", "floor3", "space")]),
    (("experiment", "interval", "--map", "file:{net_map}"),
     [("net_map",), ("net", "net_map", "domain"), ("net", "net_map", "codomain")]),
    # --space replaces the map's codomain, which is never read
    (("experiment", "geodesic", "--space", "{geo}", "--map", "file:{tripod_map}"),
     [("geo",), ("tripod_map",), ("tripod_space", "tripod_map", "domain")]),
    (("experiment", "interval", "--mesh", "4", "--map", "builtin:fold"), []),
]


class TestInputs:
    @pytest.fixture
    def read_files(self, files):
        d = files["dir"]
        more = {
            "f3": write(d / "f3.json", {"space": "three.json", "values": [0, 1, 2]}),
            "floor3": write(d / "floor3.json", {"space": "three.json", "values": [0, 0, 0]}),
            "net_map": write(d / "net_map.json", {"domain": "net4.json", "codomain": "net4.json",
                                                  "image": [0, 1, 2, 3, 4]}),
            "tripod_space": write(d / "tripod_space.json", space_to_dict(tripod().space)),
        }
        more["tripod_map"] = write(d / "tripod_map.json", {
            "domain": "tripod_space.json", "codomain": "missing.json",
            "image": list(range(tripod().space.n))})
        return {**files, **more}

    @pytest.mark.parametrize("argv, reads", READS, ids=[" ".join(a) for a, _ in READS])
    def test_inputs_list_every_file_read(self, read_files, capsys, argv, reads):
        argv = [a.format(**read_files) for a in argv]
        code, report, err = run_in_process(capsys, *argv)
        assert code == 0, err
        assert report["argv"] == argv
        assert report["inputs"] == [
            read_record(read_files[name], (read_files[via[0]], via[1]) if via else None)
            for name, *via in reads]

    def test_a_changed_referenced_file_changes_the_inputs(self, tmp_path, capsys):
        line = {"metric": {"type": "matrix", "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}}
        write(tmp_path / "dom.json", line)
        cod = write(tmp_path / "cod.json", line)
        m3 = write(tmp_path / "m3.json", {"domain": "dom.json", "codomain": "cod.json",
                                          "image": [0, 1, 2]})
        _, before, _ = run_in_process(capsys, "isometry", "--map", m3)
        write(tmp_path / "cod.json",
              {"metric": {"type": "matrix", "d": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}})
        _, after, _ = run_in_process(capsys, "isometry", "--map", m3)
        assert (before["results"]["verdict"], after["results"]["verdict"]) == (
            "isometric", "not_isometric")
        assert before["inputs"][:2] == after["inputs"][:2]
        assert after["inputs"][2] == read_record(cod, (m3, "codomain"))
        assert before["inputs"][2]["sha256"] != after["inputs"][2]["sha256"]

    def test_collection_ends_with_the_command(self, files, capsys):
        code, _, _ = run_in_process(capsys, "validate", str(files["dir"] / "missing.json"))
        assert code == 2
        assert io.READS.get() is None


class TestDeterminism:
    def test_reports_identical_across_hash_seeds(self, files):
        """Fresh interpreters with different string hashing report the
        same, so no report depends on set or dict iteration order."""
        runs = [strip_timing(report_of(run_cli(
            "isometry", "--map", files["map3"], "--method", "both", "--pairs", "0,1;1,2",
            env_extra={"PYTHONHASHSEED": seed}))) for seed in ("1", "2")]
        assert runs[0] == runs[1]

    def test_repeat_run_bit_identical_modulo_timing(self, files):
        a = strip_timing(report_of(run_cli("extremes", files["net"])))
        b = strip_timing(report_of(run_cli("extremes", files["net"])))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


NUMBERS = [2, 0.5, 1.5, 7, -1, 0.0, -1.0, float("nan"), float("inf"), -float("inf"),
           1e308, 9e307, 10 ** 400]
OTHER_VALUES = ["0", "1.0", None, True, False, [], {}, [0, 1]]


def _paths(node, at=()):
    """Every position in a JSON tree, the root first."""
    yield at
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, at + (key,))


def _holds_number(node, at):
    """Whether position ``at`` of a JSON tree exists and holds a number."""
    try:
        return type(_at(node, at)) in (int, float)
    except (KeyError, IndexError, TypeError):
        return False


@st.composite
def mutated_space_file(draw):
    """A valid matrix- or graph-form space object, then up to four
    mutations: a number (an entry, weight, index or size) changed, a
    matrix entry and its mirror changed together, or a position dropped,
    retyped or appended to."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        obj = {"labels": [f"p{i}" for i in range(n)], "base": 0,
               "metric": {"type": "matrix",
                          "d": [[float(abs(i - j)) for j in range(n)] for i in range(n)]}}
    else:
        edges = [[i, i + 1, 1.0] for i in range(n - 1)]
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.sampled_from([0.5, 2.0, 1e308])).map(list),
                               max_size=3))  # chords and duplicates
        obj = {"base": 0, "metric": {"type": "graph", "n": n, "edges": edges}}
    for _ in range(draw(st.integers(0, 4))):
        # "mirror" twice: only a symmetric change reaches the zero and triangle checks
        op = draw(st.sampled_from(["number", "mirror", "mirror", "drop", "retype", "append"]))
        paths = list(_paths(obj))
        if op in ("number", "mirror"):
            paths = [at for at in paths if type(_at(obj, at)) in (int, float)]
        if op == "mirror":  # an earlier drop or append may have left no mirror entry
            paths = [at for at in paths if len(at) == 4 and at[:2] == ("metric", "d")
                     and at[2] != at[3] and _holds_number(obj, at[:2] + (at[3], at[2]))]
        if not paths:
            continue
        at = draw(st.sampled_from(paths))
        value = copy.deepcopy(draw(st.sampled_from(
            {"number": NUMBERS, "mirror": [7.0, 2.5, 0.5, 0.0, -1.0, 9e307]}.get(
                op, NUMBERS + OTHER_VALUES))))
        if not at:
            obj = value if op == "retype" else obj
            continue
        parent, target = _at(obj, at[:-1]), _at(obj, at)
        if op == "drop":
            del parent[at[-1]]
        elif op == "append" and isinstance(target, list):
            target.append(copy.deepcopy(target[-1]) if target and draw(st.booleans()) else value)
        elif op == "mirror":
            parent[at[-1]] = obj["metric"]["d"][at[3]][at[2]] = value
        else:
            parent[at[-1]] = value
    return obj


def _at(node, at):
    for key in at:
        node = node[key]
    return node


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process CLI call, captured
    without a function-scoped fixture."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(obj=mutated_space_file(), tol=st.sampled_from([None, "0", "0.5", "1e-12"]))
def test_validate_never_fails_on_a_mutated_space(tmp_path_factory, obj, tol):
    """validate exits 0 or 2 without a traceback, stops collecting reads,
    and names a --tol only as the triangle check's tolerance;
    extremes admits exactly the spaces validate finds valid."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    flags = [] if tol is None else ["--tol", tol]
    code, out, err = run_captured(["validate", str(path), *flags])
    assert io.READS.get() is None
    assert code in (0, 2) and "Traceback" not in err
    valid = False
    if code == 2:
        assert out == "" and err.startswith("input error: ")
    else:
        results, tolerances = (json.loads(out)[key] for key in ("results", "tolerances"))
        valid = results["valid"]
        if valid:
            admitted = tol is not None and obj["metric"]["type"] == "matrix"
            given = {"tol_validation": float(tol)} if admitted else {}
            assert tolerances == {"tol_metric": REL_TOL * results["diameter"], **given}
        elif results["error"]["kind"] == "TriangleViolation":
            assert set(tolerances) == {"tol_validation"}
            assert tol is None or tolerances["tol_validation"] == float(tol)
        else:
            assert tolerances == {}
    code, out, err = run_captured(["extremes", str(path), *flags])
    assert io.READS.get() is None
    assert code == (0 if valid else 2) and "Traceback" not in err


def test_cli_import_loads_no_scipy(tmp_path):
    # neither the import, a graph build nor validating a graph file loads
    # scipy's LP or sparse-graph modules, each in a fresh interpreter
    edges = [[v - 1, v, 1.0 + v / 40] for v in range(1, 40)] + [[0, 20, 3.0], [5, 33, 2.5]]
    graph = write(tmp_path / "graph40.json", {
        "labels": [f"g{i}" for i in range(40)], "base": 0,
        "metric": {"type": "graph", "n": 40, "edges": edges}})
    for step in ("import lipfree.cli",
                 "from lipfree.metric_core import from_weighted_graph; "
                 f"assert from_weighted_graph(40, {edges!r}).n == 40",
                 f"import lipfree.cli; assert lipfree.cli.run(['validate', {graph!r}]) == 0"):
        code = (f"{step}; import sys; print(sorted({{'scipy.optimize', 'scipy.sparse', "
                "'scipy.sparse.csgraph'} & set(sys.modules)), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "[]", step
