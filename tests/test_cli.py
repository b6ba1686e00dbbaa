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

import numpy as np
import pytest
from conftest import brute_vertices
from hypothesis import HealthCheck, given, settings, strategies as st

from lipfree import cli, composition, io, metric_core
from lipfree.errors import MalformedInput, NotNorming
from lipfree.fixtures import BUILTIN_MAPS, builtin_map, circle_geodesic, random_space, tripod
from lipfree.freespace import DualResult, is_norming
from lipfree.geodesic import check_geodesic_necessary, check_interval_necessary
from lipfree.io import geodesic_space_to_dict, space_to_dict
from lipfree.metric_core import REL_TOL, PointPair, interval_net


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


# One run of each experiment on the ``files`` fixture, by the command its report names
EXPERIMENTS = {
    "experiment.interval": ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold"),
    "experiment.geodesic": ("experiment", "geodesic", "--space", "{geo}",
                            "--map", "builtin:identity"),
}


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
        ({"type": "graph", "n": 2, "edges": [[0, 1, 0]]}, "ZeroDistanceDistinctPoints"),
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

    # extend with arguments it once ran on: the command is gone, not misused
    @pytest.mark.parametrize("argv", [("frobnicate",), ("norming",),
                                      ("extend", "{fn}", "--subset", "0,1")],
                             ids=["frobnicate", "norming", "extend"])
    def test_unknown_command_exits_2(self, files, argv):
        proc = run_cli(*[a.format(**files) for a in argv])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"invalid choice: {argv[0]!r}" in proc.stderr

    @pytest.mark.parametrize("argv, missing", [
        ((), "command"),
        (("experiment",), "{interval,geodesic}"),
    ])
    def test_missing_command_is_a_usage_error(self, capsys, argv, missing):
        with pytest.raises(SystemExit) as exc:
            cli.run(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith("usage: lipfree")
        assert f"error: the following arguments are required: {missing}" in err
        assert "Traceback" not in err

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
        # a zero loop is no edge, as a positive one is, so the next edge is read
        ({"metric": {"type": "graph", "n": 2, "edges": [[0, 0, 0], [0, 5, 1.0]]}},
         "metric.edges"),
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
        assert f"MalformedInput: {path}.paths[0].pair:" in err

    @pytest.mark.parametrize("paths, at, reason", [
        ([{"pair": [1, 2, 3], "points": [1, 0, 2]}], "paths[0].pair",
         "expected a list of 2 point indices"),
        ([{"pair": [1, 2], "points": None}], "paths[0].points",
         "expected a list of point indices"),
        ([{"pair": [1, 2], "points": [1, 0, 2]}, {"pair": [1, 2], "points": [1, 2]}],
         "paths[1].pair", "[1, 2] is stored twice"),
    ], ids=["long_pair", "null_points", "pair_twice"])
    def test_geodesic_path_refusal_exits_2_at_its_field(self, files, capsys, paths, at, reason):
        # tripod(1, 1)'s space; the long pair and the repeat once exited 0
        path = write(files["dir"] / "g.json", {**space_to_dict(tripod(1, 1).space), "paths": paths})
        code, report, err = run_in_process(
            capsys, "experiment", "geodesic", "--space", path, "--map", "builtin:identity")
        assert (code, report) == (2, None)
        assert err == f"input error: MalformedInput: {path}.{at}: {reason}\n"

    @pytest.mark.parametrize("paths, at", [
        ([], "paths"), ([{"pair": [0, 0], "points": [0, 0]}], "paths[0].points")],
        ids=["no_paths", "equal_endpoints"])
    def test_geodesic_file_without_a_usable_path_exits_2(self, files, capsys, paths, at):
        path = write(files["dir"] / "g.json", {
            "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}, "paths": paths})
        code, report, err = run_in_process(
            capsys, "experiment", "geodesic", "--space", path, "--map", "builtin:identity")
        assert code == 2
        assert report is None
        assert f"MalformedInput: {path}.{at}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["fold", "halving", "nope"])
    def test_unknown_geodesic_builtin_names_the_map_flag(self, files, capsys, name):
        code, report, err = run_in_process(capsys, "experiment", "geodesic", "--space",
                                           files["geo"], "--map", f"builtin:{name}")
        assert code == 2
        assert report is None
        assert f"MalformedInput: --map: unknown builtin map {name!r}" in err
        assert "builtin:identity" in err

    @pytest.mark.parametrize("pairs", ["0,1;1,2", "0,1;1,2;0,2", "0,2", "a,b"])
    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    def test_isometry_takes_no_pairs(self, files, capsys, method, pairs):
        # the certificates decide over the codomain's vertices, so a pair
        # set, norming or not, is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.run(["isometry", "--map", files["map3"], "--method", method, "--pairs", pairs])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"lipfree isometry: error: unrecognized arguments: --pairs {pairs}" in err

    @pytest.mark.parametrize("values, reason", [
        ([0, 1e308, -1e308, 0], "too large: the Lipschitz norm overflows"),
        ([1e308, -1e308, 0, 0], "function values must be finite, also less the base value"),
    ], ids=["norm_spread", "norm_base_shift"])
    def test_values_whose_differences_pass_the_float_range_exit_2(self, files, capsys, values,
                                                                    reason):
        # each once overflowed with numpy's RuntimeWarning on stderr, then
        # exited 0 with "norm":Infinity, which is not JSON
        write_the_line(files["dir"])
        f = write(files["dir"] / "big.json", {"space": "line.json", "values": values})
        code, report, err = run_in_process(capsys, "norm", f)
        assert (code, report) == (2, None)
        assert err == f"input error: MalformedInput: {f}.values: {reason}\n"

    @pytest.mark.parametrize("method", ["flow", "lp", "both"])
    @pytest.mark.parametrize("step", [10.0, 0.1])
    def test_a_transport_norm_past_the_float_range_exits_2(self, files, capsys, method, step):
        # (-1e308, 1e308, 0) on three points `step` apart: at 10 the norm is
        # 1e309, which once exited 0 with "value":Infinity (or 3 as a
        # disagreement of the two methods) beside numpy's RuntimeWarnings,
        # which fail this test; at 0.1 it is 1e307
        write(files["dir"] / "line3.json", {"base": 0, "metric": {"type": "matrix", "d": [
            [0, step, 2 * step], [step, 0, step], [2 * step, step, 0]]}})
        mu = write(files["dir"] / "big.json", {"space": "line3.json", "coeffs": [-1e308, 1e308, 0]})
        code, report, err = run_in_process(capsys, "freenorm", mu, "--method", method)
        if step > 1:
            assert (code, report) == (2, None)
            assert err == (f"input error: MalformedInput: {mu}.coeffs: "
                           "too large: the transport norm overflows\n")
        else:
            assert (code, err) == (0, "")
            results = report["results"]
            values = [results[key] for key in ("value", "flow", "lp") if key in results]
            assert values == [1e308 * step] * (2 if method == "both" else 1)

    @pytest.mark.parametrize("method", ["flow", "lp", "both"])
    @pytest.mark.parametrize("coeffs", [[1e308, 1e308, -1e308, -1e308], [1e308, 1e308, -1e308, 0]],
                             ids=["zero_sum", "not_zero_sum"])
    def test_part_totals_past_the_float_range(self, files, capsys, method, coeffs):
        # on the line 0, 0.1, 0.2, 0.3 each part of the first vector totals
        # 2e308; the LP once read 3e307 (3 with both), and the second vector
        # passed the zero-sum check (3 from the LP), beside numpy's warnings
        write(files["dir"] / "line4.json", {"base": 0, "metric": {"type": "matrix", "d": [
            [0, 0.1, 0.2, 0.3], [0.1, 0, 0.1, 0.2], [0.2, 0.1, 0, 0.1], [0.3, 0.2, 0.1, 0]]}})
        mu = write(files["dir"] / "big.json", {"space": "line4.json", "coeffs": coeffs})
        code, report, err = run_in_process(capsys, "freenorm", mu, "--method", method)
        if coeffs[-1]:
            assert (code, err) == (0, "")
            results = report["results"]
            values = [results[key] for key in ("value", "flow", "lp") if key in results]
            assert values == [4e307] * (2 if method == "both" else 1)
        else:
            assert (code, report) == (2, None)
            assert err == (f"input error: MalformedInput: {mu}.coeffs: "
                           "coefficients sum to 1e+308, not 0\n")

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

    # two points 1e-12 apart, within the tolerance 1e-9: no pair is a vertex
    @pytest.mark.parametrize("command", [("extremes", "{space}"),
                                         ("isometry", "--map", "{map}", "--method", "dual")])
    def test_a_space_without_vertices_is_refused(self, tmp_path, capsys, command):
        coords = [0, 1e-12, 2e-12, 1]
        space = space_to_dict(metric_core.line_net(coords))
        paths = {"space": write(tmp_path / "line.json", space),
                 "map": write(tmp_path / "identity.json", {"domain": "line.json",
                                                           "codomain": "line.json",
                                                           "image": [0, 1, 2, 3]})}
        code, report, err = run_in_process(capsys, *(a.format(**paths) for a in command))
        assert (code, report) == (2, None)
        assert err == ("input error: InputError: no pair is a vertex: points 0 and 1 lie "
                       "1e-12 apart, within about the metric tolerance 1e-09\n")

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

    def test_a_ratio_at_the_threshold_exits_0(self, files, capsys):
        # distance 1 onto 1 - REL_TOL: both certifiers read the one quotient d/c
        near = write(files["dir"] / "near.json", {
            "domain": "two.json", "image": [0, 1],
            "codomain": {"metric": {"type": "matrix", "d": [[0, 1 - 1e-9], [1 - 1e-9, 0]]}}})
        code, report, _ = run_in_process(capsys, "isometry", "--map", near)
        assert code == 0
        results = report["results"]
        assert results["verdict"] == results["dual"]["verdict"] == "isometric"
        assert results["primal"]["modulus"] == 0.999999999

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
        assert f"MalformedInput: {path}.paths[0].points:" in err

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
        refused = f"MalformedInput: {path}.paths[0].points: point sequence is not metrically"
        assert (code, refused in err) == ((0, False) if k < 1 else (2, True))

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
        ("experiment", "interval", "--mesh", "0", "--map", "builtin:fold"),
        ("experiment", "interval", "--mesh", "-3", "--map", "builtin:fold"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--probe", "2"),
        ("experiment", "interval", "--mesh", "4", "--map", "builtin:fold", "--seed", "1"),
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

    @pytest.mark.parametrize("name, mesh", [*((name, 1000000) for name in BUILTIN_MAPS),
                                            ("identity", 2**53 - 1)])
    def test_mesh_too_large_for_memory_exits_2(self, capsys, monkeypatch, name, mesh):
        # a huge --mesh asks numpy for more memory than the machine has, in
        # the np.arange that each builtin starts from; the allocation is
        # faked here rather than attempted (fold once built Python lists of
        # 2 * mesh + 1 entries first, so a huge fold mesh filled memory)
        def too_large(n):
            raise MemoryError(f"Unable to allocate an array with shape ({n},)")

        monkeypatch.setattr(np, "arange", too_large)
        code, report, err = run_in_process(capsys, "experiment", "interval",
                                           "--mesh", str(mesh), "--map", f"builtin:{name}")
        assert (code, report) == (2, None)
        points = 2 * mesh + 1 if name == "fold" else mesh + 1
        assert err == ("input error: MemoryError: Unable to allocate an array "
                       f"with shape ({points},)\n")

    @pytest.mark.parametrize("mesh", [2**53, 10**20, 10**400], ids=["2**53", "10**20", "10**400"])
    def test_mesh_past_exact_coordinates_exits_2(self, capsys, mesh):
        # from 2**53 on, k / n is not exact; 10**20 once ended in numpy's
        # "Maximum allowed size exceeded" traceback. The mesh is refused
        # before any map is built, so the map named makes no difference.
        code, report, err = run_in_process(capsys, "experiment", "interval",
                                           "--mesh", str(mesh), "--map", "builtin:identity")
        assert (code, report) == (2, None)
        assert err == (f"input error: MalformedInput: --mesh: {mesh} must be finite "
                       f"and below {2**53}\n")


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

    @pytest.mark.parametrize("name", ["three", "net", "circle", "tripod"])
    def test_a_pair_set_norms_when_it_lists_every_extremes_pair(self, files, capsys, name):
        # the recipe that replaced the norming command: list every pair that
        # extremes reports, in either order; isometry's pairs gate agrees,
        # and listing every pair that is no vertex stands in for none
        made = {"circle": metric_core.circle_net(6), "tripod": tripod(1.0, 3).space}
        if name in made:
            files[name] = write(files["dir"] / f"{name}.json", space_to_dict(made[name]))
        code, report, _ = run_in_process(capsys, "extremes", files[name])
        assert code == 0
        vertices = [PointPair(x, y) for x, y in report["results"]["pairs"]]
        space = io.load_space(files[name])
        others = [p for p in space.pairs() if p not in vertices]  # none on the circle
        phi = composition.identity_map(space)
        assert is_norming(space, vertices) == (True, None)
        assert is_norming(space, [PointPair(p.y, p.x) for p in vertices] + others).is_norming
        composition.certify_isometry(phi, "both", pairs=vertices)
        for k, vertex in enumerate(vertices):
            rest = vertices[:k] + vertices[k + 1:] + others
            assert is_norming(space, rest) == (False, vertex)
            with pytest.raises(NotNorming):
                composition.certify_isometry(phi, "both", pairs=rest)

    def test_admitting_tol_recorded_beside_the_metric_tol(self, files, capsys):
        # the triangle inequality is off by 0.1: --tol 0.2 admits the
        # space, and space.tol still decides that 1 lies between 0 and 2
        loose = write(files["dir"] / "loose.json", {
            "metric": {"type": "matrix", "d": [[0, 1, 2.1], [1, 0, 1], [2.1, 1, 0]]}})
        code, report, _ = run_in_process(capsys, "extremes", loose, "--tol", "0.2")
        assert code == 0
        assert report["tolerances"] == {"tol_metric": REL_TOL * 2.1, "tol_validation": 0.2}
        assert report["results"]["pairs"] == [[0, 1], [1, 2]]
        code, report, _ = run_in_process(capsys, "extremes", files["three"])
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
        admitted = {"tol_validation": 0.0} if form == "matrix" else {}
        for argv in (("validate", space), ("extremes", space), ("isometry", "--map", mp),
                     ("experiment", "geodesic", "--space", space, "--map", f"file:{mp}"),
                     ("experiment", "geodesic", "--space", space, "--map", "builtin:identity")):
            code, report, err = run_in_process(capsys, *argv, "--tol", "0")
            assert code == 0, err
            assert report["results"].get("valid", True) is True
            tolerances = {k: v for k, v in report["tolerances"].items()
                          if k not in ("r_loc", "eps")}  # the experiments' scales
            assert tolerances == {"tol_metric": REL_TOL * 1.0, **admitted}, argv[:2]

    def test_isometry(self, files):
        proc = run_cli("isometry", "--map", files["map"], "--method", "both")
        results = report_of(proc)["results"]
        assert results["verdict"] == "isometric"
        assert "wall_time_s" not in results  # wall times stay in the timing block

class TestOneDetourPassPerMatrix:
    """A command admits each matrix it validates once, through the one pass
    that sums detours, and enumerates vertices from that pass."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """The admission passes run, counted per matrix size, through
        ``validate_space`` wherever a lipfree module binds it."""
        read = {}
        real = metric_core.validate_space

        def counted(d, *args, **kwargs):
            read[len(d)] = read.get(len(d), 0) + 1
            return real(d, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("lipfree") and getattr(module, "validate_space", None) is real:
                monkeypatch.setattr(module, "validate_space", counted)
        return read

    @pytest.mark.parametrize("block", [64, 1 << 17])
    def test_extremes_on_a_matrix_file(self, tmp_path, capsys, rows, monkeypatch, block):
        monkeypatch.setattr(metric_core, "BLOCK", block)
        space = random_space(np.random.default_rng(7), 12, "euclidean")
        path = write(tmp_path / "cloud.json", space_to_dict(space))
        rows.clear()  # the validation that built the cloud
        code, report, _ = run_in_process(capsys, "extremes", path)
        assert code == 0
        assert report["results"]["pairs"] == brute_vertices(space).tolist()
        assert rows == {12: 1}

    # fold: a 9-point domain onto a 5-point codomain, of norm one; halving:
    # a 5-point domain into a 9-point codomain, of norm one half, whose
    # certificates name the codomain's first vertex
    @pytest.mark.parametrize("name, verdict", [("fold", "isometric"),
                                               ("halving", "not_isometric")])
    @pytest.mark.parametrize("method", ["dual", "primal", "both"])
    def test_isometry_on_a_matrix_map_file(self, tmp_path, capsys, rows, name, verdict,
                                           method):
        phi = builtin_map(name, 4)
        path = write(tmp_path / "map.json", {"domain": space_to_dict(phi.domain),
                                             "codomain": space_to_dict(phi.codomain),
                                             "image": list(phi.image)})
        code, report, _ = run_in_process(capsys, "isometry", "--map", path, "--method", method)
        assert code == 0
        assert report["results"]["verdict"] == verdict
        assert rows == {phi.domain.n: 1, phi.codomain.n: 1}

    # an interval net, which experiment geodesic reads with its one path stored
    @pytest.mark.parametrize("by_path", [False, True], ids=["inline", "by_path"])
    @pytest.mark.parametrize("command, prefix", [
        (("isometry", "--map"), ""),
        (("experiment", "geodesic", "--space", "geo.json", "--map"), "file:")],
        ids=["isometry", "experiment_geodesic"])
    def test_identity_map_file_admits_its_space_once(self, tmp_path, capsys, rows, by_path,
                                                     command, prefix):
        net = interval_net(8)
        space = space_to_dict(net)
        geo = write(tmp_path / "geo.json", {**space, "paths": [
            {"pair": [0, 8], "points": list(range(9))}]})
        if by_path:
            write(tmp_path / "net.json", space)
            space = "net.json"
        path = write(tmp_path / "identity.json", {"domain": space, "codomain": space,
                                                  "image": list(range(net.n))})
        phi = io.load_map(path)
        assert phi.domain is phi.codomain
        rows.clear()
        command = [geo if arg == "geo.json" else arg for arg in command]
        code, report, err = run_in_process(capsys, *command, prefix + path)
        assert code == 0, err
        certificate = report["results"].get("certificate", report["results"])
        assert certificate["verdict"] == "isometric"
        reads = (3 if by_path else 1) + (command[0] == "experiment")
        assert len(report["inputs"]) == reads  # every read is recorded
        assert rows == {net.n: 1}

    def test_geodesic_domain_holding_the_space_reads_no_pass(self, tmp_path, capsys, rows):
        gspace = circle_geodesic(8)
        geo = write(tmp_path / "circle.json", geodesic_space_to_dict(gspace))
        write(tmp_path / "space.json", space_to_dict(gspace.space))
        path = write(tmp_path / "identity.json", {"domain": "space.json",
                                                  "codomain": "space.json",
                                                  "image": list(range(gspace.space.n))})
        rows.clear()
        code, report, err = run_in_process(capsys, "experiment", "geodesic", "--space", geo,
                                           "--map", path)
        assert code == 0, err
        assert report["results"]["certificate"]["verdict"] == "isometric"
        assert rows == {gspace.space.n: 1}  # the --space file's pass alone

    # the domain named by path and the codomain its object again, inline or
    # by the same path (a matrix by path: test_identity_map_file_admits_its_space_once);
    # a matrix is admitted once, a graph closed once per reference and never admitted
    @pytest.mark.parametrize("codomain, form", [("inline", "matrix"), ("inline", "graph"),
                                                ("by_path", "graph")])
    def test_a_codomain_equal_to_the_domain_file_is_that_space(self, tmp_path, capsys, rows,
                                                              codomain, form):
        metric = ({"type": "matrix", "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]} if form == "matrix"
                  else {"type": "graph", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]})
        write(tmp_path / "line.json", {"metric": metric})
        path = write(tmp_path / "identity.json", {
            "domain": "line.json", "image": [0, 1, 2],
            "codomain": {"metric": metric} if codomain == "inline" else "line.json"})
        phi = io.load_map(path)
        assert phi.domain is phi.codomain
        rows.clear()
        code, report, err = run_in_process(capsys, "isometry", "--map", path)
        assert code == 0, err
        assert report["results"]["verdict"] == "isometric"
        assert rows == ({3: 1} if form == "matrix" else {})

    # a function or vector file's space, by path or inline, is admitted once
    @pytest.mark.parametrize("inline", [False, True], ids=["by_path", "inline"])
    @pytest.mark.parametrize("command, key, entries, value", [
        ("norm", "values", [0, 1, 1], {"norm": 1.0}),
        ("freenorm", "coeffs", [1, 0, -1], {"flow": 2.0, "lp": 2.0})], ids=["norm", "freenorm"])
    def test_a_file_on_a_space_admits_it_once(self, tmp_path, capsys, rows, inline, command,
                                              key, entries, value):
        line = {"metric": {"type": "matrix", "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}}
        write(tmp_path / "line.json", line)
        path = write(tmp_path / "f.json", {"space": line if inline else "line.json",
                                           key: entries})
        rows.clear()
        code, report, err = run_in_process(capsys, command, path)
        assert code == 0, err
        assert {k: report["results"][k] for k in value} == pytest.approx(value)
        assert rows == {3: 1}

    # A codomain one step from its domain is admitted on its own, to the
    # verdict or refusal it gets as a file of its own: the domain is the line
    # 0-1-2 based at 1, with integer labels, and the map is the identity.
    NEAR = {
        "one_ulp": ({"d": [[0, 1, np.nextafter(2.0, 3.0)], [1, 0, 1],
                           [np.nextafter(2.0, 3.0), 1, 0]]}, None),
        "base": ({"base": 0}, "BasePointNotPreserved: map sends the base point to 1, "
                              "not the codomain base 0"),
        "label": ({"labels": [0, 1, "2"]}, None),
        "true_entry": ({"d": [[0, True, 2], [1, 0, 1], [2, 1, 0]]},
                       "MalformedInput: {map}.codomain.metric.d: expected a number, got True"),
        "true_base": ({"base": True},
                      "MalformedInput: {map}.codomain.base: expected an integer, got True"),
        "true_label": ({"labels": [0, True, 2]}, None),
    }

    @pytest.mark.parametrize("case", list(NEAR))
    def test_near_equal_codomain_admitted_on_its_own(self, tmp_path, capsys, rows, case):
        change, refusal = self.NEAR[case]
        domain = {"labels": [0, 1, 2], "base": 1,
                  "metric": {"type": "matrix", "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}}
        codomain = {**domain, **{k: v for k, v in change.items() if k != "d"}}
        if "d" in change:
            codomain["metric"] = {"type": "matrix", "d": change["d"]}
        path = write(tmp_path / "near.json", {"domain": domain, "codomain": codomain,
                                              "image": [0, 1, 2]})
        rows.clear()
        code, report, err = run_in_process(capsys, "isometry", "--map", path)
        if refusal is not None:
            assert (code, report) == (2, None)
            assert err == f"input error: {refusal.format(map=path)}\n"
            return
        assert code == 0, err
        assert report["results"]["verdict"] == "isometric"
        assert rows == {3: 2}  # two admissions
        phi = io.load_map(path)
        assert phi.domain is not phi.codomain
        assert [type(label) for label in phi.codomain.labels] == [
            type(label) for label in codomain["labels"]]


def graph_form(gspace):
    """A geodesic space's file object with its metric in graph form: the
    space's edges weighted by their distances, whose closure is its matrix bitwise."""
    space = gspace.space
    edges = [[int(i), int(j), float(space.dist[i, j])] for i, j in space.edges]
    return {**geodesic_space_to_dict(gspace),
            "metric": {"type": "graph", "n": space.n, "edges": edges}}


def spaces_other_than(gspace):
    """Space objects that are not ``gspace``'s space, by name."""
    label = space_to_dict(gspace.space)
    label["labels"][3] = "b3"
    longer = graph_form(gspace)
    longer["metric"]["edges"][2][2] *= 2
    return {"interval_net": space_to_dict(interval_net(8)), "label": label, "graph": longer,
            "triangle": {"metric": {"type": "matrix", "d": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}}


class TestGeodesicMapCodomain:
    """experiment geodesic reads a file map's codomain with the --space
    file's space in hand, as it reads the domain, and refuses any other."""

    @pytest.fixture
    def circle(self, tmp_path):
        gspace = circle_geodesic(8)
        write(tmp_path / "circle.json", geodesic_space_to_dict(gspace))
        write(tmp_path / "space.json", space_to_dict(gspace.space))
        return gspace

    @pytest.mark.parametrize("case", list(spaces_other_than(circle_geodesic(8))))
    @pytest.mark.parametrize("by_path", [False, True], ids=["inline", "by_path"])
    def test_a_map_into_another_space_is_refused(self, tmp_path, capsys, circle, case,
                                                 by_path):
        codomain = spaces_other_than(circle)[case]
        if by_path:
            codomain = write(tmp_path / "other.json", codomain)
        path = write(tmp_path / "map.json", {"domain": "space.json", "codomain": codomain,
                                             "image": list(range(circle.space.n))})
        code, report, err = run_in_process(capsys, "experiment", "geodesic", "--space",
                                           str(tmp_path / "circle.json"), "--map", path)
        assert (code, report) == (2, None)
        assert err == (f"input error: MalformedInput: {path}.codomain: "
                       "not the space given as the codomain\n")
        with pytest.raises(MalformedInput, match="codomain: not the space"):
            io.load_map(path, codomain=io.load_geodesic_space(tmp_path / "circle.json").space)

    def test_a_missing_codomain_file_is_refused_at_its_path(self, tmp_path, capsys, circle):
        path = write(tmp_path / "map.json", {"domain": "space.json", "codomain": "missing.json",
                                             "image": list(range(circle.space.n))})
        code, report, err = run_in_process(capsys, "experiment", "geodesic", "--space",
                                           str(tmp_path / "circle.json"), "--map", path)
        assert (code, report) == (2, None)
        assert err == (f"input error: MalformedInput: {tmp_path / 'missing.json'}: "
                       "cannot read file: No such file or directory\n")

    # a graph-form file or reference is closed, then compared: the
    # matrix-matrix case is the one admitted before validation
    @pytest.mark.parametrize("geo_form, ref_form", [("graph", "graph"), ("graph", "matrix"),
                                                    ("matrix", "graph")])
    def test_an_identity_on_a_graph_form_space_is_that_space(self, tmp_path, capsys, geo_form,
                                                            ref_form):
        gspace = tripod(1.0, 3)
        forms = {"graph": graph_form(gspace), "matrix": geodesic_space_to_dict(gspace)}
        geo = write(tmp_path / "geo.json", forms[geo_form])
        write(tmp_path / "ref.json", forms[ref_form])
        path = write(tmp_path / "identity.json", {"domain": "ref.json", "codomain": "ref.json",
                                                  "image": list(range(gspace.space.n))})
        loaded = io.load_geodesic_space(geo)
        phi = io.load_map(path, codomain=loaded.space)
        assert phi.domain is phi.codomain is loaded.space
        runs = [run_in_process(capsys, "experiment", "geodesic", "--space", geo, "--map", spec)
                for spec in (path, "builtin:identity")]
        assert [code for code, _, _ in runs] == [0, 0], runs[0][2]
        (_, report, _), (_, builtin, _) = runs
        assert report["results"]["certificate"]["verdict"] == "isometric"
        assert (report["results"], report["tolerances"]) == (builtin["results"],
                                                             builtin["tolerances"])


class TestExperiments:
    @pytest.mark.parametrize("argv", [
        ("experiment", "interval", "--mesh", "8", "--map", "builtin:fold"),
        ("experiment", "geodesic", "--space", "{geo}", "--map", "builtin:identity"),
    ], ids=["interval", "geodesic"])
    def test_csv_is_a_usage_error(self, files, capsys, argv):
        """The report is the one output: it holds every profile's rows at
        full precision, each geodesic one next to its path's pair."""
        argv = [a.format(**files) for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.run([*argv, "--csv", str(files["dir"] / "profile.csv")])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments: --csv" in err
        assert not (files["dir"] / "profile.csv").exists()
        code, report, _ = run_in_process(capsys, *argv)
        assert code == 0
        if argv[1] == "interval":  # one profile, along the net's one path
            profiles = [*zip(report["results"]["necessary"],
                             [check_interval_necessary(builtin_map("fold", 8))], strict=True)]
        else:
            gspace = io.load_geodesic_space(files["geo"])
            profiles = [(p, check_geodesic_necessary(composition.identity_map(gspace.space), gspace,
                                                     PointPair(*p["extra"]["pair"])))
                        for p in report["results"]["necessary"]]
        for reported, computed in profiles:
            assert reported["rows"] == [list(row) for row in computed.rows]

    @pytest.mark.parametrize("argv", EXPERIMENTS.values(), ids=EXPERIMENTS)
    def test_an_experiment_writes_no_file(self, files, capsys, monkeypatch, argv):
        """The report goes to stdout, and nothing goes to the working directory."""
        cwd = files["dir"] / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, report, _ = run_in_process(capsys, *[a.format(**files) for a in argv])
        assert code == 0
        assert report["results"]["certificate"]["verdict"] == "isometric"
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("argv", EXPERIMENTS.values(), ids=EXPERIMENTS)
    def test_an_experiment_runs_both_certifiers(self, files, capsys, argv):
        code, report, _ = run_in_process(capsys, *[a.format(**files) for a in argv])
        assert code == 0
        certificate = report["results"]["certificate"]
        assert set(certificate) == {"verdict", "dual", "primal"}
        assert (certificate["dual"]["method"], certificate["primal"]["method"]) == (
            "dual_preimage", "primal_quotient")

    def test_interval_report_takes_the_geodesic_layout(self, files, capsys):
        interval, geodesic = [run_in_process(capsys, *argv)[1]["results"] for argv in (
            ("experiment", "interval", "--mesh", "8", "--map", "builtin:fold"),
            ("experiment", "geodesic", "--space", files["geo"], "--map", "builtin:identity"))]
        assert set(interval) == set(geodesic) == {
            "operator_norm", "mesh", "necessary", "sufficient", "certificate"}
        assert interval["mesh"] == 1 / 8
        assert [p["kind"] for p in interval["necessary"]] == ["interval_necessary"]
        assert interval["sufficient"]["max_gap"] == 0.0  # fold's image is every net point
        assert interval["sufficient"]["extra"] == {"mesh": 1 / 8}

    def test_interval_halving_negative_is_exit_zero(self, files):
        proc = run_cli("experiment", "interval", "--mesh", "8",
                       "--map", "builtin:halving")
        assert proc.returncode == 0
        results = report_of(proc)["results"]
        assert results["certificate"]["verdict"] == "not_isometric"
        assert results["operator_norm"] == 0.5

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

    @pytest.mark.parametrize("spec", ["file:{d}/net_map.json", "{d}/net_map.json",
                                      "file:{d}/missing.json"], ids=["file", "bare", "missing"])
    def test_a_file_map_takes_the_geodesic_route(self, files, capsys, spec):
        # refused before any file is read
        write(files["dir"] / "net_map.json", {"domain": "net4.json", "codomain": "net4.json",
                                              "image": [0, 1, 2, 3, 4]})
        code, report, err = run_in_process(capsys, "experiment", "interval", "--mesh", "4",
                                           "--map", spec.format(d=files["dir"]))
        assert (code, report) == (2, None)
        assert err == ("input error: MalformedInput: --map: experiment interval runs builtin "
                       "maps; check a map file with experiment geodesic --space\n")

    @pytest.mark.parametrize("name", ["identity", "fold", "halving", "collapse"])
    def test_a_file_map_into_a_net_gets_the_builtin_verdicts(self, tmp_path, name):
        """A builtin written as a map file into an interval-net geodesic file
        whose one path is 0..n: experiment geodesic gives the certificate,
        necessary and sufficient verdicts of experiment interval, but for
        halving's necessary profile at mesh 3. There the target t = 1 has a
        window of width 4/6 that the value 2/6 lies exactly on: the geodesic
        route's targets are sums of steps, the interval route's k/n, so
        rounding decides."""
        differs = set()
        for mesh in [*range(1, 17), 32]:
            phi = builtin_map(name, mesh)
            codomain = space_to_dict(phi.codomain)
            geo = write(tmp_path / "geo.json", {**codomain, "paths": [
                {"pair": [0, phi.codomain.n - 1], "points": list(range(phi.codomain.n))}]})
            path = write(tmp_path / "map.json", {"domain": space_to_dict(phi.domain),
                                                 "codomain": codomain, "image": list(phi.image)})
            verdicts = []
            for argv in (["experiment", "interval", f"--mesh={mesh}", f"--map=builtin:{name}"],
                         ["experiment", "geodesic", "--space", geo, "--map", path]):
                code, out, err = run_captured(argv)
                assert code == 0, err
                results = json.loads(out)["results"]
                necessary = results["necessary"]
                verdicts.append((results["certificate"]["verdict"],
                                 results["sufficient"]["predicts_isometric"],
                                 necessary[0]["holds"]))
            interval, geodesic = verdicts
            assert interval[:2] == geodesic[:2], (mesh, verdicts)
            if interval != geodesic:
                differs.add((mesh, interval[2], geodesic[2]))
        assert differs == ({(3, False, True)} if name == "halving" else set())

    def test_interval_takes_no_tol(self, capsys):
        # a builtin is built, never admitted, so no tolerance admits it
        with pytest.raises(SystemExit) as exc:
            cli.run(["experiment", "interval", "--mesh", "4", "--map", "builtin:fold",
                     "--tol", "0"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith("lipfree experiment interval: error: unrecognized arguments: "
                            "--tol 0\n")


LOOSE = {"base": 0, "metric": {"type": "matrix",
                                "d": [[0, 1, 2.001], [1, 0, 1], [2.001, 1, 0]]}}

# One case per place a command's inputs can hold a space; the case puts
# LOOSE there, which only --tol 0.01 admits, and admissible spaces
# elsewhere. "far" lies above "three" and LOOSE, so maps from it are
# norm-one, as are maps from LOOSE onto "three".
TOL_REACH = [
    ("validate", ("validate", "{d}/loose.json")),
    ("extremes", ("extremes", "{d}/loose.json")),
    ("isometry", ("isometry", "--map", "{d}/loose_inline_three.json")),
    ("isometry", ("isometry", "--map", "{d}/loose_three.json")),
    ("isometry", ("isometry", "--map", "{d}/far_loose_inline.json")),
    ("isometry", ("isometry", "--map", "{d}/far_loose.json")),
    # a codomain read with its domain in hand is that space, admitted with it
    ("isometry", ("isometry", "--map", "{d}/loose_inline_loose.json")),
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
        three = json.loads(Path(files["three"]).read_text())  # a map's codomain file
        write(d / "loose.json", LOOSE)
        write(d / "far.json", {"metric": {"type": "matrix",
                                          "d": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]}})
        image = [0, 1, 2]
        for name, domain, codomain in (
                ("loose_inline_three", LOOSE, "three.json"),
                ("loose_three", "loose.json", "three.json"),
                ("far_loose_inline", "far.json", LOOSE),
                ("far_loose", "far.json", "loose.json"),
                ("loose_inline_loose", LOOSE, "loose.json")):
            write(d / f"{name}.json", {"domain": domain, "codomain": codomain,
                                       "image": image})
        write(d / "loose_geo.json", {**LOOSE, "paths": [{"pair": [0, 1], "points": [0, 1]}]})
        write(d / "three_geo.json", {**three, "paths": [{"pair": [0, 2],
                                                         "points": [0, 1, 2]}]})
        return d

    # norm and freenorm take no --tol: a space of their file is admitted at
    # the default tolerance, which LOOSE fails, inline or by path
    @pytest.mark.parametrize("space", [LOOSE, "loose.json"], ids=["inline", "by_path"])
    @pytest.mark.parametrize("command, key, entries", [("norm", "values", [0, 1, 2]),
                                                      ("freenorm", "coeffs", [1, 0, -1])],
                             ids=["norm", "freenorm"])
    def test_a_file_on_a_space_has_no_tol(self, tol_dir, capsys, space, command, key,
                                          entries):
        path = write(tol_dir / "on_loose.json", {"space": space, key: entries})
        code, report, err = run_in_process(capsys, command, path)
        assert (code, report) == (2, None)
        assert err.startswith("input error: TriangleViolation")
        with pytest.raises(SystemExit) as exc:
            run_in_process(capsys, command, path, "--tol", "0.01")
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 0.01" in capsys.readouterr().err

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
    (("isometry", "--map", "{map3}"),
     [("map3",), ("three", "map3", "domain"), ("three", "map3", "codomain")]),
    # the map's codomain is read, and must be the --space file's space
    (("experiment", "geodesic", "--space", "{geo}", "--map", "file:{tripod_map}"),
     [("geo",), ("tripod_map",), ("tripod_space", "tripod_map", "domain"),
      ("tripod_space", "tripod_map", "codomain")]),
    (("experiment", "interval", "--mesh", "4", "--map", "builtin:fold"), []),
]


class TestInputs:
    @pytest.fixture
    def read_files(self, files):
        d = files["dir"]
        more = {
            "tripod_space": write(d / "tripod_space.json", space_to_dict(tripod().space)),
        }
        more["tripod_map"] = write(d / "tripod_map.json", {
            "domain": "tripod_space.json", "codomain": "tripod_space.json",
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


# One invocation per command, with the command its report names.
COMMANDS = [
    ("validate", ("validate", "{three}")),
    ("norm", ("norm", "{fn}")),
    ("freenorm", ("freenorm", "{vec}")),
    ("extremes", ("extremes", "{net}")),
    ("isometry", ("isometry", "--map", "{map3}")),
    *EXPERIMENTS.items(),
]

# (command, argv, a flag the CLI does not have): the report goes to stdout
# alone, and an experiment runs both certifiers at the r_loc and eps
# derived from its mesh and codomain
REMOVED_FLAGS = [
    *((command, argv, ("--out", "{dir}/report.json")) for command, argv in COMMANDS),
    *((command, argv, flag) for command, argv in EXPERIMENTS.items() for flag in (
        ("--r-loc", "0.5"), ("--eps", "0.1"), ("--method", "dual"), ("--method", "both"),
        # values that were once refused as out of range, or as no certifier
        ("--r-loc", "-1"), ("--r-loc", "0"), ("--r-loc", "nan"), ("--eps", "-1"),
        ("--eps", "inf"), ("--eps", "nan"), ("--method", "bogus"))),
]


@pytest.mark.parametrize("command, argv", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_the_parser_names_the_command_it_dispatches(files, capsys, command, argv):
    argv = [a.format(**files) for a in argv]
    args = cli.build_parser().parse_args(argv)
    assert (args.command, args.handler.__name__) == (
        command, "_cmd_" + command.split(".")[0])  # one handler for both experiments
    code, report, err = run_in_process(capsys, *argv)
    assert code == 0, err
    assert report["command"] == command


@pytest.mark.parametrize("command, argv", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_unknown_flags_name_their_command(files, capsys, command, argv):
    # leftovers are reported by the subcommand they follow, with its usage
    leaf = " ".join(argv[:2] if command.startswith("experiment") else argv[:1])
    with pytest.raises(SystemExit) as exc:
        cli.run([a.format(**files) for a in argv] + ["--probe", "5"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith(f"usage: lipfree {leaf} [-h]")
    assert err.endswith(f"lipfree {leaf}: error: unrecognized arguments: --probe 5\n")


@pytest.mark.parametrize("command, argv, flag", REMOVED_FLAGS,
                         ids=[f"{c}{flag[0]}={flag[1]}" for c, _, flag in REMOVED_FLAGS])
def test_removed_flags_are_usage_errors(files, capsys, command, argv, flag):
    leaf = command.replace(".", " ")
    with pytest.raises(SystemExit) as exc:
        cli.run([a.format(**files) for a in (*argv, *flag)])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: lipfree {leaf} [-h]")
    assert err.endswith(f"lipfree {leaf}: error: unrecognized arguments: "
                        f"{' '.join(flag).format(**files)}\n")
    assert "Traceback" not in err
    assert not (files["dir"] / "report.json").exists()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("isometry", "--map", "{map3}"),
        ("experiment", "interval", "--mesh", "16", "--map", "builtin:fold"),
        ("experiment", "geodesic", "--space", "{geo}", "--map", "builtin:identity"),
    ], ids=["isometry", "experiment.interval", "experiment.geodesic"])
    def test_only_timing_varies_between_runs(self, files, capsys, argv):
        """Identical argv give byte-identical reports once the timing
        block is deleted; no command is random and no wall time is a result."""
        argv = [a.format(**files) for a in argv]
        texts = []
        for _ in range(2):
            assert cli.run(argv) == 0
            report = json.loads(capsys.readouterr().out)
            del report["timing"]
            texts.append(json.dumps(report, sort_keys=True, separators=(",", ":")))
        assert texts[0] == texts[1]

    def test_reports_identical_across_hash_seeds(self, files):
        """Fresh interpreters with different string hashing report the
        same, so no report depends on set or dict iteration order."""
        runs = [strip_timing(report_of(run_cli(
            "isometry", "--map", files["map3"], "--method", "both",
            env_extra={"PYTHONHASHSEED": seed}))) for seed in ("1", "2")]
        assert runs[0] == runs[1]

    def test_repeat_run_bit_identical_modulo_timing(self, files):
        a = strip_timing(report_of(run_cli("extremes", files["net"])))
        b = strip_timing(report_of(run_cli("extremes", files["net"])))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


NUMBERS = [2, 0.5, 1.5, 7, -1, 0.0, -1.0, float("nan"), float("inf"), -float("inf"),
           1e308, 9e307, 10 ** 400]
OTHER_VALUES = ["0", "1.0", None, True, False, [], {}, [0, 1]]
# Python's own wording, which no refusal may forward
PYTHON_PHRASES = ("object is not", "index out of range", "not subscriptable", "not iterable",
                  "unpack", "too large to convert", "invalid literal")


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


# The space fuzzed map files are read against: the 4-point line, which
# mutated_space_file draws unmutated at n = 4, with one straight path.
LINE = {"labels": [f"p{i}" for i in range(4)], "base": 0,
        "metric": {"type": "matrix", "d": [[float(abs(i - j)) for j in range(4)]
                                           for i in range(4)]}}
REFERENCES = {
    "the_space": "line.json",
    "missing": "missing.json",
    "other": "other.json",  # the line at twice the scale
    "graph": {"metric": {"type": "graph", "n": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}},
}


def mutated_list(draw, values):
    """``values`` as given, or with one entry changed, the last dropped, a 0
    appended, or replaced by another JSON value."""
    op = draw(st.sampled_from(["none"] * 4 + ["entry", "drop", "append", "retype"]))
    if op == "entry":
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(
            NUMBERS + OTHER_VALUES))
    elif op in ("drop", "append"):
        values = values[:-1] if op == "drop" else values + [0]
    elif op == "retype":
        values = draw(st.sampled_from(NUMBERS + OTHER_VALUES))
    return values


@st.composite
def mutated_map_file(draw):
    """A map file's object and the files its references name: each of
    domain and codomain a mutated space inline or by path, the line or
    another space by path, a missing path, the line in graph form or not an
    object; then the identity image, perhaps mutated."""
    obj, files = {}, {}
    for field in ("domain", "codomain"):
        # the line thrice and its graph twice, so that a share of files are read whole
        form = draw(st.sampled_from(["inline", "path", *REFERENCES, "not_object",
                                     "the_space", "the_space", "graph"]))
        if form in ("inline", "path"):
            obj[field] = draw(mutated_space_file())
        else:
            obj[field] = REFERENCES.get(form) or draw(st.sampled_from([3, True, None, [], [LINE]]))
        if form == "path":
            files[f"{field}.json"], obj[field] = obj[field], f"{field}.json"
    obj["image"] = mutated_list(draw, [0, 1, 2, 3])
    return obj, files


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=mutated_map_file())
def test_map_files_never_fail(tmp_path_factory, drawn):
    """isometry and experiment geodesic exit 0 or 2 without a traceback on
    any map file, print nothing on 2, and stop collecting reads; a report
    of experiment geodesic lists a codomain named by path."""
    obj, files = drawn
    folder = tmp_path_factory.getbasetemp() / "map_fuzz"
    folder.mkdir(exist_ok=True)
    doubled = [[2 * x for x in row] for row in LINE["metric"]["d"]]
    for name, content in {"line.json": LINE, "geo.json": {**LINE, "paths": [
            {"pair": [0, 3], "points": [0, 1, 2, 3]}]}, "other.json": {
            **LINE, "metric": {"type": "matrix", "d": doubled}}, **files}.items():
        write(folder / name, content)
    path = write(folder / "map.json", obj)
    for argv in (["isometry", "--map", path],
                 ["experiment", "geodesic", "--space", str(folder / "geo.json"), "--map", path]):
        code, out, err = run_captured(argv)
        assert io.READS.get() is None
        assert code in (0, 2) and "Traceback" not in err, err
        assert not any(phrase in err for phrase in PYTHON_PHRASES), err
        if code == 2:
            assert out == "" and err.startswith("input error: ")
        elif argv[0] == "experiment" and isinstance(obj["codomain"], str):
            assert {"path": path, "field": "codomain"} in [
                record.get("via") for record in json.loads(out)["inputs"]]


# A point-index list a geodesic file's pair or points may be replaced by
INDEX_LISTS = [[], [0], [0, 3], [3, 0], [0, 1, 2, 3], [0, 1, 2, 3, 0], [0, 9], [-1, 3],
               [0.0, 3.0], [0, 0.5], [0, 1e308], [0, 10 ** 400], [True, 3], ["0", 3], [0, None]]


@st.composite
def mutated_file_on_the_line(draw):
    """A file on the 4-point line, with its kind: a geodesic file whose
    paths, entries, pairs or points are mutated, or a function or vector
    file whose space reference or values are."""
    kind = draw(st.sampled_from(["geodesic"] * 2 + ["function", "vector"]))
    if kind == "geodesic":
        paths = [{"pair": [0, 3], "points": [0, 1, 2, 3]}, {"pair": [1, 3], "points": [1, 2, 3]}]
        for _ in range(draw(st.integers(0, 3))):
            op = draw(st.sampled_from(["list", "list", "entry", "drop", "repeat", "retype"]))
            k = draw(st.integers(0, len(paths) - 1))
            entry, field = paths[k], draw(st.sampled_from(["pair", "points"]))
            if op == "retype":  # the whole field, or one entry, not a list of objects
                value = copy.deepcopy(draw(st.sampled_from(NUMBERS + OTHER_VALUES)))
                if draw(st.booleans()):
                    return kind, {**LINE, "paths": value}
                paths[k] = value
            elif op == "repeat":  # an entry again, on its own path or on a shorter one
                again = copy.deepcopy(entry)
                paths.append({**again, "points": [1, 2]} if draw(st.booleans())
                             and isinstance(again, dict) else again)
            elif not isinstance(entry, dict):
                continue
            elif op == "drop":
                entry.pop(field, None)
            elif op == "list":
                entry[field] = copy.deepcopy(draw(st.sampled_from(
                    INDEX_LISTS + NUMBERS + OTHER_VALUES)))
            elif isinstance(entry.get(field), list) and entry[field]:
                i = draw(st.integers(0, len(entry[field]) - 1))
                entry[field][i] = copy.deepcopy(draw(st.sampled_from(NUMBERS + OTHER_VALUES)))
        return kind, {**LINE, "paths": paths}
    if kind == "function":
        return kind, values_on_the_line(draw, "values", [0, 1, 2, 3])
    return kind, values_on_the_line(draw, "coeffs", [1, -1, 0, 0])


def values_on_the_line(draw, key, values):
    """A function or vector file on the 4-point line: ``values`` under ``key``,
    perhaps mutated, and a reference to the line, inline or by path, or to a
    missing, non-UTF-8 or mutated space, or one that is not an object."""
    values = mutated_list(draw, values)
    space = draw(st.sampled_from(["line.json", "missing.json", "latin1.json", "not_object",
                                  "inline", "mutated"]))
    if space == "not_object":
        space = draw(st.sampled_from([3, True, None, [], [LINE]]))
    elif space in ("inline", "mutated"):
        space = LINE if space == "inline" else draw(mutated_space_file())
    return {"space": space, key: values}


def write_the_line(folder):
    """The 4-point line and its copy that is not UTF-8, which fuzzed files name."""
    write(folder / "line.json", LINE)
    latin1 = json.dumps(LINE).replace("p0", "p\xe9").encode("latin-1")
    (folder / "latin1.json").write_bytes(latin1)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=mutated_file_on_the_line())
def test_geodesic_function_and_vector_files_never_fail(tmp_path_factory, drawn):
    """experiment geodesic, norm and freenorm exit 0 or 2 without a
    traceback or Python's own wording, print nothing on 2, and stop
    collecting reads."""
    kind, obj = drawn
    folder = tmp_path_factory.getbasetemp() / "line_fuzz"
    folder.mkdir(exist_ok=True)
    write_the_line(folder)
    path = write(folder / f"{kind}.json", obj)
    argv = {"geodesic": ["experiment", "geodesic", "--space", path, "--map", "builtin:identity"],
            "function": ["norm", path], "vector": ["freenorm", path]}[kind]
    code, out, err = run_captured(argv)
    assert io.READS.get() is None
    assert code in (0, 2) and "Traceback" not in err, err
    assert not any(phrase in err for phrase in PYTHON_PHRASES), err
    if code == 2:
        assert out == "" and err.startswith("input error: ")


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
