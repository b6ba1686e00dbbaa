import copy
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from lipfree import cli, composition
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
        assert len(report["inputs"][0]["sha256"]) == 64  # digests echoed

    def test_metric_violation_is_a_computed_verdict(self, files):
        proc = run_cli("validate", files["bad"])
        assert proc.returncode == 0
        results = report_of(proc)["results"]
        assert results["valid"] is False
        assert results["error"]["kind"] == "TriangleViolation"
        assert results["error"]["witness"] == [0, 1, 2]

    @pytest.mark.parametrize("flags, tolerances", [
        ((), {"tol_metric": REL_TOL * 5.0}),  # the default, from max(d) = 5
        (("--tol", "0.5"), {"tol_metric": 0.5}),
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

    def test_malformed_json_exits_2(self, files):
        broken = files["dir"] / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        proc = run_cli("validate", str(broken))
        assert proc.returncode == 2

    def test_missing_file_exits_2(self):
        proc = run_cli("norm", "/nonexistent/f.json")
        assert proc.returncode == 2

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
        assert report["inputs"] == [cli._input_record("vector", files["vec"])]
        assert report["tolerances"] == {"agreement": cli.FREENORM_AGREEMENT,
                                        "lp_feasibility": REL_TOL}

    def test_certifier_disagreement_exits_3(self, files, capsys, monkeypatch):
        real = composition._primal_certificate

        def flipped(phi, vertices, tol):
            cert = real(phi, vertices, tol)
            return dataclasses.replace(
                cert, verdict="not_isometric" if cert.isometric else "isometric")

        monkeypatch.setattr(composition, "_primal_certificate", flipped)
        code, report, _ = run_in_process(capsys, "isometry", "--map", files["map"],
                                         "--method", "both")
        assert code == 3
        assert report["error"]["kind"] == "MethodDisagreement"
        assert report["results"]["dual"]["verdict"] == "isometric"
        assert report["results"]["primal"]["verdict"] == "not_isometric"
        assert report["inputs"] == [cli._input_record("map", files["map"])]
        assert report["tolerances"] == {"tol_metric": REL_TOL}  # the diameter is 1

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
        assert report["tolerances"] == {"agreement": cli.FREENORM_AGREEMENT, **lp}

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
        # four meshes, and eps four meshes per diameter (2 on the tripod)
        mesh = report["results"]["mesh"]
        for profile in report["results"]["necessary"]:
            assert profile["r_loc"] == tolerances["r_loc"] == 4 * mesh
            assert profile["eps"] == tolerances["eps"] == 4 * mesh / 2.0

    def test_builtin_requires_mesh(self):
        proc = run_cli("experiment", "interval", "--map", "builtin:fold")
        assert proc.returncode == 2


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


def test_cli_import_loads_no_scipy():
    code = ("import lipfree.cli, sys; "
            "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
