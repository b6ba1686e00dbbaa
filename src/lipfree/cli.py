"""Command-line front door.

Every command emits a single JSON report with the same envelope:
command, artifact version, input digests, the tolerances that were in
force, the command-specific results, and a timing block. Reports are
deterministic for identical inputs and flags; only the timing block
varies between runs.

Exit codes: 0 for any computed verdict (a negative verdict is still a
successful computation), 2 for input errors, and 3 for internal
invariant failures such as certifier disagreement.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .composition import (
    LipschitzMap,
    _cert_tol,
    certify_isometry,
    compose,
    identity_map,
    operator_norm,
)
from .errors import (
    InputError,
    InternalCheckError,
    MalformedInput,
    MethodDisagreement,
    RangeNotDense,
)
from .fixtures import BUILTIN_MAPS, builtin_map, random_lipschitz_function
from .freespace import (
    extreme_molecules,
    free_norm_dual,
    free_norm_primal,
    is_norming,
)
from .geodesic import (
    check_geodesic_necessary,
    check_geodesic_sufficient,
    check_interval_necessary,
    check_interval_sufficient,
)
from .io import (
    load_free_vector,
    load_function,
    load_geodesic_space,
    load_map,
    load_space,
    sha256_of_file,
)
from .lipschitz import LipschitzFunction, lipschitz_norm, mcshane_extend
from .metric_core import REL_TOL, PointPair

FREENORM_AGREEMENT = 1e-8


def _input_record(role: str, path: str | None, extra: dict | None = None) -> dict:
    rec: dict[str, Any] = {"role": role}
    if path is not None:
        rec["path"] = str(path)
        rec["sha256"] = sha256_of_file(path)
    if extra:
        rec.update(extra)
    return rec


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit_csv(rows, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "best_ratio", "defect"])
        for t, best, defect in rows:
            writer.writerow([repr(t), repr(best), repr(defect)])


def _parse_indices(flag: str, text: str, n: int) -> list[int]:
    """Comma-separated distinct point indices below n."""
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError:
        raise MalformedInput(flag, f"{text!r} is not a list of integers") from None
    if not all(0 <= i < n for i in indices):
        raise MalformedInput(flag, f"{text!r}: indices must lie in 0..{n - 1}")
    if len(set(indices)) != len(indices):
        raise MalformedInput(flag, f"{text!r}: indices must be distinct")
    return indices


def _parse_pairs(text: str, n: int) -> list[PointPair]:
    """Semicolon-separated pairs of distinct point indices below n."""
    pairs = []
    for chunk in filter(str.strip, text.split(";")):
        indices = _parse_indices("--pairs", chunk, n)
        if len(indices) != 2:
            raise MalformedInput("--pairs", f"{chunk!r} is not a pair")
        pairs.append(PointPair(*indices))
    if not pairs:
        raise MalformedInput("--pairs", "no pairs given")
    return pairs


def _certify(phi: LipschitzMap, args, inputs, tolerances, pairs=None):
    """Certify as the flags ask: (certificate, operator norm, certification
    wall time). Sets ``tolerances["tol_metric"]``; a disagreement carries
    the command's inputs and tolerances to its report."""
    tol = tolerances["tol_metric"] = _cert_tol(phi) if args.tol is None else args.tol
    started = time.perf_counter()
    try:
        cert = certify_isometry(phi, method=args.method, pairs=pairs, tol=tol)
    except MethodDisagreement as exc:
        exc.inputs, exc.tolerances = inputs, tolerances
        raise
    wall = time.perf_counter() - started
    return cert.to_dict(), operator_norm(phi), wall


def _check_numeric_flags(args) -> None:
    """Reject a numeric flag that is not finite or lies outside its range."""
    for flag, least, closed in (("--tol", 0.0, True), ("--mesh", 1, True),
                                ("--r-loc", 0.0, False), ("--eps", 0.0, True),
                                ("--probe", 0, True), ("--seed", 0, True)):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None or (math.isfinite(value)
                             and (value >= least if closed else value > least)):
            continue
        bound = f"at least {least}" if closed else f"above {least}"
        raise MalformedInput(flag, f"{value!r} must be finite and {bound}")


def _resolve_experiment_map(spec_text: str, mesh: int | None = None,
                            space_path: str | None = None):
    """builtin:NAME, file:PATH or a bare path: the map, the geodesic space
    read from ``space_path`` (else None) and the map's input record. A
    builtin's name is checked before any file is read; an interval builtin
    needs ``mesh``, and on a geodesic space the only one is identity."""
    names = BUILTIN_MAPS if space_path is None else ("identity",)
    builtin = spec_text.startswith("builtin:")
    name = (spec_text.split(":", 1)[1]
            if builtin or spec_text.startswith("file:") else spec_text)
    if builtin and name not in names:
        raise MalformedInput("--map", f"unknown builtin map {name!r}; choose from "
                             + ", ".join(f"builtin:{known}" for known in names))
    if space_path is not None:
        gspace = load_geodesic_space(space_path)
        phi = identity_map(gspace.space) if builtin else load_map(name, codomain=gspace.space)
        return phi, gspace, {"builtin" if builtin else "path": name}
    if not builtin:
        return load_map(name), None, {"path": name}
    if mesh is None:
        raise MalformedInput("--mesh", "builtin maps need --mesh")
    return builtin_map(name, mesh), None, {"builtin": name, "mesh": mesh}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="norms, extreme molecules, and isometry certificates "
                    "for Lipschitz spaces over finite metric spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    certifiers = ("dual", "primal", "both")

    def common(p, tol=True, methods=None):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="absolute tolerance for distances (default 1e-9 * diameter)")
        if methods:
            p.add_argument("--method", default="both", choices=methods,
                           help="which algorithm(s) to run")

    p = sub.add_parser("validate", help="check a space file against the metric axioms")
    p.add_argument("space")
    common(p)

    p = sub.add_parser("norm", help="Lipschitz norm of a function file")
    p.add_argument("function")
    common(p, tol=False)

    p = sub.add_parser("freenorm", help="transport norm of a zero-sum vector file")
    p.add_argument("vector")
    common(p, tol=False, methods=("flow", "lp", "both"))

    p = sub.add_parser("extremes", help="extreme molecule pairs of a space")
    p.add_argument("space")
    common(p)

    p = sub.add_parser("norming", help="is a pair set norming for the space?")
    p.add_argument("space")
    p.add_argument("--pairs", required=True,
                   help="semicolon-separated pairs, e.g. '0,1;1,2'")
    common(p)

    p = sub.add_parser("isometry", help="certify a composition operator")
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--domain", default=None)
    p.add_argument("--codomain", default=None)
    p.add_argument("--pairs", default=None,
                   help="optional norming pair set for the dual method")
    common(p, methods=certifiers)

    p = sub.add_parser("extend", help="norm-preserving extension from a subset")
    p.add_argument("function")
    p.add_argument("--subset", required=True, help="comma-separated point indices")
    p.add_argument("--floor", default=None, help="optional floor function file")
    common(p)

    p = sub.add_parser("experiment", help="mesh-scale isometry experiments")
    exp = p.add_subparsers(dest="experiment_kind")

    pi = exp.add_parser("interval", help="run the interval-net checks on a map")
    pi.add_argument("--mesh", type=int, default=None, help="subdivisions n (mesh 1/n)")
    pi.add_argument("--map", required=True, dest="map_spec",
                    help="builtin:identity|fold|halving|collapse or file:PATH")
    pi.add_argument("--r-loc", type=float, default=None, dest="r_loc")
    pi.add_argument("--eps", type=float, default=None)
    pi.add_argument("--seed", type=int, default=None,
                    help="seed for the random lower-bound probe")
    pi.add_argument("--probe", type=int, default=0,
                    help="number of random functions for the norm probe")
    pi.add_argument("--csv", default=None, help="write the defect profile as CSV")
    common(pi, methods=certifiers)

    pg = exp.add_parser("geodesic", help="run the geodesic checks on a map")
    pg.add_argument("--space", required=True, help="geodesic space file (with paths)")
    pg.add_argument("--map", required=True, dest="map_spec",
                    help="file path or builtin:identity")
    pg.add_argument("--r-loc", type=float, default=None, dest="r_loc")
    pg.add_argument("--eps", type=float, default=None)
    pg.add_argument("--csv", default=None, help="write the defect profiles as CSV")
    common(pg, methods=certifiers)

    return parser


# ---------------------------------------------------------------------------
# command bodies: each returns (inputs, tolerances, results)
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    inputs = [_input_record("space", args.space)]
    try:
        space = load_space(args.space, tol=args.tol)
    except MalformedInput:
        raise
    except InputError as exc:
        results = {
            "valid": False,
            "error": {"kind": type(exc).__name__, "message": str(exc),
                      "witness": list(getattr(exc, "witness", ()) or ())},
        }
        # only the triangle check compares within a tolerance
        tol = getattr(exc, "tol", args.tol)
        return inputs, {} if tol is None else {"tol_metric": tol}, results
    results = {"valid": True, "points": space.n, "diameter": space.diameter}
    return inputs, {"tol_metric": args.tol if args.tol is not None else space.tol}, results


def _cmd_norm(args):
    f = load_function(args.function)
    value, witness = lipschitz_norm(f)
    return (
        [_input_record("function", args.function)],
        {"tol_metric": f.space.tol},
        {"norm": value, "witness": list(witness)},
    )


def _cmd_freenorm(args):
    mu = load_free_vector(args.vector)
    inputs = [_input_record("vector", args.vector)]
    tolerances = {"agreement": FREENORM_AGREEMENT}
    if args.method == "flow":
        value, plan = free_norm_primal(mu)
        return inputs, tolerances, {"method": "flow", "value": value,
                                    "plan": [list(p) for p in plan]}
    tolerances["lp_feasibility"] = REL_TOL
    if args.method == "lp":
        value, maximizer = free_norm_dual(mu)
        return inputs, tolerances, {"method": "lp", "value": value,
                                    "maximizer": maximizer.values.tolist()}
    flow_value, plan = free_norm_primal(mu)
    lp_value, maximizer = free_norm_dual(mu)
    gap = abs(flow_value - lp_value)
    agree = gap <= FREENORM_AGREEMENT * max(1.0, flow_value)
    results = {
        "method": "both",
        "flow": flow_value,
        "lp": lp_value,
        "difference": gap,
        "agree": agree,
        "plan": [list(p) for p in plan],
        "maximizer": maximizer.values.tolist(),
    }
    if not agree:
        raise MethodDisagreement("primal and dual norms disagree beyond tolerance",
                                 results, inputs, tolerances)
    return inputs, tolerances, results


def _space_tolerances(space, args) -> dict:
    """``space.tol`` decides; a ``--tol`` only admitted the space."""
    given = {} if args.tol is None else {"tol_validation": args.tol}
    return {"tol_metric": space.tol, **given}


def _cmd_extremes(args):
    space = load_space(args.space, tol=args.tol)
    pairs = extreme_molecules(space)
    return (
        [_input_record("space", args.space)],
        _space_tolerances(space, args),
        {"pairs": [list(p.as_tuple()) for p in pairs], "count": len(pairs)},
    )


def _cmd_norming(args):
    space = load_space(args.space, tol=args.tol)
    result = is_norming(space, _parse_pairs(args.pairs, space.n))
    return (
        [_input_record("space", args.space)],
        _space_tolerances(space, args),
        {"is_norming": result.is_norming,
         "failing_vertex": list(result.failing_vertex.as_tuple())
         if result.failing_vertex else None},
    )


def _cmd_isometry(args):
    domain = load_space(args.domain, tol=args.tol) if args.domain else None
    codomain = load_space(args.codomain, tol=args.tol) if args.codomain else None
    phi = load_map(args.map_path, domain=domain, codomain=codomain)
    pairs = _parse_pairs(args.pairs, phi.codomain.n) if args.pairs else None
    inputs = [_input_record("map", args.map_path)]
    if args.domain:
        inputs.append(_input_record("domain", args.domain))
    if args.codomain:
        inputs.append(_input_record("codomain", args.codomain))
    tolerances = {}
    results, norm, wall = _certify(phi, args, inputs, tolerances, pairs)
    results["operator_norm"] = norm
    results["wall_time_s"] = wall
    return inputs, tolerances, results


def _cmd_extend(args):
    f = load_function(args.function)
    subset = _parse_indices("--subset", args.subset, f.space.n)
    if f.space.base not in subset:
        raise MalformedInput("--subset", f"must contain the base point {f.space.base}")
    floor = load_function(args.floor) if args.floor else None
    if floor is not None and floor.space.n != f.space.n:
        raise MalformedInput("--floor", "floor lives on a different-size space")
    if floor is not None:
        # re-anchor the floor onto the function's space object
        floor = LipschitzFunction(f.space, floor.values, normalize=False)
    f_sub = [float(f.values[i]) for i in subset]
    ext = mcshane_extend(f.space, subset, f_sub, floor=floor, tol=args.tol)
    inputs = [_input_record("function", args.function)]
    if args.floor:
        inputs.append(_input_record("floor", args.floor))
    return (
        inputs,
        {"tol_metric": args.tol if args.tol is not None else f.space.tol},
        {"subset": subset, "values": ext.values.tolist(),
         "norm": lipschitz_norm(ext).value},
    )


def _cmd_experiment_interval(args):
    phi, _, map_record = _resolve_experiment_map(args.map_spec, args.mesh)
    inputs = [_input_record("map", map_record.get("path"), map_record)]
    necessary = check_interval_necessary(phi, r_loc=args.r_loc, eps=args.eps)
    sufficient = check_interval_sufficient(phi, r=necessary.r_loc, eps=args.eps)
    tolerances = {"r_loc": necessary.r_loc, "eps": necessary.eps}
    cert, norm, wall = _certify(phi, args, inputs, tolerances)
    results = {
        "operator_norm": norm,
        "necessary": necessary.to_dict(),
        "sufficient": sufficient.to_dict(),
        "certificate": cert,
        "wall_time_s": wall,
    }
    if args.probe:
        rng = np.random.default_rng(args.seed)
        best = 0.0
        for _ in range(args.probe):
            f = random_lipschitz_function(rng, phi.codomain)
            fn = lipschitz_norm(f).value
            if fn > 0:
                best = max(best, lipschitz_norm(compose(phi, f)).value / fn)
        results["random_probe"] = {"samples": args.probe, "seed": args.seed,
                                   "max_ratio": best}
    if args.csv:
        _emit_csv(necessary.rows, args.csv)
    return inputs, tolerances, results


def _cmd_experiment_geodesic(args):
    phi, gspace, map_record = _resolve_experiment_map(args.map_spec,
                                                      space_path=args.space)
    inputs = [_input_record("space", args.space),
              _input_record("map", map_record.get("path"), map_record)]
    profiles = [check_geodesic_necessary(phi, gspace, PointPair(x, y),
                                         r_loc=args.r_loc, eps=args.eps)
                for (x, y) in sorted(gspace.paths)]
    r_loc, eps = profiles[0].r_loc, profiles[0].eps
    tolerances = {"r_loc": r_loc, "eps": eps}
    cert, norm, wall = _certify(phi, args, inputs, tolerances)
    try:
        sufficient = check_geodesic_sufficient(phi, gspace, r=r_loc, eps=eps).to_dict()
    except RangeNotDense as exc:
        sufficient = {"range_not_dense": {"worst_point": exc.worst_point,
                                          "gap": exc.gap}}
    results = {
        "operator_norm": norm,
        "mesh": gspace.mesh,
        "necessary": [p.to_dict() for p in profiles],
        "sufficient": sufficient,
        "certificate": cert,
        "wall_time_s": wall,
    }
    if args.csv:
        rows = [row for p in profiles for row in p.rows]
        _emit_csv(rows, args.csv)
    return inputs, tolerances, results


_COMMANDS = {
    "validate": _cmd_validate,
    "norm": _cmd_norm,
    "freenorm": _cmd_freenorm,
    "extremes": _cmd_extremes,
    "norming": _cmd_norming,
    "isometry": _cmd_isometry,
    "extend": _cmd_extend,
    "experiment.interval": _cmd_experiment_interval,
    "experiment.geodesic": _cmd_experiment_geodesic,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    command = args.command
    if command == "experiment":
        if args.experiment_kind is None:
            print("experiment requires a kind: interval | geodesic", file=sys.stderr)
            return 2
        command = f"experiment.{args.experiment_kind}"
    started = time.perf_counter()
    try:
        _check_numeric_flags(args)
        inputs, tolerances, results = _COMMANDS[command](args)
    except MethodDisagreement as exc:
        report = _envelope(command, exc.inputs, exc.tolerances, exc.results, started)
        report["error"] = {"kind": "MethodDisagreement", "message": str(exc)}
        _emit(report, args.out)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = _envelope(command, inputs, tolerances, results, started)
    _emit(report, args.out)
    return 0


def _envelope(command, inputs, tolerances, results, started) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
        "timing": {"wall_time_s": time.perf_counter() - started},
    }


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
