"""Command-line front door.

Every command emits a single JSON report with the same envelope:
command, artifact version, the arguments it was given, the path and
digest of every file it read (as :mod:`lipfree.io` recorded them), the
tolerances that were in force, the command-specific results, and a
timing block. Reports are deterministic for identical inputs and flags;
only the timing block varies between runs.

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

import numpy as np

from . import __version__
from .composition import (
    LipschitzMap,
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
    READS,
    load_free_vector,
    load_function,
    load_geodesic_space,
    load_map,
    load_space,
)
from .lipschitz import LipschitzFunction, lipschitz_norm, mcshane_extend
from .metric_core import REL_TOL, PointPair


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
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


def _certify(phi: LipschitzMap, args, tolerances, pairs=None):
    """Certify as the flags ask: (certificate, operator norm, certification
    wall time). Adds the codomain's tolerances to ``tolerances``; a
    disagreement carries them to its report."""
    tolerances.update(_space_tolerances(phi.codomain, args))
    started = time.perf_counter()
    try:
        cert = certify_isometry(phi, method=args.method, pairs=pairs)
    except MethodDisagreement as exc:
        exc.tolerances = tolerances
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
                            space_path: str | None = None, tol: float | None = None):
    """builtin:NAME, file:PATH or a bare path: the map and the geodesic
    space read from ``space_path`` (else None). A builtin's name is checked
    before any file is read; an interval builtin needs ``mesh``, and on a
    geodesic space the only one is identity. ``tol`` admits every space
    read from a file."""
    names = BUILTIN_MAPS if space_path is None else ("identity",)
    builtin = spec_text.startswith("builtin:")
    name = (spec_text.split(":", 1)[1]
            if builtin or spec_text.startswith("file:") else spec_text)
    if builtin and name not in names:
        raise MalformedInput("--map", f"unknown builtin map {name!r}; choose from "
                             + ", ".join(f"builtin:{known}" for known in names))
    if space_path is not None:
        gspace = load_geodesic_space(space_path, tol)
        phi = (identity_map(gspace.space) if builtin
               else load_map(name, codomain=gspace.space, tol=tol))
        return phi, gspace
    if not builtin:
        return load_map(name, tol=tol), None
    if mesh is None:
        raise MalformedInput("--mesh", "builtin maps need --mesh")
    return builtin_map(name, mesh), None


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
                           help="distance tolerance admitting the input spaces "
                                "(default 1e-9 * diameter)")
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
                   help="optional norming pair set, checked for every method")
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
    pi.add_argument("--seed", type=int, default=0,
                    help="seed for the random lower-bound probe (default 0)")
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
# command bodies: each returns (tolerances, results)
# ---------------------------------------------------------------------------

def _cmd_validate(args):
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
        tol = getattr(exc, "tol", None)  # only the triangle check has one
        return {} if tol is None else {"tol_validation": tol}, results
    return _space_tolerances(space, args), {
        "valid": True, "points": space.n, "diameter": space.diameter}


def _cmd_norm(args):
    f = load_function(args.function)
    value, witness = lipschitz_norm(f)
    return {"tol_metric": f.space.tol}, {"norm": value, "witness": list(witness)}


def _cmd_freenorm(args):
    mu = load_free_vector(args.vector)
    tolerances = {"agreement": REL_TOL}
    if args.method == "flow":
        value, plan = free_norm_primal(mu)
        return tolerances, {"method": "flow", "value": value,
                            "plan": [list(p) for p in plan]}
    tolerances["lp_feasibility"] = REL_TOL
    if args.method == "lp":
        value, maximizer = free_norm_dual(mu)
        return tolerances, {"method": "lp", "value": value,
                            "maximizer": maximizer.values.tolist()}
    flow_value, plan = free_norm_primal(mu)
    lp_value, maximizer = free_norm_dual(mu)
    gap = abs(flow_value - lp_value)
    agree = gap <= REL_TOL * flow_value  # relative at every scale
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
                                 results, tolerances)
    return tolerances, results


def _space_tolerances(space, args) -> dict:
    """``space.tol`` decides every comparison; a ``--tol`` only admitted a
    matrix-form space (a graph-form one is never rechecked)."""
    given = {} if args.tol is None or space.edges is not None else {"tol_validation": args.tol}
    return {"tol_metric": space.tol, **given}


def _cmd_extremes(args):
    space = load_space(args.space, tol=args.tol)
    pairs = extreme_molecules(space)
    return _space_tolerances(space, args), {"pairs": pairs.tolist(), "count": len(pairs)}


def _cmd_norming(args):
    space = load_space(args.space, tol=args.tol)
    norming, failing = is_norming(space, _parse_pairs(args.pairs, space.n))
    return _space_tolerances(space, args), {
        "is_norming": norming, "failing_vertex": list(failing.as_tuple()) if failing else None}


def _cmd_isometry(args):
    domain = load_space(args.domain, tol=args.tol) if args.domain else None
    codomain = load_space(args.codomain, tol=args.tol) if args.codomain else None
    phi = load_map(args.map_path, domain=domain, codomain=codomain, tol=args.tol)
    pairs = _parse_pairs(args.pairs, phi.codomain.n) if args.pairs else None
    tolerances = {}
    results, norm, wall = _certify(phi, args, tolerances, pairs)
    results["operator_norm"] = norm
    results["wall_time_s"] = wall
    return tolerances, results


def _cmd_extend(args):
    f = load_function(args.function, tol=args.tol)
    subset = _parse_indices("--subset", args.subset, f.space.n)
    if f.space.base not in subset:
        raise MalformedInput("--subset", f"must contain the base point {f.space.base}")
    floor = load_function(args.floor, tol=args.tol) if args.floor else None
    if floor is not None:
        if floor.space.n != f.space.n:
            raise MalformedInput("--floor", "floor lives on a different-size space")
        floor = LipschitzFunction(f.space, floor.values, normalize=False)  # on f's space
    ext = mcshane_extend(f.space, subset, f.values[subset], floor=floor)
    return _space_tolerances(f.space, args), {
        "subset": subset, "values": ext.values.tolist(), "norm": lipschitz_norm(ext).value}


def _cmd_experiment_interval(args):
    phi, _ = _resolve_experiment_map(args.map_spec, args.mesh, tol=args.tol)
    necessary = check_interval_necessary(phi, r_loc=args.r_loc, eps=args.eps)
    sufficient = check_interval_sufficient(phi, r=necessary.r_loc, eps=args.eps)
    tolerances = {"r_loc": necessary.r_loc, "eps": necessary.eps}
    cert, norm, wall = _certify(phi, args, tolerances)
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
    return tolerances, results


def _cmd_experiment_geodesic(args):
    phi, gspace = _resolve_experiment_map(args.map_spec, space_path=args.space, tol=args.tol)
    profiles = [check_geodesic_necessary(phi, gspace, PointPair(x, y),
                                         r_loc=args.r_loc, eps=args.eps)
                for (x, y) in sorted(gspace.paths)]
    r_loc, eps = profiles[0].r_loc, profiles[0].eps
    tolerances = {"r_loc": r_loc, "eps": eps}
    cert, norm, wall = _certify(phi, args, tolerances)
    sufficient = check_geodesic_sufficient(phi, gspace, r=r_loc, eps=eps)
    results = {
        "operator_norm": norm,
        "mesh": gspace.mesh,
        "necessary": [p.to_dict() for p in profiles],
        "sufficient": sufficient.to_dict(),
        "certificate": cert,
        "wall_time_s": wall,
    }
    if args.csv:
        rows = [row for p in profiles for row in p.rows]
        _emit_csv(rows, args.csv)
    return tolerances, results


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
    argv = sys.argv[1:] if argv is None else list(argv)
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
    inputs: list[dict] = []
    collecting = READS.set(inputs)
    try:
        _check_numeric_flags(args)
        tolerances, results = _COMMANDS[command](args)
    except MethodDisagreement as exc:
        report = _envelope(command, argv, inputs, exc.tolerances, exc.results, started)
        report["error"] = {"kind": "MethodDisagreement", "message": str(exc)}
        _emit(report, args.out)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (InputError, MemoryError) as exc:  # an input too large for memory is bad input
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        READS.reset(collecting)
    report = _envelope(command, argv, inputs, tolerances, results, started)
    _emit(report, args.out)
    return 0


def _envelope(command, argv, inputs, tolerances, results, started) -> dict:
    return {
        "command": command,
        "version": __version__,
        "argv": argv,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
        "timing": {"wall_time_s": time.perf_counter() - started},
    }


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
