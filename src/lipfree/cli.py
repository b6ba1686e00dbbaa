"""Command-line front door.

Every command emits a single JSON report with the same envelope:
command, artifact version, the arguments it was given, the path and
digest of every file it read (as :mod:`lipfree.io` recorded them), the
tolerances that were in force (every space read is admitted at its own
metric tolerance), the command-specific results, and a timing block.
No command is random: identical inputs and flags give identical reports
apart from the timing block.

Exit codes: 0 for any computed verdict (a negative verdict is still a
successful computation), 2 for usage and input errors, and 3 for internal
invariant failures such as certifier disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .composition import (
    LipschitzMap,
    certify_isometry,
    identity_map,
    operator_norm,
)
from .errors import (
    InputError,
    InternalCheckError,
    MalformedInput,
    MethodDisagreement,
)
from .fixtures import BUILTIN_MAPS, builtin_map
from .freespace import (
    extreme_molecules,
    free_norm_dual,
    free_norm_primal,
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
from .lipschitz import lipschitz_norm
from .metric_core import REL_TOL, PointPair


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _certify(phi: LipschitzMap, tolerances, method="both"):
    """Certify by ``method``: (certificate, operator norm). Adds the
    codomain's tolerance to ``tolerances``; a disagreement carries them
    to its report."""
    tolerances["tol_metric"] = phi.codomain.tol
    try:
        cert = certify_isometry(phi, method=method)
    except MethodDisagreement as exc:
        exc.tolerances = tolerances
        raise
    return cert.to_dict(), operator_norm(phi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="norms, extreme molecules, and isometry certificates "
                    "for Lipschitz spaces over finite metric spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, methods=None):
        p.set_defaults(handler=handler, usage_error=p.error)  # leftovers name their command
        if methods:
            p.add_argument("--method", default="both", choices=methods,
                           help="which algorithm(s) to run")

    p = sub.add_parser("validate", help="check a space file against the metric axioms")
    p.add_argument("space")
    common(p, _cmd_validate)

    p = sub.add_parser("norm", help="Lipschitz norm of a function file")
    p.add_argument("function")
    common(p, _cmd_norm)

    p = sub.add_parser("freenorm", help="transport norm of a zero-sum vector file")
    p.add_argument("vector")
    common(p, _cmd_freenorm, methods=("flow", "lp", "both"))

    p = sub.add_parser("extremes", help="extreme molecule pairs of a space")
    p.add_argument("space")
    common(p, _cmd_extremes)

    p = sub.add_parser("isometry", help="certify a composition operator")
    p.add_argument("--map", required=True, dest="map_path")
    common(p, _cmd_isometry, methods=("dual", "primal", "both"))

    p = sub.add_parser("experiment", help="mesh-scale isometry experiments")
    exp = p.add_subparsers(required=True)

    pi = exp.add_parser("interval", help="run the interval-net checks on a builtin map")
    pi.add_argument("--mesh", type=int, required=True, help="subdivisions n (mesh 1/n)")
    pi.add_argument("--map", required=True, dest="map_spec",
                    help="builtin:identity|fold|halving|collapse")
    common(pi, _cmd_experiment)
    pi.set_defaults(command="experiment.interval", space=None)  # builds, reads no file

    pg = exp.add_parser("geodesic", help="run the geodesic checks on a map")
    pg.add_argument("--space", required=True, help="geodesic space file (with paths)")
    pg.add_argument("--map", required=True, dest="map_spec",
                    help="file path or builtin:identity")
    common(pg, _cmd_experiment)
    pg.set_defaults(command="experiment.geodesic")

    return parser


# ---------------------------------------------------------------------------
# command bodies: each returns (tolerances, results)
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    try:
        space = load_space(args.space)
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
    return {"tol_metric": space.tol}, {
        "valid": True, "points": space.n, "diameter": space.diameter}


def _cmd_norm(args):
    f = load_function(args.function)
    value, witness = lipschitz_norm(f)
    if value == math.inf:
        raise MalformedInput(f"{args.function}.values", "too large: the Lipschitz norm overflows")
    return {"tol_metric": f.space.tol}, {"norm": value, "witness": list(witness)}


def _cmd_freenorm(args):
    mu = load_free_vector(args.vector)
    tolerances = {"agreement": REL_TOL}
    flow_value, plan = free_norm_primal(mu) if args.method != "lp" else (0.0, ())
    lp_value, maximizer = free_norm_dual(mu) if args.method != "flow" else (0.0, None)
    if not (math.isfinite(flow_value) and math.isfinite(lp_value)):
        raise MalformedInput(f"{args.vector}.coeffs", "too large: the transport norm overflows")
    if args.method == "flow":
        return tolerances, {"method": "flow", "value": flow_value,
                            "plan": [list(p) for p in plan]}
    tolerances["lp_feasibility"] = REL_TOL
    if args.method == "lp":
        return tolerances, {"method": "lp", "value": lp_value,
                            "maximizer": maximizer.values.tolist()}
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


def _cmd_extremes(args):
    space = load_space(args.space)
    pairs = extreme_molecules(space)
    return {"tol_metric": space.tol}, {"pairs": pairs.tolist(), "count": len(pairs)}


def _cmd_isometry(args):
    phi = load_map(args.map_path)
    tolerances = {}
    results, norm = _certify(phi, tolerances, args.method)
    results["operator_norm"] = norm
    return tolerances, results


def _cmd_experiment(args):
    """``--map`` is builtin:NAME or a path (``./builtin:x`` names such a file).
    Without ``--space`` it is an interval builtin at ``--mesh`` (from 1 to below
    2**53, past which a net's coordinates k/n are not exact), whose coordinate
    projects its one path; into a geodesic space it is identity or a file map,
    read through each stored path's inverse projection. ``--mesh``, then a
    builtin's name, is checked before any file is read."""
    if args.space is None and not 1 <= args.mesh < 2**53:
        bound = f"below {2**53}" if args.mesh >= 2**53 else "at least 1"
        raise MalformedInput("--mesh", f"{args.mesh!r} must be finite and {bound}")
    names = BUILTIN_MAPS if args.space is None else ("identity",)
    builtin = args.map_spec.startswith("builtin:")
    name = args.map_spec.split(":", 1)[1] if builtin else args.map_spec
    if builtin and name not in names:
        raise MalformedInput("--map", f"unknown builtin map {name!r}; choose from "
                             + ", ".join(f"builtin:{known}" for known in names))
    if args.space is None:
        if not builtin:
            raise MalformedInput("--map", "experiment interval runs builtin maps; "
                                 "check a map file with experiment geodesic --space")
        phi = builtin_map(name, args.mesh)
        profiles = [check_interval_necessary(phi)]
        sufficient = check_interval_sufficient(phi)
    else:
        gspace = load_geodesic_space(args.space)
        phi = (identity_map(gspace.space) if builtin else load_map(name, codomain=gspace.space))
        profiles = [check_geodesic_necessary(phi, gspace, PointPair(x, y))
                    for (x, y) in sorted(gspace.paths)]
        sufficient = check_geodesic_sufficient(phi, gspace)
    tolerances = {"r_loc": profiles[0].r_loc, "eps": profiles[0].eps}
    cert, norm = _certify(phi, tolerances)
    return tolerances, {
        "operator_norm": norm,
        "mesh": profiles[0].extra["mesh"],
        "necessary": [p.to_dict() for p in profiles],
        "sufficient": sufficient.to_dict(),
        "certificate": cert,
    }


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    started = time.perf_counter()
    inputs: list[dict] = []
    collecting = READS.set(inputs)
    try:
        tolerances, results = args.handler(args)
    except MethodDisagreement as exc:
        report = _envelope(args.command, argv, inputs, exc.tolerances, exc.results, started)
        report["error"] = {"kind": "MethodDisagreement", "message": str(exc)}
        _emit(report)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (InputError, MemoryError) as exc:  # an input too large for memory is bad input
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        READS.reset(collecting)
    report = _envelope(args.command, argv, inputs, tolerances, results, started)
    _emit(report)
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
