"""Recorded, not gated, child runs of the lipfree CLI for the CI step summary.

    python .github/recorded_runs.py write DIR
    python .github/recorded_runs.py run SRC SIDE DIR

``write`` builds every input file into DIR, each in its own process,
with the lipfree on ``PYTHONPATH``. ``run`` times each case as one
child running the lipfree in SRC on those files, and prints one summary
line per case, SIDE naming the commit that SRC holds.

A child's peak RSS (``ru_maxrss``) starts at its parent's resident
size, so the runner imports neither lipfree nor numpy and never holds a
space or a report: the inputs are written before it starts, and a
verdict is read from its report by a process of its own.
"""

import json
import os
import subprocess
import sys
import time


def _inputs() -> dict:
    """Each input file's name and the object it holds, built when called."""
    from math import pi

    from lipfree.fixtures import builtin_map, circle_geodesic, interval_geodesic
    from lipfree.io import geodesic_space_to_dict, space_to_dict
    from lipfree.metric_core import circle_net, from_weighted_graph, interval_net

    def identity(space, n):
        """The identity map file of ``space``, a file name or an inline space."""
        return {"domain": space, "codomain": space, "image": list(range(n))}

    def stretched(n):
        """k -> k onto circle_geodesic(n) from a cycle of n/2 edges of 2pi/n,
        then n/2 of 4pi/n: norm 1 and modulus 1/2."""
        edges = [(k, (k + 1) % n, (2 if k < n // 2 else 4) * pi / n) for k in range(n)]
        return {"domain": space_to_dict(from_weighted_graph(n, edges)),
                "codomain": f"geodesic{n}_space.json", "image": list(range(n))}

    return {
        # every pair of circle_net(1024) is a vertex
        "circle1024.json": lambda: space_to_dict(circle_net(1024)),
        "circle1024_inline.json": lambda: identity(space_to_dict(circle_net(1024)), 1024),
        "circle1024_by_reference.json": lambda: identity("circle1024.json", 1024),
        # the map's spaces both name one matrix file of the --space file's space
        "geodesic512.json": lambda: geodesic_space_to_dict(circle_geodesic(512)),
        "geodesic512_space.json": lambda: space_to_dict(circle_geodesic(512).space),
        "geodesic512_identity.json": lambda: identity("geodesic512_space.json", 512),
        "geodesic256.json": lambda: geodesic_space_to_dict(circle_geodesic(256)),
        "geodesic256_space.json": lambda: space_to_dict(circle_geodesic(256).space),
        "stretched256.json": lambda: stretched(256),
        # builtin:K at mesh N as a map file into interval_net(N), whose one path is
        # 0..N. Fold at mesh 2048 is left out: its 4,097-point domain file alone
        # takes minutes to validate.
        "net256.json": lambda: geodesic_space_to_dict(interval_geodesic(256)),
        "net256_space.json": lambda: space_to_dict(interval_net(256)),
        "fold256_domain.json": lambda: space_to_dict(builtin_map("fold", 256).domain),
        "fold256.json": lambda: {"domain": "fold256_domain.json", "codomain": "net256_space.json",
                                 "image": list(builtin_map("fold", 256).image)},
        "net2048.json": lambda: geodesic_space_to_dict(interval_geodesic(2048)),
        "net2048_space.json": lambda: space_to_dict(interval_net(2048)),
        "identity2048.json": lambda: identity("net2048_space.json", 2049),
    }


# (subject of the summary line, lipfree arguments with {dir} the input folder,
# what else the line reports: "", "report" for the report's size, or "verdict"
# for the certificate's verdict and the sufficient report's predicts_isometric)
CASES = [
    *((f"`lipfree experiment interval --mesh 1024 --map builtin:{name}`",
       f"experiment interval --mesh 1024 --map builtin:{name}", "")
      for name in ("fold", "identity", "halving")),
    *((f"`lipfree isometry` of the `circle_net(1024)` identity ({form})",
       f"isometry --map {{dir}}/circle1024_{form.replace(' ', '_')}.json --method both",
       "report") for form in ("inline", "by reference")),
    ("`lipfree extremes` on the `circle_net(1024)` matrix file",
     "extremes {dir}/circle1024.json", "report"),
    ("`lipfree experiment geodesic` of the `circle_geodesic(512)` identity map file",
     "experiment geodesic --space {dir}/geodesic512.json --map {dir}/geodesic512_identity.json",
     "verdict"),
    ("`lipfree experiment geodesic` of the stretched `circle_geodesic(256)` map file "
     "(modulus 1/2)",
     "experiment geodesic --space {dir}/geodesic256.json --map {dir}/stretched256.json",
     "verdict"),
    *((f"`lipfree experiment geodesic` of a `builtin:{name}` mesh-{mesh} map file into "
       f"`interval_net({mesh})`",
       f"experiment geodesic --space {{dir}}/net{mesh}.json --map file:{{dir}}/{name}{mesh}.json",
       "verdict") for name, mesh in (("fold", 256), ("identity", 2048))),
]

VERDICT = ("import json, sys; r = json.load(open(sys.argv[1]))['results']; "
           "print(r['certificate']['verdict'], json.dumps(r['sufficient']['predicts_isometric']))")


def write(folder: str, name: str | None = None) -> None:
    """Write the input ``name`` into ``folder``, or every input, each in a child."""
    if name is None:
        for each in _inputs():
            subprocess.run([sys.executable, __file__, "write", folder, each], check=True)
        return
    with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
        json.dump(_inputs()[name](), fh)


def run(src: str, side: str, folder: str) -> None:
    out = os.path.join(folder, "report.json")
    for subject, args, reads in CASES:
        argv = [sys.executable, "-m", "lipfree.cli", *(a.format(dir=folder) for a in args.split())]
        with open(out, "wb") as fh:  # the report is the child's stdout
            started = time.perf_counter()
            child = subprocess.Popen(argv, stdout=fh, env={**os.environ, "PYTHONPATH": src})
            _, status, usage = os.wait4(child.pid, 0)  # this child's own peak
            wall = time.perf_counter() - started
        code = os.waitstatus_to_exitcode(status)
        line = f"{subject} at {side}: {wall:.2f} s, child peak RSS {usage.ru_maxrss / 1024:.0f} MB"
        if reads == "report":
            line += f", report {os.path.getsize(out) / 1e6 if code == 0 else 0.0:.1f} MB"
        line += f", exit {code}"
        if reads == "verdict":
            verdict, predicts = (subprocess.run([sys.executable, "-c", VERDICT, out], check=True,
                                                capture_output=True, text=True).stdout.split()
                                 if code == 0 else ("-", "-"))
            line += f", verdict {verdict}, predicts_isometric {predicts}"
        print(line, flush=True)
        if code == 0:
            os.remove(out)


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    {"write": write, "run": run}[command](*rest)
