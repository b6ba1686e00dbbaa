"""Seeded benchmark for lipfree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lipfree is imported from its ``src``.
One client issues operations back to back (a closed loop) over the
workload's seeded inputs, in as many whole passes as fit in S seconds.
Every result is checked. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``. The line before it
holds the run's metadata and sample counts. Spans, counts and results
are also written under ``.perfbench_out/`` in the checkout.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("mesh_sweep", "transport", "certify_random", "cli")
SETUP_PROBES = 3
# Timed runs and traced pass A use one lipfree thread: the host-speed
# kernel (speed.py) runs on one core and cannot follow a second one's
# speed. Traced pass B measures two threads.
THREADS_TIMED, THREADS_OTHER = 1, 2
CLI_UNTRACED_PASSES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print when ready and exit (used by the timed run)")
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Point imports and child processes at the checkout's src, cap BLAS threads."""
    if not (SRC / "lipfree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lipfree sources under {SRC}")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def import_workloads():
    """Import lipfree and the workloads; set LIPFREE_THREADS."""
    import workloads
    import lipfree

    if Path(lipfree.__file__).resolve().parent != (SRC / "lipfree").resolve():
        sys.exit(f"perfbench: lipfree imported from {lipfree.__file__}, not {SRC}")
    os.environ["LIPFREE_THREADS"] = str(THREADS_TIMED)
    return workloads


def make_inputs(workloads, name: str, seed: int):
    import numpy as np

    wl = workloads.WORKLOADS[name]()
    return wl, wl.build(np.random.default_rng(seed), OUT / f"cli-seed{seed}")


def setup_probe(args) -> None:
    """Fresh-interpreter set-up, reported as a CLOCK_MONOTONIC reading.

    On Linux ``time.monotonic`` reads the system-wide monotonic clock, so
    the parent can subtract its own reading taken just before the spawn.
    """
    if args.workload == "cli":
        import lipfree.cli  # noqa: F401
        count = 0
    else:
        workloads = import_workloads()
        count = len(make_inputs(workloads, args.workload, args.seed)[1])
    print(json.dumps({"ready": time.monotonic(), "inputs": count}))


def measure_setup(args, probe) -> list[float]:
    """Set up SETUP_PROBES times, each in a fresh interpreter, sampling
    the host-speed kernel after each."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - started)
        probe.after(times[-1])
    return times


class Loop:
    """Closed-loop client: whole passes over the inputs, every result checked.

    With a ``probe`` (see speed.py) the host-speed kernel runs after each
    operation, outside its timing.
    """

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.latencies: list[float] = []
        self.indices: list[int] = []
        self.failures: list[str] = []
        self.passes = 0
        self.elapsed = 0.0

    def run(self, passes: int = 1, tracer=None, run_op=None, probe=None) -> "Loop":
        """Run ``passes`` whole passes over the inputs."""
        run_op = run_op or self.wl.run
        started = time.perf_counter()
        for _ in range(passes):
            for index, item in enumerate(self.inputs):
                op_started = time.perf_counter()
                try:
                    if tracer is not None:
                        tracer.op_id = f"{self.passes}:{index}"
                        result = tracer.call("op", run_op, item, tracer)
                    else:
                        result = run_op(item)
                    error = None
                except Exception as exc:  # a failed operation is counted, never retried
                    result, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - op_started
                self.latencies.append(latency)
                self.indices.append(index)
                error = error or self.wl.check(item, result)
                if error:
                    self.failures.append(error)
                if probe is not None:
                    probe.after(latency)
            self.passes += 1
        self.elapsed = time.perf_counter() - started
        return self


def quantile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile, q in (0, 1)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def metadata(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "LIPFREE_THREADS": int(os.environ["LIPFREE_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def emit(args, meta: dict, summary: dict, correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    OUT.mkdir(exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"meta": meta, "summary": summary, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta, "summary": summary}))
    print(json.dumps(result))


def timed_passes(wl, seconds: float) -> int:
    """Whole passes that fit in ``seconds`` at the workload's reference pass time.

    The count depends on ``--seconds`` only, never on how fast the host is
    in this run, so every run of the same code measures the same operations.
    """
    return max(1, int(seconds / wl.pass_s))


def timed_run(args, wl, inputs, meta) -> None:
    from speed import REFERENCE_S, Probe

    setup_speed, loop_speed = Probe(), Probe()
    setup_raw = measure_setup(args, setup_speed)
    loop = Loop(wl, inputs).run(timed_passes(wl, args.seconds), probe=loop_speed)
    setup = [t * setup_speed.factor() for t in setup_raw]
    lat = [t * loop_speed.factor() for t in loop.latencies]
    p90 = quantile(lat, 0.90)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "cli"
                               else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "op_p90_s": {"value": p90, "unit": "s"},
        "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
    }
    raw = loop.latencies
    summary = {
        "samples": len(lat),
        "samples_beyond_p90": sum(1 for v in lat if v > p90),
        "passes": loop.passes,
        "elapsed_s": loop.elapsed,
        "reference_s": REFERENCE_S,
        "kernel_median_s": {"setup": statistics.median(setup_speed.samples),
                            "loop": statistics.median(loop_speed.samples)},
        "kernel_samples": {"setup": len(setup_speed.samples),
                           "loop": len(loop_speed.samples)},
        "wall": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_s": statistics.median(raw),
            "op_p90_s": quantile(raw, 0.90),
        },
        "setup_probes_s": setup_raw,
        "fail_ratio": len(loop.failures) / len(lat),
        "failures": loop.failures[:10],
    }
    emit(args, meta, summary, not loop.failures, len(lat), len(loop.failures), metrics)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def traced_run(args, wl, inputs, tracer, setup_spans, meta) -> None:
    from spans import busy_by_name, calls_by_name, self_time
    from workloads import Cli

    threads_a, threads_b = THREADS_TIMED, THREADS_OTHER
    cli = wl.name == "cli"

    # untraced reference pass(es), for the trace overhead and the CLI latencies
    tracer.enabled = False
    untraced = Loop(wl, inputs).run(CLI_UNTRACED_PASSES if cli else 1)
    untraced_pass_s = untraced.elapsed / untraced.passes

    phases = {}
    for label, threads in (("A", threads_a), ("B", threads_b)):
        os.environ["LIPFREE_THREADS"] = str(threads)
        tracer.reset()
        tracer.enabled = True
        run_op = (lambda item, tr: traced_cli_op(wl, item, tr)) if cli else None
        loop = Loop(wl, inputs).run(tracer=tracer, run_op=run_op)
        tracer.enabled = False
        phases[label] = {"threads": threads, "loop": loop, "spans": tracer.spans,
                         "lp": (tracer.lp_calls, tracer.lp_busy_s, tracer.lp_cols),
                         "import_s": tracer.child_import_s}
    os.environ["LIPFREE_THREADS"] = str(threads_a)

    def counts(phase) -> dict:
        spans = phase["spans"]
        out = {f"{name}.calls": calls for name, calls in calls_by_name(spans).items()}
        out["lp.calls"], _, out["lp.cols"] = phase["lp"]
        out["freespace.extreme_molecules.vertices"] = sum(
            s.get("vertices", 0) for s in spans if s["name"] == "freespace.extreme_molecules")
        return dict(sorted(out.items()))

    counts_a, counts_b = counts(phases["A"]), counts(phases["B"])
    problems = [f"{name} calls HiGHS past the LP counter" for name in tracer.unwrapped_lp_bindings()]
    if counts_a != counts_b:
        diff = {k: (counts_a.get(k), counts_b.get(k))
                for k in set(counts_a) | set(counts_b) if counts_a.get(k) != counts_b.get(k)}
        problems.append(f"counts differ between LIPFREE_THREADS {threads_a} and {threads_b}: {diff}")
    OUT.mkdir(exist_ok=True)
    counts_file = OUT / f"counts-{wl.name}-seed{args.seed}-{source_digest()}.json"
    if counts_file.exists():
        if json.loads(counts_file.read_text(encoding="utf-8")) != counts_a:
            problems.append(f"counts differ from the earlier traced run in {counts_file.name}")
    else:
        counts_file.write_text(json.dumps(counts_a, indent=2) + "\n", encoding="utf-8")

    a = phases["A"]
    spans = a["spans"]
    busy = busy_by_name(spans)
    calls = calls_by_name(spans)
    lp_calls, lp_busy, lp_cols = a["lp"]
    vertices = counts_a["freespace.extreme_molecules.vertices"]
    pairs = sum(s["n"] * (s["n"] - 1) // 2
                for s in spans if s["name"] == "freespace.extreme_molecules")
    enumeration_s = {p["threads"]: busy_by_name(p["spans"]).get("freespace.extreme_molecules", 0.0)
                     for p in phases.values()}

    values = {
        "freespace.extreme_molecules.calls": calls.get("freespace.extreme_molecules", 0),
        "freespace.extreme_molecules.busy_s": busy.get("freespace.extreme_molecules", 0.0),
        "freespace.extreme_molecules.vertex_ratio": vertices / pairs if pairs else 0.0,
        "parallel.threads2_speedup":
            enumeration_s[1] / enumeration_s[2] if enumeration_s[2] > 0 else 0.0,
        "lp.calls": lp_calls,
        "lp.busy_s": lp_busy,
        "lp.cols_mean": lp_cols / lp_calls if lp_calls else 0.0,
        "geodesic.interval_checks.busy_s":
            busy.get("geodesic.check_interval_necessary", 0.0)
            + busy.get("geodesic.check_interval_sufficient", 0.0),
        "geodesic.geodesic_checks.busy_s":
            busy.get("geodesic.check_geodesic_necessary", 0.0)
            + busy.get("geodesic.check_geodesic_sufficient", 0.0),
        "metric_core.validate_space.setup_busy_s":
            busy_by_name(setup_spans).get("metric_core.validate_space", 0.0),
        "op.busy_s": busy.get("op", 0.0),
        "op.self_s": self_time(spans, "op"),
        "trace.overhead_ratio": a["loop"].elapsed / untraced_pass_s,
    }
    for name in ("composition.certify_isometry_primal", "composition.certify_isometry_dual",
                 "freespace.is_norming", "freespace.free_norm_primal",
                 "freespace.free_norm_dual", "metric_core.validate_space"):
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.busy_s"] = busy.get(name, 0.0)
    values["cli.import_s"] = statistics.median(a["import_s"]) if a["import_s"] else 0.0
    for label in Cli.LABELS:
        picked = [v for i, v in zip(untraced.indices, untraced.latencies)
                  if cli and inputs[i][0] == label]
        values[f"cli.{label}.p50_s"] = statistics.median(picked) if picked else 0.0

    metrics = {}
    for name, value in sorted(values.items()):
        metrics[name] = {"value": value, "unit": unit_of(name)}

    loops = [untraced, phases["A"]["loop"], phases["B"]["loop"]]
    attempted = sum(len(lp.latencies) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    spans_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "setup": setup_spans,
        "A": {"threads": threads_a, "spans": spans},
        "B": {"threads": threads_b, "spans": phases["B"]["spans"]},
    }) + "\n", encoding="utf-8")
    summary = {
        "untraced_pass_s": untraced_pass_s,
        "traced_pass_s": {k: p["loop"].elapsed for k, p in phases.items()},
        "counts": counts_a,
        "count_problems": problems,
        "lp_by_span": lp_by_span(spans),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "spans_file": spans_file.name,
    }
    emit(args, meta, summary, not failures and not problems, attempted, len(failures), metrics)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_speedup")) else "count"


def lp_by_span(spans: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for span in spans:
        if span["lp"]:
            out[span["name"]] = out.get(span["name"], 0) + span["lp"]
    return out


def traced_cli_op(wl, item, tracer):
    """One CLI call in a child that records its own spans and LP solves."""
    spans_path = OUT / "cli-child-spans.json"
    result = wl.run(item, prefix=[sys.executable, str(HERE / "cli_child.py"), str(spans_path)])
    tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")))
    spans_path.unlink()
    return result


def main(argv=None) -> None:
    args = parse_args(argv)
    prepare_environment()
    if args.setup_probe:
        setup_probe(args)
        return
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install_lp_counter()
    workloads = import_workloads()
    meta = metadata(args)
    if tracer is None:
        wl, inputs = make_inputs(workloads, args.workload, args.seed)
        timed_run(args, wl, inputs, meta)
        return
    tracer.wrap_layers()
    tracer.enabled = True
    tracer.op_id = "setup"
    wl, inputs = make_inputs(workloads, args.workload, args.seed)
    tracer.enabled = False
    traced_run(args, wl, inputs, tracer, tracer.spans, meta)


if __name__ == "__main__":
    main()
