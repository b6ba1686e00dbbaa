"""Span and LP-solve recording for the traced benchmark run.

Spans are recorded from the benchmark side. `Tracer.wrap_layers` replaces
each layer's public functions, at every lipfree module that binds them,
with a wrapper that opens a span around the call. A span holds a name,
start, end, parent, operation id and a few details of the call. Spans
stay in memory and are written out when the run ends.

HiGHS solves are counted at the `scipy.optimize.linprog` boundary. lipfree
binds `linprog` when it is imported, so `install_lp_counter` must run
before the first `import lipfree`, and only in the traced run: untraced
runs call HiGHS unwrapped.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable

# Public functions of each layer that get a span, by defining module.
LAYERS = {
    "metric_core": ("validate_space", "from_weighted_graph"),
    "freespace": ("extreme_molecules", "is_norming", "free_norm_primal",
                  "free_norm_dual"),
    "composition": ("certify_isometry", "certify_isometry_dual",
                    "certify_isometry_primal", "operator_norm"),
    "geodesic": ("check_interval_necessary", "check_interval_sufficient",
                 "check_geodesic_necessary", "check_geodesic_sufficient",
                 "inverse_projection"),
    "fixtures": ("builtin_map", "circle_geodesic", "tripod",
                 "random_one_lipschitz_map", "random_space", "random_zero_sum"),
    "io": ("load_space", "load_function", "load_free_vector", "load_map",
           "load_geodesic_space"),
    "cli": ("run",),
}


def _size_of(args: tuple) -> int | None:
    """Point count of the call's first argument, where it has one."""
    if not args:
        return None
    first = args[0]
    for obj in (first, getattr(first, "space", None),
                getattr(first, "codomain", None)):
        n = getattr(obj, "n", None)
        if isinstance(n, int):
            return n
    shape = getattr(first, "shape", None)
    return int(shape[0]) if shape else None


class Tracer:
    """Collects spans and LP counters for one process.

    One client thread issues operations; spans opened on it nest through
    a stack. LP solves may run on lipfree's worker threads; each is
    charged to the innermost span open on the client thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op_id: Any = None
        self._stack: list[int] = []
        self._client = threading.get_ident()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Start a new phase: no spans, zero LP counters."""
        self.spans: list[dict] = []
        self.lp_calls = 0
        self.lp_busy_s = 0.0
        self.lp_cols = 0
        self.child_import_s: list[float] = []

    def adopt(self, child: dict) -> None:
        """Take in what a child process recorded (see cli_child.py).

        The child's root spans hang under the innermost open span. Both
        processes read the same monotonic clock, so their times line up.
        """
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for span in child["spans"]:
            span["parent"] = parent if span["parent"] is None else span["parent"] + offset
            span["op"] = self.op_id
            self.spans.append(span)
        calls, busy, cols = child["lp"]
        self.lp_calls += calls
        self.lp_busy_s += busy
        self.lp_cols += cols
        self.child_import_s.append(child["import_s"])

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name (a plain call when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        on_client = threading.get_ident() == self._client
        record = {
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "n": _size_of(args),
            "lp": 0,
        }
        index = len(self.spans)
        self.spans.append(record)
        if on_client:
            self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            if on_client:
                self._stack.pop()
        if name == "freespace.extreme_molecules":
            record["vertices"] = len(result)
        return result

    def wrap_layers(self) -> None:
        """Route every lipfree binding of each LAYERS function through call."""
        for short, names in LAYERS.items():
            module = importlib.import_module(f"lipfree.{short}")
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrapper(f"{short}.{fname}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "lipfree" and not mod_name.startswith("lipfree."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    # -- LP boundary -------------------------------------------------------

    def install_lp_counter(self) -> None:
        """Count HiGHS solves made through scipy.optimize.linprog."""
        if any(m == "lipfree" or m.startswith("lipfree.") for m in sys.modules):
            raise RuntimeError("the LP counter must be installed before lipfree is imported")
        import scipy.optimize

        original = scipy.optimize.linprog

        def linprog(c, *args, **kwargs):
            if not self.enabled:
                return original(c, *args, **kwargs)
            started = time.perf_counter()
            result = original(c, *args, **kwargs)
            elapsed = time.perf_counter() - started
            with self._lock:
                self.lp_calls += 1
                self.lp_busy_s += elapsed
                self.lp_cols += len(c)
                if self._stack:
                    self.spans[self._stack[-1]]["lp"] += 1
            return result

        linprog.__wrapped__ = original
        scipy.optimize.linprog = linprog

    def unwrapped_lp_bindings(self) -> list[str]:
        """lipfree modules whose ``linprog`` bypasses the counter."""
        return [name for name, mod in sys.modules.items()
                if (name == "lipfree" or name.startswith("lipfree."))
                and "linprog" in vars(mod) and not hasattr(mod.linprog, "__wrapped__")]


def busy_by_name(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name, counting nested same-name spans once."""
    busy: dict[str, float] = {}
    for span in spans:
        parent = span["parent"]
        nested = False
        while parent is not None:
            if spans[parent]["name"] == span["name"]:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]
    return busy


def calls_by_name(spans: list[dict]) -> dict[str, int]:
    calls: dict[str, int] = {}
    for span in spans:
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    return calls


def self_time(spans: list[dict], name: str) -> float:
    """Summed duration of spans called name minus their direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return sum(span["end"] - span["start"] - child_time[i]
               for i, span in enumerate(spans) if span["name"] == name)
