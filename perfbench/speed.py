"""Host-speed probe: a fixed reference kernel timed between operations.

The benchmark runs on shared virtual machines whose speed drifts: the
same operation can take 1.8 times as long a minute later, with the
process's CPU time rising with its wall time (the host lends less
throughput; nothing takes time away from the process). Run-to-run
spreads of wall time then measure the host, not lipfree.

The probe times a reference kernel that does not touch lipfree (a
pure-Python loop, small numpy array work and one HiGHS solve, the three
kinds of work lipfree's operations are made of) after each operation,
for about a twentieth of the operation's time, so that its samples cover
the run as the operations do. A run's times are then scaled by
``REFERENCE_S`` over the median kernel time of the run, raised to
``ELASTICITY``: the times the run would have taken on a host that runs
the kernel in ``REFERENCE_S``. One factor per run, from hundreds of
samples, follows the drift from run to run without adding the kernel's
own noise to each operation. The kernel is part of the benchmark, so it
is the same on every commit the benchmark compares.

The kernel's time swings more than the operations' between the host's
fast and slow phases. Over 20 runs of each workload, an operation's
wall time rose as the run's median kernel time to the power 0.60 (cli)
to 0.89 (transport), with correlations of 0.88 to 0.98; scaling by the
full ratio over-corrected, and slow-host runs read as the fastest.
``ELASTICITY`` is the middle of that range.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Median kernel time on an idle core of a 2-vCPU Intel Xeon virtual
# machine (Python 3.11, numpy 2.4, scipy 1.17); only sets the scale.
REFERENCE_S = 0.004
ELASTICITY = 0.7
SHARE = 0.05  # kernel time per unit of operation time

_rng = np.random.default_rng(20191017)
_A = _rng.random((40, 90))
_B = _A.sum(axis=1)
_C = -_rng.random(90)
_M = _rng.random((48, 48))


def kernel() -> float:
    """The reference work; returns a checksum so nothing is optimised away."""
    table: dict[int, int] = {}
    for i in range(6000):
        key = (i * 7919) % 113
        table[key] = table.get(key, 0) + i
    order = sorted(table.items(), key=lambda kv: (kv[1] % 101, kv[0]))
    x = _M[:, 0].copy()
    for _ in range(60):
        x = np.minimum(_M @ x, 1.0) + np.abs(x[::-1]) * 0.5
        x /= max(float(x.max()), 1e-12)
    res = linprog(_C, A_ub=_A, b_ub=_B, bounds=(0.0, 1.0), method="highs")
    return order[0][0] + float(x.sum()) + float(res.fun)


class Probe:
    """Times the kernel on demand; turns the timings into a speed factor."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def after(self, seconds: float) -> None:
        """Sample after a piece of work that took ``seconds``: at least once,
        and for about SHARE of that time."""
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
            if time.perf_counter() - started >= SHARE * seconds:
                break

    def factor(self) -> float:
        """Multiply a time measured while sampling by this to adjust it."""
        return (REFERENCE_S / statistics.median(self.samples)) ** ELASTICITY
