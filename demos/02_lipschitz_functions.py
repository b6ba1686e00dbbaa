"""Lipschitz norms, pointwise constants, extension, and the peak bump.

The extension demo reproduces the two-term minimum by hand so the
inf-convolution formula is visible, then shows that the extension, the
largest one of its norm, stays above a function below it on the subset.
"""

import numpy as np

from lipfree import (
    LipschitzFunction,
    interval_net,
    lipschitz_norm,
    mcshane_extend,
    peak_function,
    pointwise_lip_at_scale,
)
from lipfree.metric_core import from_weighted_graph

print("== norms come with witnesses ==")
net = interval_net(2)
f = LipschitzFunction(net, [0.0, 0.3, 1.0])
value, witness = lipschitz_norm(f)
print(f"values (0, 0.3, 1.0) on {{0, 1/2, 1}}: norm {value} attained at "
      f"points {witness} (the steep right half)")

print("\n== pointwise constants at an explicit scale ==")
coords = np.array([k / 10 for k in range(11)])
tent = LipschitzFunction(interval_net(10), np.abs(coords - 0.5))
for x, label in [(5, "apex"), (2, "left flank"), (0, "endpoint")]:
    print(f"Lip at {label}: {pointwise_lip_at_scale(tent, x, r=0.1)}")

print("\n== extension from a subset ==")
path = from_weighted_graph(3, [(0, 1, 1), (1, 2, 1)])
ext = mcshane_extend(path, subset=[0, 1], f_sub=[0.0, 1.0])
print("extend (0,1) from {0,1} along the path:")
print(f"  F(2) = min(0 + 1*d(0,2), 1 + 1*d(1,2)) = min(2, 2) = {ext.values[2]}")
print(f"  norm preserved: {lipschitz_norm(ext).value}")

print(f"  F = {ext.values.tolist()} >= 0 everywhere: {bool(np.all(ext.values >= 0))}"
      " (0 has norm 0 <= 1 and lies below f on the subset)")

print("\n== the unit-slope peak bump ==")
n = 16
net = interval_net(n)
g = peak_function(net, 0.5)
value, witness = lipschitz_norm(g)
print(f"mesh h = 1/{n}: norm = {value} = 1 - h/2 exactly")
print("pairs attaining the norm all touch the two cells next to the anchor;")
print("that localization is what makes the bump useful as a probe.")
