"""Certifying composition operators, with both algorithms side by side.

A norm-one map is certified isometric either by finding, for every
extreme pair of the codomain, a preimage pair at the same distance
(dual route), or by reading the metric the map induces on its codomain,
the shortest-path closure of the least distance between fibres, which
must be the codomain's own (primal route). The primal also reports the
modulus m, the largest factor with ||f o phi|| >= m ||f|| for every f.
The two must agree; `method="both"` enforces that.
"""

import numpy as np

from lipfree import (
    certify_isometry,
    compose,
    identity_map,
    lipschitz_norm,
    operator_norm,
)
from lipfree.fixtures import (
    builtin_map,
    random_lipschitz_function,
    random_one_lipschitz_map,
)

print("== the builtin calibration family at mesh 1/16 ==")
for name in ("identity", "fold", "halving", "collapse"):
    phi = builtin_map(name, 16)
    norm = operator_norm(phi)
    report = certify_isometry(phi, "both")
    print(f"{name:9s} operator norm {norm:4.2f} -> {report.verdict}")

print("\n== what a positive dual certificate carries ==")
phi = builtin_map("fold", 4)
report = certify_isometry(phi, "both")
w = report.dual.witnesses  # one row per extreme pair, as columns
for (x, y), (a, b), d in zip(w["pair"].tolist(), w["preimage"].tolist(),
                             w["domain_distance"].tolist()):
    print(f"  codomain pair {(x, y)} at distance {phi.codomain.dist[x, y]:.4f}"
          f" has preimage {(a, b)} at distance {d:.4f}")

print("\n== what a negative certificate carries ==")
report = certify_isometry(builtin_map("collapse", 4), "both")
print(f"  failing pair {report.dual.failing_pair}: {report.dual.notes}")

print("\n== a random quotient map is isometric by construction ==")
rng = np.random.default_rng(7)
phi = random_one_lipschitz_map(rng, 8, 5, kind="quotient")
report = certify_isometry(phi, "both")
print(f"quotient of an 8-point space onto {phi.codomain.n} classes: "
      f"{report.verdict}")
print(f"the primal's modulus (least ||f o phi|| / ||f||): {report.primal.modulus!r}")

print("\n== isometry means norms survive composition ==")
worst = 1.0
for _ in range(200):
    f = random_lipschitz_function(rng, phi.codomain)
    fn = lipschitz_norm(f).value
    if fn > 0:
        worst = min(worst, lipschitz_norm(compose(phi, f)).value / fn)
print(f"min ||C f|| / ||f|| over 200 random functions: {worst:.12f}")

print("\n== identity sanity ==")
space = phi.codomain
print("identity verdict:", certify_isometry(identity_map(space), "both").verdict)
