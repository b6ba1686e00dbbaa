"""Inverse projections and mesh-scale defect profiles on geodesic nets.

A stored straight path can be "unparameterized" by a norm-one function
(the inverse projection); composing it with a candidate map turns
geodesic questions into interval questions. Defect profiles quantify
how far a map is from acting isometrically, target by target; each
row is (t, best_ratio, defect).
"""

import numpy as np

from lipfree import (
    LipschitzMap,
    PointPair,
    certify_isometry,
    check_geodesic_necessary,
    check_geodesic_sufficient,
    check_interval_necessary,
    from_weighted_graph,
    identity_map,
    inverse_projection,
)
from lipfree.fixtures import builtin_map, circle_geodesic, tripod

print("== the tripod's inverse projection, by hand ==")
gs = tripod()
proj = inverse_projection(gs, PointPair(1, 2))  # computed when the path was admitted
for i, label in enumerate(gs.space.labels):
    print(f"  P({label}) = {proj.values[i]}")
print("the third leaf lands at min over path points of arclength + distance"
      " = 1 + 1 = 2, clamped to the path length 2")

print("\n== identity on the geodesic circle ==")
gs = circle_geodesic(16)
profile = check_geodesic_necessary(identity_map(gs.space), gs, PointPair(0, 8))
print(f"mesh {gs.mesh:.4f}; max defect along the half circle: "
      f"{profile.max_defect:.2e} (threshold {profile.eps:.4f})")
report = check_geodesic_sufficient(identity_map(gs.space), gs, r=gs.mesh)
print(f"sufficiency margins: worst {report.worst_margin}; predicts isometric: "
      f"{report.predicts_isometric}")

print("\n== a stretched circle: margins are read per codomain point ==")
n = 32
gs = circle_geodesic(n)
edges = [(k, (k + 1) % n, (2 if k < n // 2 else 4) * np.pi / n) for k in range(n)]
phi = LipschitzMap(from_weighted_graph(n, edges), gs.space, tuple(range(n)))
report = check_geodesic_sufficient(phi, gs)
point, margin = min(report.rows, key=lambda row: row[1])
print("half the domain's edges are doubled, so k -> k compresses them by 1/2")
print(f"point {point} reads margin {margin:.3f} < 1 - eps = {1 - report.eps:.3f}; "
      f"predicts isometric: {report.predicts_isometric}; "
      f"certificate: {certify_isometry(phi, 'both').verdict}")

print("\n== defect profiles separate the fold from the halving map ==")
for name in ("fold", "halving"):
    phi = builtin_map(name, 32)
    profile = check_interval_necessary(phi)
    verdict = certify_isometry(phi, "both").verdict
    print(f"{name:8s} max defect {profile.max_defect:.3f}  certificate: {verdict}")

print("\n== the first rows of a profile ==")
profile = check_interval_necessary(builtin_map("halving", 8))
print(f"{'t':>9s} {'best_ratio':>10s} {'defect':>9s}")
for t, best, defect in profile.rows[:5]:
    print(f"{t:9.6f} {best:10.6f} {defect:9.6f}")
print("... (a `lipfree experiment` report holds every row, at full precision, "
      "under results.necessary)")
