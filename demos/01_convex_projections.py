"""Convex-body toolbox tour: projections, support functions, Hausdorff
distance, and the projection-gap counterexample.

The punchline of the last section: projections onto two nearby sets can be
much farther apart than the Hausdorff distance between the sets, although
they always obey the square-root bound.
"""

import numpy as np

import sweepsim as sw

# --- the body catalog -------------------------------------------------------

ball = sw.Ball((0.0, 0.0), 1.0)
box = sw.Box((-1.0, -1.0), (1.0, 1.0))
triangle = sw.HalfspacePolytope(
    [((1.0, 1.0), 1.0), ((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)],
    bounding_radius=2.0,
    interior_point=(0.2, 0.2),
)
ellipse = sw.Ellipsoid((0.0, 0.0), np.diag([4.0, 1.0]))

print("projections")
print("  ball   :", ball.project((2.0, 0.0)))
print("  box    :", box.project((2.0, 2.0)))
print("  triangle (dual active set):", triangle.project((0.9, 0.9)))
print("  ellipse (secular equation):", ellipse.project((2.0, 1.0)))

# the defining variational inequality <p - q, c - q> <= 0 holds for members c
rng = np.random.default_rng(0)
p = np.array([2.0, 1.0])
q = ellipse.project(p)
worst = max(float((p - q) @ (c - q)) for c in ellipse.sample_points(2000, rng))
print(f"  worst variational-inequality value over 2000 members: {worst:.2e}")

print("\nsupport functions and Hausdorff distance")
print("  support(ellipse, e1) =", ellipse.support((1.0, 0.0)))
print("  d_H(ball, ball shifted by 0.5) =", sw.hausdorff(ball, sw.Ball((0.5, 0.0), 1.0), 256))
print("  d_H(ball, box) =", sw.hausdorff(ball, box, 256))

# --- how far apart can two projections be? ----------------------------------

print("\nprojection-gap counterexample (two nearly parallel segments)")
inst = sw.projection_gap_search(seed=1, budget=10_000)
ratio = inst.lhs / inst.rhs
print(f"  probe point u = {inst.u.round(4).tolist()}")
print(f"  |proj(u,C) - proj(u,D)| = {inst.lhs:.4f}")
print(f"  d_H(C, D)               = {inst.rhs:.4f}   (ratio {ratio:.2f})")
mm = np.sqrt(2.0 * (sw.distance(inst.u, inst.c_body) + sw.distance(inst.u, inst.d_body)))
mm *= np.sqrt(inst.rhs)
print(f"  sqrt bound sqrt(2(d_C+d_D)) * sqrt(d_H) = {mm:.4f}  (still holds)")
