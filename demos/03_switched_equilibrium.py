"""Switched boundary equilibrium of the autonomous disk system.

The force f(x) = x - (2, 0) never vanishes on the unit disk, yet the state
comes to rest at (1, 0): there the force is inward-normal and the
projection absorbs it.  The tangential (sliding) linearization decides
stability, and trajectories from nearby starts confirm the verdict.
"""

import numpy as np

import sweepsim as sw
from sweepsim.presets import disk_scenario

scn = disk_scenario()
report = sw.analyze_equilibrium(scn)

print("equilibrium report")
print(f"  x0      = {report.x0.round(10).tolist()}")
print(f"  alpha   = {report.alpha:.10f}   (< 0: force points into the disk)")
print(f"  eigenvalues of the sliding-flow linearization: "
      f"{[complex(ev) for ev in report.sliding_eigenvalues]}")
print(f"  structural zero mode at index {report.zero_mode_index}")
print(f"  verdict = {report.verdict}")
print(f"  note    : {report.convention_note}")

# tangential dynamics on the circle reduce to angle' = -2 sin(angle): rate -2
f0 = lambda x: scn.force_at(0.0, x, 0.0)      # the autonomous field: t = 0, lambda = 0
print("\nsliding field samples (tangential part of the force)")
for theta in (0.0, 0.5, np.pi / 2):
    x = np.array([np.cos(theta), np.sin(theta)])
    print(f"  theta={theta:.3f}: f_bar = {sw.sliding_field(scn.body, f0, x).round(6).tolist()}")

# --- dynamic confirmation -------------------------------------------------------

print("\n20 boundary starts within 0.1 of x0, horizon 10")
horizon = disk_scenario(period=10.0)
final_gaps = []
for theta in np.linspace(-0.0995, 0.0995, 20):
    start = np.array([np.cos(theta), np.sin(theta)])
    traj = sw.run(horizon, 0.0, start, 2048)
    final_gaps.append(float(np.linalg.norm(traj.x_nodes[-1] - report.x0)))
print(f"  worst final distance to x0: {max(final_gaps):.2e}")

inside = sw.run(horizon, 0.0, (0.9, 0.05), 2048)
radii = np.linalg.norm(inside.x_nodes, axis=1)
hit = int(np.nonzero(np.abs(radii - 1.0) <= 1e-6)[0][0])
print(f"  interior start (0.9, 0.05) reaches the boundary at t = "
      f"{inside.times[hit]:.3f} and then slides to x0")
