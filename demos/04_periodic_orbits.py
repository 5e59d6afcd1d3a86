"""Global periodic existence: a periodically swept disk with an active state
contraction always returns to its starting point after one period.

The invariant ball (centered at the contraction's fixed point) confines all
feasible states, so the period map has a fixed point inside it; damped
iteration of the return map finds one, and the sign of det(I - DP) at it,
the local degree on the solved map, is evidence of its index (not a
certificate).
"""

import numpy as np

import sweepsim as sw
from sweepsim.presets import fourier_contraction_scenario

scn = fourier_contraction_scenario()
lam = 1.0

omega = sw.omega_region(scn, lam)
print(f"invariant ball: center {omega.center.round(6).tolist()}, radius {omega.radius:.4f}")

orbit = sw.find_periodic(scn, lam, 1e-8)
print(f"periodic point q* = {orbit.q_star.round(8).tolist()}")
print(f"  |x(T) - x(0)| = {orbit.residual:.2e} at n = {orbit.n_used}")
print(f"  q* inside the ball: "
      f"{float(np.linalg.norm(orbit.q_star - omega.center)) <= omega.radius}")
if orbit.degree_check is not None:
    print(f"  local degree of I - P at q* on the solved map: {orbit.degree_check.degree}")

traj = orbit.trajectory
extent = np.max(traj.x_nodes, axis=0) - np.min(traj.x_nodes, axis=0)
print(f"  orbit extent per axis: {extent.round(4).tolist()}")
print(f"  per-step bounds hold: {sw.step_variation_check(traj)}")
print(f"  energy slack {sw.moreau_residual(traj, scn, lam):.3e} "
      f">= -{sw.moreau_epsilon(traj):.3e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(5, 5))
    circle = np.linspace(0, 2 * np.pi, 200)
    ax.plot(np.cos(circle), np.sin(circle), "k:", lw=0.8, label="body at a(0)")
    ax.plot(traj.x_nodes[:, 0], traj.x_nodes[:, 1], "k", label="periodic orbit")
    ax.plot(*orbit.q_star, "ro", ms=5, label="q*")
    ax.axis("equal")
    ax.legend()
    ax.set_title("periodic solution of the swept-disk system")
    fig.tight_layout()
    fig.savefig("periodic_orbit.png", dpi=120)
    print("wrote periodic_orbit.png")
