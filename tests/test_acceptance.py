"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing the stated tolerances and runtime budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np

import sweepsim as sw
from sweepsim.cli import main
from sweepsim.presets import (
    disk_scenario,
    drag_scenario,
    forced_disk_scenario,
    fourier_contraction_scenario,
)

from conftest import random_body

_cache = {}


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# -----------------------------------------------------------------------------
# 1. projection inequality suite
# -----------------------------------------------------------------------------

def test_criterion_1_projection_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240917)
    worst_ne, worst_tr = -np.inf, -np.inf
    for _ in range(10_000):
        body = random_body(rng, dims=(1, 2, 3, 4), kinds=("ball", "box", "polytope"))
        d = body.dim
        u, ub = rng.normal(0, 2, d), rng.normal(0, 2, d)
        shift = rng.normal(0, 1, d)
        pu = body.project(u)
        worst_ne = max(worst_ne,
                       float(np.linalg.norm(body.project(ub) - pu) - np.linalg.norm(ub - u)))
        worst_tr = max(worst_tr,
                       float(np.linalg.norm(pu - body.translate(shift).project(u))
                             - np.linalg.norm(shift)))
    elapsed = time.perf_counter() - t0
    ok = worst_ne <= 1e-9 and worst_tr <= 1e-9 and elapsed < 10.0
    _report(1, ok, f"10^4 instances: nonexpansive slack {worst_ne:.2e}, "
                   f"translation slack {worst_tr:.2e}, {elapsed:.1f}s")
    assert worst_ne <= 1e-9
    assert worst_tr <= 1e-9
    assert elapsed < 10.0


# -----------------------------------------------------------------------------
# 2. projection-gap counterexample
# -----------------------------------------------------------------------------

def test_criterion_2_counterexample_reproduction():
    t0 = time.perf_counter()
    inst = sw.projection_gap_search(seed=1, budget=10_000)
    mm = np.sqrt(2.0 * (sw.distance(inst.u, inst.c_body) + sw.distance(inst.u, inst.d_body)))
    mm *= np.sqrt(sw.hausdorff(inst.c_body, inst.d_body, 256))
    elapsed = time.perf_counter() - t0
    ok = inst.lhs >= 1.1 * inst.rhs and inst.lhs <= mm + 1e-9 and elapsed < 5.0
    _report(2, ok, f"gap {inst.lhs:.4f} >= 1.1 * d_H {inst.rhs:.4f} "
                   f"(ratio {inst.lhs / inst.rhs:.2f}), sqrt-bound {mm:.4f}, {elapsed:.1f}s")
    assert inst.lhs >= 1.1 * inst.rhs
    assert inst.lhs <= mm + 1e-9
    assert elapsed < 5.0


# -----------------------------------------------------------------------------
# 3. catching-up vs the play-operator closed form
# -----------------------------------------------------------------------------

def _drag_trajectories():
    if "drag" not in _cache:
        drag = drag_scenario()
        _cache["drag"] = {
            n: sw.run(drag, 0.0, (1.0, 0.0), n) for n in (2**10, 2**11, 2**12, 2**13)
        }
    return _cache["drag"]


def test_criterion_3_drag_convergence():
    t0 = time.perf_counter()
    trajs = _drag_trajectories()
    errs = {}
    for n, traj in trajs.items():
        exact = np.array([[max(1.0, 2.0 * t - 1.0), 0.0] for t in traj.times])
        errs[n] = float(np.max(np.linalg.norm(traj.x_nodes - exact, axis=1)))
    elapsed = time.perf_counter() - t0
    ns = sorted(errs)
    # the scheme is node-exact on this drag (projection onto an interval is
    # the play recursion), so errors sit at rounding level; the decrease test
    # carries a rounding floor so that exactness counts as passing
    decreasing = all(errs[b] <= max(errs[a] / 1.5, 5e-13) for a, b in zip(ns, ns[1:]))
    bounded = all(errs[n] <= 5.0 / n for n in ns)
    final_ok = errs[2**13] <= 1e-2
    ok = decreasing and bounded and final_ok and elapsed < 30.0
    _report(3, ok, "sup node errors "
            + ", ".join(f"n=2^{int(np.log2(n))}: {errs[n]:.2e}" for n in ns)
            + f", {elapsed:.1f}s")
    assert decreasing
    assert bounded
    assert final_ok
    assert elapsed < 30.0


# -----------------------------------------------------------------------------
# 4. per-step bounds and the discrete energy inequality
# -----------------------------------------------------------------------------

def test_criterion_4_step_bounds_and_energy_slack():
    drag = drag_scenario()
    trajs = _drag_trajectories()
    orbits = _continuation_orbits()

    all_steps_ok = all(sw.step_variation_check(t) for t in trajs.values())
    all_steps_ok &= all(sw.step_variation_check(o.trajectory) for o in orbits)

    slacks_ok = True
    for n, traj in trajs.items():
        slack = sw.moreau_residual(traj, drag, 0.0)
        slacks_ok &= slack >= -sw.moreau_epsilon(traj)
    scn6 = forced_disk_scenario()
    for orbit in orbits:
        slack = sw.moreau_residual(orbit.trajectory, scn6, orbit.lam)
        slacks_ok &= slack >= -sw.moreau_epsilon(orbit.trajectory)

    eps = {n: sw.moreau_epsilon(t) for n, t in trajs.items()}
    ns = sorted(eps)
    ratios = [eps[b] / eps[a] for a, b in zip(ns, ns[1:])]
    halving_ok = all(0.4 <= r <= 0.6 for r in ratios)

    ok = all_steps_ok and slacks_ok and halving_ok
    _report(4, ok, f"step bounds hold on {len(trajs) + len(orbits)} trajectories; "
                   f"epsilon ratios {[f'{r:.2f}' for r in ratios]}")
    assert all_steps_ok
    assert slacks_ok
    assert halving_ok


# -----------------------------------------------------------------------------
# 5. switched-equilibrium pipeline
# -----------------------------------------------------------------------------

def test_criterion_5_equilibrium_pipeline():
    t0 = time.perf_counter()
    report = sw.analyze_equilibrium(disk_scenario(), seed=(0.9, 0.1))
    x0 = np.array([1.0, 0.0])

    x0_ok = np.linalg.norm(report.x0 - x0) <= 1e-8
    alpha_ok = abs(report.alpha - (-2.0)) <= 1e-6
    nonzero = [ev for i, ev in enumerate(report.sliding_eigenvalues)
               if i != report.zero_mode_index]
    zero = report.sliding_eigenvalues[report.zero_mode_index]
    eig_ok = abs(nonzero[0].real - (-2.0)) <= 1e-3 and abs(zero) <= 1e-4
    verdict_ok = report.verdict == sw.STABLE

    scn = disk_scenario(period=10.0)
    sim_ok, slide_ok = True, True
    for theta in np.linspace(-0.0995, 0.0995, 20):
        start = np.array([np.cos(theta), np.sin(theta)])
        traj = sw.run(scn, 0.0, start, 2048)
        sim_ok &= float(np.linalg.norm(traj.x_nodes[-1] - x0)) <= 1e-3
        radii = np.linalg.norm(traj.x_nodes, axis=1)
        slide_ok &= float(np.max(np.abs(radii - 1.0))) <= 1e-6
    elapsed = time.perf_counter() - t0

    ok = x0_ok and alpha_ok and eig_ok and verdict_ok and sim_ok and slide_ok and elapsed < 20.0
    _report(5, ok, f"x0 {report.x0.round(9).tolist()}, alpha {report.alpha:.9f}, "
                   f"eigs ({nonzero[0].real:.4f}, {abs(zero):.1e}), verdict {report.verdict}, "
                   f"20 boundary starts converge, {elapsed:.1f}s")
    assert x0_ok and alpha_ok and eig_ok and verdict_ok
    assert sim_ok and slide_ok
    assert elapsed < 20.0


# -----------------------------------------------------------------------------
# 6. degree certification and continuation toward the equilibrium
# -----------------------------------------------------------------------------

def _continuation_orbits():
    if "orbits" not in _cache:
        scn = forced_disk_scenario()
        _cache["orbits"] = sw.continue_branch(
            scn, [0.05, 0.1, 0.2], (1.0, 0.0), 1e-6, n_schedule=(128, 512, 2048))
    return _cache["orbits"]


def test_criterion_6_degree_and_continuation():
    t0 = time.perf_counter()
    scn = forced_disk_scenario()
    x0 = np.array([1.0, 0.0])
    square = [x0 + (-0.1, -0.1), x0 + (0.1, -0.1), x0 + (0.1, 0.1), x0 + (-0.1, 0.1)]
    degrees = {}
    for lam in (0.0, 0.05, 0.1):
        degrees[lam] = sw.degree_2d(scn, lam, 512, square, mesh=64).degree
    degree_ok = all(v == 1 for v in degrees.values())

    orbits = _continuation_orbits()
    res_ok = len(orbits) == 3 and all(o.residual <= 1e-6 for o in orbits)
    dists = [o.seed_distance for o in orbits]          # ascending lambda
    shrink_ok = dists[0] < dists[1] < dists[2]          # distance grows with lambda
    elapsed = time.perf_counter() - t0

    ok = degree_ok and res_ok and shrink_ok and elapsed < 120.0
    _report(6, ok, f"degrees {degrees}, residuals "
                   f"{[f'{o.residual:.1e}' for o in orbits]}, distances to x0 "
                   f"{[f'{d:.4f}' for d in dists]} shrink toward lambda=0, {elapsed:.1f}s")
    assert degree_ok
    assert res_ok
    assert shrink_ok
    assert elapsed < 120.0


# -----------------------------------------------------------------------------
# 7. global periodic existence
# -----------------------------------------------------------------------------

def test_criterion_7_global_periodic_orbit():
    t0 = time.perf_counter()
    scn = fourier_contraction_scenario()
    orbit = sw.find_periodic(scn, 1.0, 1e-6)
    omega = sw.omega_region(scn, 1.0)
    inside = float(np.linalg.norm(orbit.q_star - omega.center)) <= omega.radius + 1e-9
    elapsed = time.perf_counter() - t0
    ok = orbit.residual <= 1e-6 and inside and elapsed < 60.0
    _report(7, ok, f"residual {orbit.residual:.2e}, q_star {orbit.q_star.round(6).tolist()} "
                   f"inside omega ball (radius {omega.radius:.3f}), {elapsed:.1f}s")
    assert orbit.residual <= 1e-6
    assert inside
    assert elapsed < 60.0


# -----------------------------------------------------------------------------
# 8. determinism of the machine-readable outputs
# -----------------------------------------------------------------------------

def test_criterion_8_bit_identical_outputs(tmp_path):
    drag_doc = json.dumps(drag_scenario().to_doc())
    disk_doc = json.dumps(disk_scenario().to_doc())
    drag_path = tmp_path / "drag.json"
    disk_path = tmp_path / "disk.json"
    drag_path.write_text(drag_doc)
    disk_path.write_text(disk_doc)

    def artifacts(tag):
        base = tmp_path / tag
        base.mkdir()
        sim = str(base / "traj.csv")
        eq = str(base / "eq.json")
        deg = str(base / "deg.json")
        val = str(base / "val.json")
        assert main(["simulate", "--scenario", str(drag_path), "--out", sim,
                     "--n", "512", "--seed", "7"]) == 0
        assert main(["equilibrium", "--scenario", str(disk_path), "--out", eq,
                     "--seed", "7"]) == 0
        assert main(["degree", "--scenario", str(disk_path), "--out", deg, "--n", "128",
                     "--seed", "7", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1;0.9,0.1"]) == 0
        assert main(["validate", "--scenario", str(disk_path), "--out", val,
                     "--n", "128", "--seed", "7"]) == 0
        files = [sim, str(base / "traj.plot.csv"), eq, deg, val]
        return {f.split("/")[-1]: open(f, "rb").read() for f in files}

    first = artifacts("run1")
    second = artifacts("run2")
    ok = first == second
    _report(8, ok, f"{len(first)} CSV/JSON artifacts byte-identical across reruns")
    assert first == second
