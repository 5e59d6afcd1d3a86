"""Periodic solutions: generalized initial conditions, the discrete
period-T return map, fixed-point search inside the invariant region, planar
topological degree of the displacement field, and parameter continuation.

The return map is only continuous (no smoothness is available), so the
fixed-point search uses damped Picard iteration rather than Newton; a
nonzero boundary winding number certifies existence independently of
convergence of the iteration.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldVanishesOnBoundary, MeshExhausted, NoConvergence, NotPeriodic
from .geometry import as_point
from .integrator import Trajectory, implicit_step, run, run_batch
from .scenario import Fourier, PiecewiseLinear, SweepingScenario, omega_region

log = logging.getLogger(__name__)

DEFAULT_N_SCHEDULE = (128, 512, 2048)
MESH_MIN = 64            # per-edge points of the coarsest winding mesh
MESH_CAP = 4096          # per-edge refinement cap for the winding computation
FIELD_FLOOR = 1e-9
PICARD_DAMPING = (1.0, 0.5, 0.25)   # step fractions of the fixed-point search
PICARD_BUDGET = 200      # return maps per damping level at the finest step count
COARSE_PICARD_BUDGET = 60   # the same at every coarser step count


@dataclass
class PeriodicOrbit:
    q_star: np.ndarray
    trajectory: Trajectory
    residual: float                 # ||x(T) - x(0)|| of the certifying run
    n_used: int
    lam: float
    degree_check: "DegreeResult | None" = None
    seed_distance: float | None = None   # max_t ||x(t) - seed|| for continuation


@dataclass
class DegreeResult:
    degree: int
    min_field_norm: float
    mesh_points: int
    polygon: list = field(default_factory=list)


def generalized_ic(scn: SweepingScenario, lam: float, q) -> np.ndarray:
    """Feasible start V(q): the unique solution of
    ``v = proj(q, A + a(0) + c(v))``; equals q when q is already feasible."""
    v, _ = implicit_step(scn, lam, q, np.zeros(scn.dimension), 0.0)
    return v


def poincare_map(scn: SweepingScenario, lam: float, n: int, q) -> np.ndarray:
    """x_n(T) of the n-step trajectory started from V(q)."""
    return run(scn, lam, q, n).x_nodes[-1].copy()


def _require_t_periodic(scn: SweepingScenario):
    def signal_periodic(sig):
        if sig is None:
            return True
        if isinstance(sig, Fourier):
            if sig.dim == 0:
                return True
            ratio = scn.period / sig.period
            return abs(ratio - round(ratio)) < 1e-9
        if isinstance(sig, PiecewiseLinear):
            return float(np.linalg.norm(sig.base_value(0.0) - sig.base_value(scn.period))) < 1e-12
        return False

    if not signal_periodic(scn.drift):
        raise NotPeriodic("drift is not T-periodic; periodic search undefined")
    if not signal_periodic(scn.force.forcing):
        raise NotPeriodic("forcing is not T-periodic; periodic search undefined")


def _picard_stage(scn, lam, n, q, tol, max_iter, omega):
    """Damped fixed-point iteration of q -> P(V(q)) clamped to the invariant
    ball, over the PICARD_DAMPING levels.  Returns (best_q, best_residual)."""
    best_q, best_r = q.copy(), np.inf
    for beta in PICARD_DAMPING:
        cur = best_q.copy()
        window: list[float] = []
        for _ in range(max_iter):
            image = poincare_map(scn, lam, n, cur)
            r = float(np.linalg.norm(image - cur))
            if r < best_r:
                best_r, best_q = r, cur.copy()
            if r <= tol:
                return best_q, best_r
            window.append(r)
            if len(window) > 12 and window[-1] > 0.999 * window[-13]:
                break   # stalled at this damping level
            cur = omega.project(cur + beta * (image - cur))
        if best_r <= tol:
            break
    return best_q, best_r


def _search_args(tol: float, n_schedule) -> tuple:
    """The checked arguments of a periodic search: returns the schedule in
    ascending order."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol={tol!r} must be positive and finite")
    n_schedule = tuple(sorted(n_schedule))
    if not n_schedule:
        raise ValueError("n_schedule needs at least one step count")
    return n_schedule


def find_periodic(scn: SweepingScenario, lam: float, tol: float,
                  n_schedule=DEFAULT_N_SCHEDULE, q0=None) -> PeriodicOrbit:
    """Search for a period-T point of the discrete process inside the closed
    invariant ball, iterating through an ascending step-count schedule.

    Starts at the contraction fixed point unless q0 is given.  Raises
    NoConvergence (carrying the best residual) when the damped iteration
    cannot reach tol at the finest step count: existence is still guaranteed
    in the invariant ball, but the periodic point need not be attracting,
    and no other search is tried.
    """
    n_schedule = _search_args(tol, n_schedule)
    _require_t_periodic(scn)
    omega = omega_region(scn, lam)
    q = as_point(q0) if q0 is not None else omega.center.copy()

    *coarse, n_fin = n_schedule
    for n in coarse:
        q, _ = _picard_stage(scn, lam, n, q, tol, COARSE_PICARD_BUDGET, omega)
    q, best_r = _picard_stage(scn, lam, n_fin, q, tol, PICARD_BUDGET, omega)
    traj = run(scn, lam, q, n_fin)
    residual = float(np.linalg.norm(traj.x_nodes[-1] - traj.x_nodes[0]))
    if residual > tol:
        raise NoConvergence(
            f"periodic search stalled at residual {residual:.3e} (target {tol:.3e})",
            residual=min(residual, best_r),
        )
    q_star = traj.x_nodes[0].copy()

    orbit = PeriodicOrbit(q_star=q_star, trajectory=traj, residual=residual,
                          n_used=n_fin, lam=float(lam))
    if scn.dimension == 2:
        side = max(0.1, 20.0 * tol)
        square = [
            q_star + np.array([-side / 2, -side / 2]),
            q_star + np.array([side / 2, -side / 2]),
            q_star + np.array([side / 2, side / 2]),
            q_star + np.array([-side / 2, side / 2]),
        ]
        try:
            orbit.degree_check = degree_2d(scn, lam, n_schedule[0], square)
        except (FieldVanishesOnBoundary, MeshExhausted) as err:
            log.info("degree check skipped: %s", err)
    return orbit


def _planar_polygon(polygon) -> np.ndarray:
    """The polygon as a finite (k, 2) array of vertices, k >= 3."""
    verts = []
    for idx, vertex in enumerate(polygon):
        try:
            v = np.asarray(vertex, dtype=float)
        except (TypeError, ValueError):
            v = None
        if v is None or v.shape != (2,) or not np.all(np.isfinite(v)):
            raise ValueError(f"polygon vertex {idx} ({vertex!r}) is not a finite planar point")
        verts.append(v)
    if len(verts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    return np.array(verts)


def degree_2d(scn: SweepingScenario, lam: float, n: int, polygon,
              mesh: int = MESH_MIN) -> DegreeResult:
    """Winding number of ``g(q) = q - P(V(q))`` around the polygon boundary.

    The boundary mesh is doubled until every consecutive angle increment is
    below pi/2, which pins the winding number; refuses (degree undefined)
    when the field norm drops below 1e-9 anywhere on the mesh.  The new
    points of every edge at one mesh level go through one ``run_batch``.
    """
    if scn.dimension != 2:
        raise ValueError("degree computation is planar only")
    verts = _planar_polygon(polygon)
    mesh = operator.index(mesh)
    if not MESH_MIN <= mesh <= MESH_CAP:
        raise ValueError(f"need a mesh of {MESH_MIN} to {MESH_CAP} points per edge")

    a = verts[:, None, :]
    edge = (np.roll(verts, -1, axis=0) - verts)[:, None, :]
    g = None    # (edges, m, 2): the field at each edge's m mesh points

    m = mesh
    while m <= MESH_CAP:
        fracs = np.arange(m) / m
        new = fracs if g is None else fracs[1::2]
        points = a + new[None, :, None] * edge
        g_new = points - run_batch(scn, lam, points.reshape(-1, 2), n).reshape(points.shape)
        if g is None:
            g = g_new
        else:
            g = np.stack((g, g_new), axis=2).reshape(verts.shape[0], m, 2)

        g_all = g.reshape(-1, 2)
        norms = np.linalg.norm(g_all, axis=1)
        min_norm = float(np.min(norms))
        if min_norm < FIELD_FLOOR:
            raise FieldVanishesOnBoundary(
                f"field norm {min_norm:.2e} on the boundary mesh; degree undefined"
            )
        theta = np.arctan2(g_all[:, 1], g_all[:, 0])
        dtheta = np.diff(np.append(theta, theta[0]))
        dtheta = (dtheta + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(dtheta)) < np.pi / 2.0:
            degree = int(round(float(np.sum(dtheta)) / (2.0 * np.pi)))
            return DegreeResult(degree=degree, min_field_norm=min_norm,
                                mesh_points=g_all.shape[0],
                                polygon=verts.tolist())
        m *= 2
    raise MeshExhausted(f"angle criterion unmet at {MESH_CAP} points per edge",
                        residual=float(np.max(np.abs(dtheta))), budget=MESH_CAP)


def continue_branch(scn: SweepingScenario, lambda_grid, seed_q, tol: float,
                    n_schedule=DEFAULT_N_SCHEDULE, warm_start: bool = True) -> list[PeriodicOrbit]:
    """Periodic orbits along an ascending lambda grid, warm-starting each
    solve from the previous orbit.  Per-lambda failures are logged and
    skipped, not fatal.  With warm_start=False every solve starts from
    seed_q, independently of the others."""
    _search_args(tol, n_schedule)
    grid = [float(v) for v in lambda_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly ascending")
    seed_q = as_point(seed_q)

    results: list[PeriodicOrbit] = []
    q = seed_q
    for lam in grid:
        try:
            orbit = find_periodic(scn, lam, tol, n_schedule, q0=q)
        except NoConvergence as err:
            log.warning("lambda=%g did not converge: %s", lam, err)
            continue
        orbit.seed_distance = float(
            np.max(np.linalg.norm(orbit.trajectory.x_nodes - seed_q, axis=1))
        )
        results.append(orbit)
        if warm_start:
            q = orbit.q_star
    return results
