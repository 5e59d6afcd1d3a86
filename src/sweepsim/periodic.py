"""Periodic solutions: the discrete period-T return map from the
generalized initial condition V(q), fixed-point search inside the invariant
region, planar topological degree of the displacement field, and parameter
continuation.

A periodic search needs a T-periodic right-hand side; each drift and
forcing says whether it repeats every T (``repeats_every``).  The search is
damped Picard iteration with a secant (Anderson) correction from the last d
iterates, d the dimension, which needs only the continuity of the return
map and forms no derivative of it, although the map is differentiable
almost everywhere.  In the plane, a found point also gets the local degree
of the displacement field g = I - P on the map it solved, sign det(I - D),
with D the forward-difference Jacobian of P at q* (``LocalDegree``): the
index of q* where the map is differentiable there, evidence and not a
certificate.  The winding number of g around a polygon (``degree_2d``) is
the mesh form, on a map and polygon of the caller's choice.
"""

from __future__ import annotations

import cmath
import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldVanishesOnBoundary, MeshExhausted, NoConvergence, NotPeriodic, OutOfRange
from .geometry import as_point
# implicit_step is looked up here by the benchmark's tracer, which patches periodic.implicit_step
from .integrator import DEFAULT_STEP_TOL, Trajectory, implicit_step, run, run_batch  # noqa: F401
from .scenario import SweepingScenario, _check_tol, _lambda_grid, omega_region

log = logging.getLogger(__name__)


def _schedule(n: int) -> tuple:
    """The ascending step counts of a periodic search whose final count is n."""
    stages = (32,) if n <= 128 else (max(64, n // 16), max(128, n // 4))
    return tuple(k for k in stages if k < n) + (n,)


DEFAULT_N_SCHEDULE = _schedule(2048)    # (128, 512, 2048)
MESH_MIN = 64            # per-edge points of the coarsest winding mesh
MESH_CAP = 4096          # per-edge refinement cap for the winding computation
FIELD_FLOOR = 1e-9
PICARD_DAMPING = (1.0, 0.5, 0.25)   # step fractions of the fixed-point search
PICARD_BUDGET = 200      # return maps per damping level at the finest step count
COARSE_PICARD_BUDGET = 60   # the same at every coarser step count
# The local degree's forward-difference step h, and the smallest singular
# value of I - D that gives a sign.  A column of D is off by at most
# (M/2) h + 2 eps / h, M a second-derivative bound of P and eps a map's
# solve error.  With eps at the step tolerance h^2 that is (M/2 + 2) h, so
# sigma_min is off by at most sqrt(2) (M/2 + 2) h: 10 h for M up to 10.
FD_STEP = math.sqrt(DEFAULT_STEP_TOL)
SINGULAR_FLOOR = 10.0 * FD_STEP


@dataclass
class PeriodicOrbit:
    q_star: np.ndarray
    trajectory: Trajectory
    residual: float                 # ||x(T) - x(0)|| of the certifying run
    n_used: int
    lam: float
    degree_check: "LocalDegree | None" = None
    seed_distance: float | None = None   # max_t ||x(t) - seed|| for continuation


@dataclass
class LocalDegree:
    degree: int | None      # sign det(I - D); None when sigma_min <= SINGULAR_FLOOR
    multipliers: tuple      # the two eigenvalues of D, complex
    sigma_min: float        # the smallest singular value of I - D
    h: float                # the forward-difference step


@dataclass
class DegreeResult:
    degree: int
    min_field_norm: float
    mesh_points: int
    polygon: list = field(default_factory=list)


def poincare_map(scn: SweepingScenario, lam: float, n: int, q) -> np.ndarray:
    """x_n(T) of the n-step trajectory started from V(q)."""
    return run(scn, lam, q, n).x_nodes[-1].copy()


def _require_t_periodic(scn: SweepingScenario):
    for name, sig in (("drift", scn.drift), ("forcing", scn.force.forcing)):
        if sig is not None and not sig.repeats_every(scn.period):
            raise NotPeriodic(f"{name} is not T-periodic; periodic search undefined")


def _picard_stage(scn, lam, n, q, tol, max_iter, omega):
    """Damped fixed-point iteration of q -> P(V(q)) clamped to the invariant
    ball, over the PICARD_DAMPING levels.  Returns (best_q, best_residual,
    the trajectory of best_q's return map).

    With f = P(q) - q, the step from q_k is the Anderson secant step
    q_k + beta f_k - (dQ + beta dF) gamma.  The columns of dQ and dF are the
    differences q_j - q_{j-1} and f_j - f_{j-1} of the last d iterates (d the
    dimension), and gamma minimises |f_k - dF gamma| (normal equations).
    With one column this is gamma = <df, f_k> / <df, df>; with d columns the
    step is a full secant step, which also closes in on a point the map
    turns around (one real gamma cannot).  The history is dropped and the
    step is the plain damped step q_k + beta f_k at the start of each level
    and after a residual |f_k| that does not fall below the one before; it is
    also that step when the columns of dF are linearly dependent, as a zero
    column is.

    Each return map is one ``run``, made once: a damping level that restarts
    from best_q reads its image from the kept trajectory."""
    best_q, best_r, best = q, np.inf, None
    for beta in PICARD_DAMPING:
        cur, traj = best_q, best
        window: list[float] = []
        dq, df = [], []     # the secant history
        for _ in range(max_iter):
            if traj is None:
                traj = run(scn, lam, cur, n)
            f = traj.x_nodes[-1] - cur
            r = float(np.linalg.norm(f))
            if r < best_r:
                best_r, best_q, best = r, cur, traj
            if r <= tol:
                return best_q, best_r, best
            nxt = cur + beta * f
            if window and r < window[-1]:
                dq, df = (dq + [cur - prev_q])[-cur.size:], (df + [f - prev_f])[-cur.size:]
                dF = np.array(df)
                try:
                    gamma = np.linalg.solve(dF @ dF.T, dF @ f)
                    nxt -= gamma @ (np.array(dq) + beta * dF)
                except np.linalg.LinAlgError:
                    pass    # dependent differences: the plain step
            else:
                dq, df = [], []
            window.append(r)
            if len(window) > 12 and window[-1] > 0.999 * window[-13]:
                break   # stalled at this damping level
            prev_q, prev_f = cur, f
            cur, traj = omega._project(nxt), None
    return best_q, best_r, best


def _search_args(tol: float, n_schedule) -> tuple:
    """The checked arguments of a periodic search: returns the schedule in
    ascending order."""
    _check_tol(tol)
    n_schedule = tuple(sorted(n_schedule))
    if not n_schedule:
        raise ValueError("n_schedule needs at least one step count")
    return n_schedule


def find_periodic(scn: SweepingScenario, lam: float, tol: float,
                  n_schedule=DEFAULT_N_SCHEDULE, q0=None) -> PeriodicOrbit:
    """Search for a period-T point of the discrete process inside the closed
    invariant ball, iterating through an ascending step-count schedule.

    Starts at the contraction fixed point unless q0 is given.  No return map
    is run twice: the orbit's trajectory is the map the search evaluated at
    its best iterate of the finest step count, which on success is the last
    map it evaluated.  Each step is a damped Picard step with a secant
    correction, or the plain damped step where the residual did not fall.
    Raises NoConvergence (carrying the best residual) when the iteration
    cannot reach tol at the finest step count:
    existence is still guaranteed in the invariant ball, but the periodic
    point need not be attracting, and no other search is tried.  In the
    plane the orbit's ``degree_check`` is the local degree of I - P at q* on
    the solved map, which costs d more runs at the finest step count.
    """
    n_schedule = _search_args(tol, n_schedule)
    q = None if q0 is None else as_point(q0, scn.dimension, "q0")
    _require_t_periodic(scn)
    omega = omega_region(scn, lam)
    if q is None:
        q = omega.center

    *coarse, n_fin = n_schedule
    for n in coarse:
        q, _, _ = _picard_stage(scn, lam, n, q, tol, COARSE_PICARD_BUDGET, omega)
    _, best_r, traj = _picard_stage(scn, lam, n_fin, q, tol, PICARD_BUDGET, omega)
    residual = float(np.linalg.norm(traj.x_nodes[-1] - traj.x_nodes[0]))
    if residual > tol:
        raise NoConvergence(
            f"periodic search stalled at residual {residual:.3e} (target {tol:.3e})",
            residual=min(residual, best_r),
        )
    q_star = traj.x_nodes[0].copy()

    return PeriodicOrbit(q_star=q_star, trajectory=traj, residual=residual,
                         n_used=n_fin, lam=float(lam),
                         degree_check=_local_degree(scn, lam, traj) if scn.dimension == 2 else None)


def _local_degree(scn, lam, traj) -> LocalDegree:
    """The local degree of g = I - P at q* = traj's start, on traj's map.

    D is the forward-difference Jacobian of P from the image traj already
    holds and one run from q* + h e_i per axis.  The 2x2 forms are closed:
    the multipliers from the trace and determinant of D, and the largest
    singular value and the determinant of G = I - D from G's entries, which
    keeps det G accurate as D nears I."""
    q, image = traj.x_nodes[0], traj.x_nodes[-1]
    (a, c), (b, d) = (((run(scn, lam, q + FD_STEP * e, traj.n).x_nodes[-1] - image)
                       / FD_STEP).tolist() for e in np.eye(2))     # the columns of D
    half_trace = (a + d) / 2.0
    root = cmath.sqrt(half_trace * half_trace - (a * d - b * c))
    g_det = (1.0 - a) * (1.0 - d) - b * c
    g_max = (math.hypot(2.0 - a - d, b - c) + math.hypot(d - a, b + c)) / 2.0
    sigma_min = abs(g_det) / g_max if g_max > 0.0 else 0.0
    return LocalDegree(degree=None if sigma_min <= SINGULAR_FLOOR else (1 if g_det > 0.0 else -1),
                       multipliers=(half_trace + root, half_trace - root),
                       sigma_min=sigma_min, h=FD_STEP)


def _planar_polygon(polygon) -> np.ndarray:
    """The polygon as a finite (k, 2) array of vertices, k >= 3."""
    verts = []
    for idx, vertex in enumerate(polygon):
        try:
            v = np.asarray(vertex, dtype=float)
        except (TypeError, ValueError):
            v = None
        if v is None or v.shape != (2,) or not np.all(np.isfinite(v)):
            raise OutOfRange(f"polygon vertex {idx} ({vertex!r}) is not a finite planar point")
        verts.append(v)
    if len(verts) < 3:
        raise OutOfRange("polygon needs at least 3 vertices")
    return np.array(verts)


def _mesh(mesh) -> int:
    """The coarsest winding mesh, an integer in [MESH_MIN, MESH_CAP] points per edge."""
    mesh = operator.index(mesh)
    if not MESH_MIN <= mesh <= MESH_CAP:
        raise OutOfRange(f"need a mesh of {MESH_MIN} to {MESH_CAP} points per edge")
    return mesh


def degree_2d(scn: SweepingScenario, lam: float, n: int, polygon,
              mesh: int = MESH_MIN) -> DegreeResult:
    """Winding number of ``g(q) = q - P(V(q))`` around the polygon boundary.

    The boundary mesh is doubled until every consecutive angle increment is
    below pi/2, which pins the winding number; refuses (degree undefined)
    when the field norm drops below 1e-9 anywhere on the mesh.  The new
    points of every edge at one mesh level go through one ``run_batch``.
    Raises OutOfRange for a non-planar scenario, a polygon of fewer than 3
    finite vertices or a mesh outside [MESH_MIN, MESH_CAP], before any map.
    """
    if scn.dimension != 2:
        raise OutOfRange(f"dimension {scn.dimension}: degree computation is planar only")
    verts = _planar_polygon(polygon)
    mesh = _mesh(mesh)

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
    grid = _lambda_grid(lambda_grid)      # every lam checked before the first solve
    seed_q = as_point(seed_q, scn.dimension, "seed_q")

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
