"""Brute-force oracles that check the package's projections and supports
independently of them: a membership test per body and a projection by
exhaustive search over a membership-filtered grid.  Also the ranking of
equilibrium seeds one direction at a time, which the analysis makes on one
stack of directions, and the periodic search as plain damped Picard
iteration, which the package's search accelerates with a secant step."""

import numpy as np

import sweepsim as sw
from sweepsim.equilibrium import _autonomous_field, _boundary_oracle
from sweepsim.errors import InvalidInput
from sweepsim.geometry import as_point, sphere_directions
from sweepsim.integrator import run
from sweepsim.periodic import (COARSE_PICARD_BUDGET, DEFAULT_N_SCHEDULE, PICARD_BUDGET,
                               PICARD_DAMPING)


class DimensionTooLarge(InvalidInput):
    """Brute-force oracle requested in dimension above its limit."""


def contains_mask(body, points: np.ndarray) -> np.ndarray:
    """Vectorized algebraic membership for an (m, d) array of points."""
    if isinstance(body, sw.Ball):
        return np.linalg.norm(points - body.center, axis=1) <= body.radius + 1e-12
    if isinstance(body, sw.Box):
        return np.all((points >= body.lower - 1e-12) & (points <= body.upper + 1e-12), axis=1)
    if isinstance(body, sw.HalfspacePolytope):
        return np.all(points @ body.normals.T <= body.offsets + 1e-12, axis=1)
    y = (points - body.center) @ body._basis
    return np.sum(y * y / body._axes_sq, axis=1) <= 1.0 + 1e-12


def project_oracle(p, body, step: float) -> np.ndarray:
    """Brute-force projection: argmin over a membership-filtered grid.

    Independent of project().  The grid is anchored at integer multiples of
    step, so the returned distance exceeds the true one by at most
    step*sqrt(d) (grid covering radius).
    """
    p = as_point(p)
    if body.dim > 3:
        raise DimensionTooLarge("grid oracle limited to d <= 3")
    if step <= 0:
        raise ValueError("step must be positive")
    lo, hi = body.bounding_box()
    axes = [
        np.arange(np.floor(lo[i] / step) - 1, np.ceil(hi[i] / step) + 2) * step
        for i in range(body.dim)
    ]
    total = int(np.prod([len(a) for a in axes]))
    if total > 60_000_000:
        raise ValueError("grid too large; use a coarser step")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    mask = contains_mask(body, pts)
    if not np.any(mask):
        raise ValueError("grid misses the body; use a finer step")
    members = pts[mask]
    dist_sq = np.sum((members - p) ** 2, axis=1)
    return members[int(np.argmin(dist_sq))]


def ranked_seeds(scn):
    """Every boundary point ``analyze_equilibrium`` may seed Newton from, best
    first: the per-direction ranking, one point's products at a time.  A
    direction counts when the force at its boundary point clears the 1e-14
    floor and its least-squares alpha (grad H = alpha f0) is negative; the
    rest are sorted by the misfit |grad H - alpha f0|, ties in direction order."""
    f0, oracle = _autonomous_field(scn), _boundary_oracle(scn.body)
    lo, hi = scn.body.bounding_box()
    reach = float(np.linalg.norm(hi - lo))
    candidates = []
    for v in sphere_directions(scn.dimension, 64):
        x = scn.body._project(scn.interior_point + reach * v)
        fx = f0(x)
        g = oracle.grad_h(x)
        denom = float(fx @ fx)
        if denom < 1e-14:
            continue
        alpha_ls = float(g @ fx) / denom
        mis = float(np.linalg.norm(g - alpha_ls * fx))
        if alpha_ls < 0.0:
            candidates.append((mis, x))
    candidates.sort(key=lambda pair: pair[0])
    return [x for _, x in candidates]


def _damped_picard(scn, lam, n, q, tol, max_iter, omega, maps):
    """q -> Pi_Omega(q + beta (P(q) - q)) over the PICARD_DAMPING levels, each
    from the best iterate so far, until the residual |P(q) - q| reaches tol.
    A level ends after max_iter maps, or when its newest residual is not 0.1%
    below the one 12 maps earlier.  Returns (best q, its residual); appends n
    to ``maps`` for every return map run."""
    best_q, best_r, best = q, np.inf, None
    for beta in PICARD_DAMPING:
        cur, image = best_q, best
        window = []
        for _ in range(max_iter):
            if image is None:
                image = run(scn, lam, cur, n).x_nodes[-1]
                maps.append(n)
            r = float(np.linalg.norm(image - cur))
            if r < best_r:
                best_r, best_q, best = r, cur, image
            if r <= tol:
                return best_q, best_r
            window.append(r)
            if len(window) > 12 and window[-1] > 0.999 * window[-13]:
                break
            cur, image = omega._project(cur + beta * (image - cur)), None
    return best_q, best_r


def picard_periodic(scn, lam, tol, n_schedule=DEFAULT_N_SCHEDULE, q0=None):
    """A periodic point of the discrete process by damped Picard iteration
    alone, through the ascending step-count schedule with the package's
    budgets, from the centre of the invariant ball unless q0 is given.
    Returns (q, residual, return maps run) at the finest step count."""
    omega = sw.omega_region(scn, lam)
    q = omega.center if q0 is None else as_point(q0, scn.dimension)
    maps = []
    *coarse, n_fin = sorted(n_schedule)
    for n in coarse:
        q, _ = _damped_picard(scn, lam, n, q, tol, COARSE_PICARD_BUDGET, omega, maps)
    q, r = _damped_picard(scn, lam, n_fin, q, tol, PICARD_BUDGET, omega, maps)
    return q, r, len(maps)
