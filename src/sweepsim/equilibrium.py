"""Switched boundary equilibria of the autonomous constant-constraint
process: points on the body boundary where the force is inward-normal, so
the constrained state rests although the force does not vanish.

Motion near such a point slides along the boundary and is governed by the
tangential component of the force; its linearization decides stability.
The boundary is the zero set of the body's own level function
(``_level_set``): a ball or an ellipsoid has one, and a body with corners
raises NonSmoothBody.

SIGN CONVENTION: all reported eigenvalues belong to the linearization of the
implemented flow ``x' = -(tangential part of f0)``, whose stable equilibria
have eigenvalues with negative real part.  The Jacobian of the tangential
field itself has mirrored signs; the report carries this note.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AmbiguousZeroMode, DegenerateGradient, NotAutonomous, NotFound, WrongSign
from .geometry import ConvexBody, as_point, sphere_directions
from .scenario import SweepingScenario, _check_tol, _drift_row, vanishes_at_lambda_zero

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"
NEWTON_BUDGET = 100     # Newton steps allowed on the equilibrium conditions

CONVENTION_NOTE = (
    "eigenvalues are those of the flow linearization d/dx[-(tangential force)]"
    " at x0; the tangential-field Jacobian itself has mirrored signs"
)


@dataclass
class BoundaryOracle:
    """Level-set description H(x) = 0 of the body boundary near a point;
    H > 0 outside the body, gradient nonzero on the boundary."""

    h: callable
    grad_h: callable


@dataclass
class StabilityVerdict:
    verdict: str
    eigenvalues: list[complex]
    zero_mode_index: int


@dataclass
class EquilibriumReport:
    x0: np.ndarray
    alpha: float
    sliding_eigenvalues: list[complex]
    zero_mode_index: int
    verdict: str
    fd_step: float
    convention_note: ClassVar[str] = CONVENTION_NOTE


def boundary_oracle(body: ConvexBody) -> BoundaryOracle:
    """Smooth level-set oracle for Ball and Ellipsoid bodies."""
    o = _boundary_oracle(body)
    d = body.dim
    return BoundaryOracle(lambda x: o.h(as_point(x, d)), lambda x: o.grad_h(as_point(x, d)))


def _boundary_oracle(body):     # boundary_oracle on the float points the analysis builds
    return BoundaryOracle(*body._level_set())


def _autonomous_field(scn):
    """The force field at lambda = 0, ``scn.force_at(0.0, x, 0.0)``, on the
    float points the analysis builds and on (m, d) row stacks of them; raises
    NotAutonomous when the scenario does not degenerate to an autonomous
    constant-constraint process there."""
    if not vanishes_at_lambda_zero(scn.drift):
        raise NotAutonomous("drift does not vanish at lambda=0; not autonomous")
    if scn.force.forcing is not None and not vanishes_at_lambda_zero(scn.force.forcing):
        raise NotAutonomous("force is time-dependent at lambda=0; not autonomous")
    if not vanishes_at_lambda_zero(scn.contraction):
        raise NotAutonomous("contraction does not vanish at lambda=0; not autonomous")

    state = scn.force.state_cols
    forcing = None if scn.force.forcing is None else _drift_row(scn.force.forcing, 0.0, 0.0)

    def field(x):     # a row stack is one column product
        out = state(x[:, None])[:, 0] if x.ndim == 1 else state(x.T).T
        return out if forcing is None else out + forcing
    return field


def _fd_jacobian(func, z, h):
    jac = np.empty((z.size, z.size))     # every map differenced here is square
    for j in range(z.size):
        step = np.zeros_like(z)
        step[j] = h
        jac[:, j] = (func(z + step) - func(z - step)) / (2.0 * h)
    return jac


def find_switched_equilibrium(scn: SweepingScenario, seed, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Solve {H(x) = 0, grad H(x) = alpha f0(x)} by damped Newton from seed.

    Accepts only solutions with alpha < 0 and the force pointing into the
    body (the sliding condition); otherwise raises WrongSign, a NotFound.
    Newton stagnation, or NEWTON_BUDGET steps short of tol, raises NotFound
    with the last residual and that budget.  tol must be positive and finite.
    """
    _check_tol(tol)
    return _newton(_boundary_oracle(scn.body), _autonomous_field(scn), as_point(seed, scn.dimension, "seed"), tol)


def _newton(oracle, f0, x, tol):
    """``find_switched_equilibrium`` from a float seed x."""
    d = x.size
    fx = f0(x)
    denom = float(fx @ fx)
    if denom < 1e-14:
        raise NotFound("force vanishes at the seed; no normal direction to match")
    alpha = float(oracle.grad_h(x) @ fx) / denom
    z = np.append(x, alpha)

    def residual(zv):
        xv, av = zv[:d], zv[d]
        return np.append(oracle.h(xv), oracle.grad_h(xv) - av * f0(xv))

    r = residual(z)
    r_norm = float(np.linalg.norm(r))
    for _ in range(NEWTON_BUDGET):
        if r_norm <= tol:
            break
        h_fd = 1e-7 * (1.0 + float(np.linalg.norm(z)))
        jac = _fd_jacobian(residual, z, h_fd)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NotFound("singular Newton system for the equilibrium conditions",
                           residual=r_norm, budget=NEWTON_BUDGET)
        # halve the step until the residual decreases
        beta = 1.0
        for _ in range(30):
            z_try = z + beta * step
            r_try = residual(z_try)
            r_try_norm = float(np.linalg.norm(r_try))
            if r_try_norm < r_norm:
                z, r, r_norm = z_try, r_try, r_try_norm
                break
            beta *= 0.5
        else:
            raise NotFound(f"Newton stagnated at residual {r_norm:.3e}",
                           residual=r_norm, budget=NEWTON_BUDGET)
    else:
        raise NotFound(f"Newton did not reach tol={tol:.1e}; residual {r_norm:.3e}",
                       residual=r_norm, budget=NEWTON_BUDGET)

    x0, alpha = z[:d], float(z[d])
    if alpha >= 0.0:
        raise WrongSign(f"converged with alpha={alpha:.3e} >= 0; not a switched equilibrium")
    if float(f0(x0) @ oracle.grad_h(x0)) >= 0.0:
        raise WrongSign("force does not point into the body at the solution")
    return x0, alpha


def sliding_field(body: ConvexBody, f0, x) -> np.ndarray:
    """Tangential part of the force on the boundary:
    ``f0(x) - <f0(x), g> g / ||g||^2`` with g the boundary gradient."""
    return _sliding_field(_boundary_oracle(body), f0, as_point(x, body.dim))


def _sliding_field(oracle, f0, x):
    g = oracle.grad_h(x)
    gg = float(g @ g)
    if gg < 1e-20:
        raise DegenerateGradient("boundary gradient vanishes here")
    fx = f0(x)
    return fx - (float(fx @ g) / gg) * g


def _sliding_jacobian(oracle, f0, x0, h):
    """Central-difference Jacobian (ambient space) of the sliding FLOW
    right-hand side ``-(tangential force)`` at the float point x0."""
    return _fd_jacobian(lambda x: -_sliding_field(oracle, f0, x), x0, h)


def stability_verdict(jac: np.ndarray, fd_noise: float) -> StabilityVerdict:
    """Classify the flow linearization: one structural zero eigenvalue is
    identified and discarded; the verdict reads the remaining real parts."""
    eigs = np.linalg.eigvals(np.asarray(jac, dtype=float))
    order = np.argsort(np.abs(eigs))
    zero_idx = int(order[0])
    if abs(eigs[zero_idx]) > fd_noise:
        raise AmbiguousZeroMode(
            f"smallest eigenvalue {eigs[zero_idx]:.3e} above the noise floor {fd_noise:.1e}"
        )
    if len(eigs) > 1 and abs(eigs[order[1]]) <= fd_noise:
        raise AmbiguousZeroMode("two eigenvalues inside the noise floor")

    rest = [eigs[i] for i in range(len(eigs)) if i != zero_idx]
    if any(abs(ev.real) <= fd_noise for ev in rest):
        verdict = MARGINAL
    elif all(ev.real < 0.0 for ev in rest):
        verdict = STABLE
    else:
        verdict = UNSTABLE
    return StabilityVerdict(verdict=verdict, eigenvalues=list(eigs),
                            zero_mode_index=zero_idx)


def analyze_equilibrium(scn: SweepingScenario, seed=None, tol: float = 1e-10) -> EquilibriumReport:
    """Full pipeline: locate the switched equilibrium, linearize the sliding
    flow (step ``1e-5 (1 + ||x0||)``), and classify.

    Without a seed, the boundary points in 64 low-discrepancy directions are
    ranked by how well the force aligns with the boundary normal, and Newton
    is tried from the best five.  Each direction projects as it would on its
    own (``_project_points``), since a seed's bits set x0's; the force, the
    gradient, alpha and the misfit are then taken on the (64, d) row stack
    at once, and directions whose misfits tie keep their order.  tol must be
    positive and finite."""
    _check_tol(tol)
    f0 = _autonomous_field(scn)
    oracle = _boundary_oracle(scn.body)

    if seed is not None:
        seeds = [as_point(seed, scn.dimension, "seed")]
    else:
        lo, hi = scn.body.bounding_box()
        reach = float(np.linalg.norm(hi - lo))
        targets = scn.interior_point + reach * sphere_directions(scn.dimension, 64)
        points = scn.body._project_points(targets)
        forces, grads = f0(points), oracle.grad_h(points)
        # vecdot dots each row as a 1-D ``@`` does; a plain sum of products
        # rounds apart and can move alpha off or onto zero where the force is tangent
        denom = np.vecdot(forces, forces)
        normal = denom >= 1e-14
        alpha_ls = np.divide(np.vecdot(grads, forces), denom, out=np.zeros_like(denom), where=normal)
        rest = grads - alpha_ls[:, None] * forces
        misfit = np.sqrt(np.vecdot(rest, rest))
        (inward,) = np.nonzero(normal & (alpha_ls < 0.0))
        if not inward.size:
            raise NotFound("no boundary direction with inward-normal force")
        seeds = points[inward[np.argsort(misfit[inward], kind="stable")[:5]]]

    for s in seeds:
        try:
            x0, alpha = _newton(oracle, f0, s, tol)
            break
        except NotFound as err:     # WrongSign included
            last_err = err
    else:
        raise last_err

    h = 1e-5 * (1.0 + float(np.linalg.norm(x0)))
    jac = _sliding_jacobian(oracle, f0, x0, h)
    fd_noise = 1e-4 * float(np.linalg.norm(jac, 2))
    verdict = stability_verdict(jac, fd_noise)
    return EquilibriumReport(
        x0=x0,
        alpha=alpha,
        sliding_eigenvalues=verdict.eigenvalues,
        zero_mode_index=verdict.zero_mode_index,
        verdict=verdict.verdict,
        fd_step=h,
    )
