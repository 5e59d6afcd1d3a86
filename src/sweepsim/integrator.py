"""Implicit catching-up integrator for the moving-constraint process.

One step advances the auxiliary state u by projecting onto the translated
body, with the translation depending implicitly on the new state through the
contraction; the implicit equation is solved by Picard iteration, which
contracts at rate L2 < 1.  The physical state x and the cumulative force
integral J are linked to u by ``x_i = u_i - J(t_{i-1})``.

J is accumulated with the composite trapezoid rule on the piecewise-linear
x built so far, matching the one-interval lag of the step equation.

``run`` and ``run_batch`` validate their inputs and take the scenario
resolved on their uniform grid from a small memo on the scenario
(``_uniform_grid``): the return maps of one periodic search, a degree mesh
and a continuation step all reuse one resolved (lam, n).  A step kernel then
works on plain values and closures only.  Two kernels drive the same
scheme, Picard stop rule and a-priori sweep budget:

- the planar kernel (``_run_planar``, ``_solve_planar``): ``run`` on d = 2,
  on Python floats through the ``Planar`` forms of the resolved scenario;
  all four body types (ball, box, ellipsoid, polytope) have a planar float
  projection, so a sweep makes no NumPy call;
- the batched kernel (``_steps``, ``_solve_cols``): m states at once as the
  columns of a coordinate-major (d, m) stack, through the column forms.
  ``run`` on every other d records its nodes for one column, ``run_batch``
  keeps only the end states of many independent runs (the degree mesh) and
  transposes its (m, d) stack in and out, and ``implicit_step`` solves one.

A state-free contraction (zero, or linearly coupled at lam = 0) leaves the
shift fixed over a step's sweeps, so both kernels project once
(``_project_planar``, and ``_solve_cols`` on ``Resolved.state_free``): the
second sweep the stop rule asks for would recompute the same point and move
by 0.  Such a step still reports the 2 sweeps that rule takes (1 when the
first move is already within the stop threshold), so sweep counts do not
depend on the shortcut.  A non-finite first move raises NonConvergence.

The kernels differ only in how some operations round (dot products, and
tanh on Python floats), so their nodes agree to rounding; a sweep count
could differ only where a step's last move lies within rounding of the stop
threshold.  On d = 2 the batched kernel projects onto an ellipsoid or a
polytope through the planar float projection, state by state, so those
projections agree bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, NonConvergence
from .geometry import as_point
from .scenario import PICARD_MARGIN, Planar, Resolved, SweepingScenario, _budget
from .scenario import drift_variation_bound  # noqa: F401  (callers look it up on this module)

DEFAULT_STEP_TOL = 1e-10
GRID_MEMO = 4       # resolved uniform grids kept per scenario
BOUND_SLACK = 1e-7  # rounding allowance of step_variation_check


@dataclass
class Trajectory:
    n: int
    times: np.ndarray              # (n+1,)
    u_nodes: np.ndarray            # (n+1, d)
    x_nodes: np.ndarray            # (n+1, d)
    J_nodes: np.ndarray            # (n+1, d), J(t_i) = integral of f over [0, t_i]
    lam: float
    iters: np.ndarray              # (n,) Picard sweeps of each step
    increments: np.ndarray         # (n,) ||u_{i+1} - u_i||
    bounds: np.ndarray             # (n,) (var(a, [t_i, t_{i+1}]) + L1 T/n) / (1 - L2)
    residual_history: list[float] | None = None   # set by refine()


def _stop(tol: float, L2: float) -> float:
    if not 0.0 < tol < math.inf:
        raise ValueError("step tolerance must be positive and finite")
    return tol * (1.0 - L2)


def _state(p, d: int, name: str) -> np.ndarray:
    """``as_point(p)``, which must have the scenario's d entries."""
    p = as_point(p)
    if p.size != d:
        raise ValueError(f"{name} has {p.size} entries; the scenario has dimension {d}")
    return p


def _diverged(gap: float) -> NonConvergence:
    """The error of a solve whose first move ``gap`` is not finite."""
    return NonConvergence(
        f"implicit step's first move is {gap}: the state or the forcing overflowed",
        residual=gap,
    )


def _overrun(budget: int, gap: float) -> NonConvergence:
    """The error of a solve still moving by ``gap`` at its ``budget``."""
    return NonConvergence(
        f"implicit step still moving after its a-priori budget of {budget} sweeps;"
        " declared L2 likely violated",
        residual=gap, budget=budget,
    )


def _solve_planar(pl: Planar, L2: float, ax: float, ay: float, ux: float, uy: float,
                  jx: float, jy: float, stop: float) -> tuple[float, float, int]:
    """``_solve_cols`` for one planar state on Python floats, with the same
    sweeps, stop rule and budget."""
    project, contraction = pl.project, pl.contraction
    vx, vy = ux, uy
    for k in itertools.count(1):
        cx, cy = contraction(vx - jx, vy - jy)
        sx, sy = ax + cx + jx, ay + cy + jy
        px, py = project(ux - sx, uy - sy)
        px, py = px + sx, py + sy
        dx, dy = px - vx, py - vy
        gap = math.sqrt(dx * dx + dy * dy)
        if gap <= stop:
            return px, py, k
        if k == 1:
            if not gap < math.inf:
                raise _diverged(gap)
            budget = _budget(gap, stop, L2)
        elif k >= budget:
            raise _overrun(budget, gap)
        vx, vy = px, py


def _project_planar(pl: Planar, L2: float, ax: float, ay: float, ux: float, uy: float,
                    jx: float, jy: float, stop: float) -> tuple[float, float, int]:
    """``_solve_planar`` for a state-free contraction: the shift ``a + J``
    is fixed, so the first sweep's point is the solution.  A move above
    ``stop`` reports the 2 sweeps the stop rule would take; a second sweep
    would find the same point again."""
    sx, sy = ax + jx, ay + jy
    px, py = pl.project(ux - sx, uy - sy)
    px, py = px + sx, py + sy
    dx, dy = px - ux, py - uy
    gap = math.sqrt(dx * dx + dy * dy)
    if gap <= stop:
        return px, py, 1
    if not gap < math.inf:
        raise _diverged(gap)
    return px, py, 2


def _solve_cols(res: Resolved, a_next: np.ndarray, U_prev: np.ndarray, J_prev: np.ndarray,
                stop: float) -> tuple[np.ndarray, int]:
    """Picard iteration for ``v = proj(u, A + a_next + c(v - J) + J)`` on
    every column u, J of the (d, m) stacks ``U_prev`` and ``J_prev``, with
    ``a_next`` a (d, 1) column; returns the solutions and the sweeps of the
    slowest column.

    Each sweep is an L2-contraction, so after a first move of d1 the sweeps
    a column needs to reach ``stop`` are at most ``1 + ceil(log(stop/d1) / log L2)``;
    a column still moving PICARD_MARGIN sweeps past its own count raises
    NonConvergence, since the declared L2 cannot hold, and so does a
    non-finite first move.  Columns leave the active set as they converge.

    A state-free contraction (``res.state_free``) leaves the shift fixed:
    the first sweep's point is the solution, and a step that moved by more
    than ``stop`` reports the 2 sweeps the stop rule would take.
    """
    project, contraction, L2 = res.project_cols, res.contraction_cols, res.L2
    out = rows = None
    u, J, v = U_prev, J_prev, U_prev
    for k in itertools.count(1):
        shift = a_next + contraction(v - J) + J
        v_next = project(u - shift) + shift
        d = v_next - v
        gap = np.sqrt(np.einsum("ij,ij->j", d, d))
        worst = gap.max(initial=0.0)     # NaN if any column is NaN
        if worst <= stop:
            if out is None:
                return v_next, k
            out[:, rows] = v_next
            return out, k
        if k == 1 and not worst < math.inf:
            raise _diverged(float(gap[~(gap < math.inf)][0]))
        if res.state_free:
            return v_next, 2
        if not gap.min() > stop:     # some column converged, or one is NaN
            moving = ~(gap <= stop)      # a NaN column keeps moving into its budget
            if out is None:
                out, rows = np.empty_like(U_prev), np.arange(U_prev.shape[1])
            out[:, rows[~moving]] = v_next[:, ~moving]
            rows, u, J = rows[moving], u[:, moving], J[:, moving]
            v_next, gap = v_next[:, moving], gap[moving]
            if k > 1:
                budgets = budgets[moving]
                budget = budgets.min()
        if k == 1:
            budgets = 1 + np.ceil(np.log(stop / gap) / math.log(L2)) + PICARD_MARGIN
            budget = budgets.min()
        elif k >= budget:
            first = int(np.argmax(k >= budgets))
            raise _overrun(int(budgets[first]), float(gap[first]))
        v = v_next


def _steps(res: Resolved, Q: np.ndarray, half_dt: float, stop: float):
    """The catching-up loop on the columns of Q, a (d, m) stack of initial conditions.

    Yields ``(U, X, J, k)`` at every node of the resolved time grid: the
    (d, m) states u and x, ``J(t_i)`` and the sweeps of the node's slowest
    column (at node 0, those of the generalized initial condition).
    """
    drift, force = res.drift[..., None], res.force_cols     # drift[i]: a (d, 1) column
    J = np.zeros_like(Q)
    U, k = _solve_cols(res, drift[0], Q, J, stop)
    X = U
    F_prev = force(0, X)
    yield U, X, J, k
    for i in range(1, drift.shape[0]):
        U, k = _solve_cols(res, drift[i], U, J, stop)
        X = U - J
        F_cur = force(i, X)
        J = J + half_dt * (F_prev + F_cur)
        F_prev = F_cur
        yield U, X, J, k


def implicit_step(scn: SweepingScenario, lam: float, u_prev, J_prev,
                  t_next: float) -> tuple[np.ndarray, int]:
    """Solve ``v = proj(u_prev, A + a(t_next) + c(v - J_prev) + J_prev)``.

    Picard iteration on v; each sweep is an L2-contraction, so stopping when
    consecutive iterates differ by <= DEFAULT_STEP_TOL*(1-L2) leaves the
    fixed-point error below DEFAULT_STEP_TOL (geometric tail).  Returns v and
    the number of sweeps.
    """
    d = scn.dimension
    u_prev = _state(u_prev, d, "u_prev")
    J_prev = _state(J_prev, d, "J_prev")
    res = scn.resolve(lam, np.array([float(t_next)]))
    v, k = _solve_cols(res, res.drift[0][:, None], u_prev[:, None], J_prev[:, None],
                       _stop(DEFAULT_STEP_TOL, res.L2))
    return v[:, 0], k


def _steps_arg(n) -> int:
    """The step count n, an integer >= 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("need n >= 1 steps")
    return n


def _uniform_grid(scn: SweepingScenario, lam: float, n: int):
    """``(times, res, bounds)`` for n uniform steps at lam: the grid, the
    scenario resolved on it (with the planar forms on d = 2) and the
    per-step bounds.

    Return maps, degree meshes and continuation call ``run`` many times at
    one (lam, n), so the last GRID_MEMO grids are kept on the scenario,
    which is immutable after construction.  Runs share the arrays, so they
    are read-only.
    """
    memo, key = scn._grids, (float(lam), n)
    grid = memo.get(key)
    if grid is not None:
        memo.move_to_end(key)
        return grid
    T = scn.period
    times = np.linspace(0.0, T, n + 1)
    res = scn.resolve(lam, times, planar=True)
    bounds = (res.variation + scn.L1 * T / n) / (1.0 - res.L2)
    for a in (times, res.drift, res.variation, bounds):
        a.flags.writeable = False
    memo[key] = grid = (times, res, bounds)
    if len(memo) > GRID_MEMO:
        memo.popitem(last=False)
    return grid


def run(scn: SweepingScenario, lam: float, q, n: int,
        step_tol: float = DEFAULT_STEP_TOL) -> Trajectory:
    """Integrate over [0, T] with n uniform steps from initial condition q.

    q may be infeasible: it is first mapped to the feasible start
    ``V(q) = proj(q, A + a(0) + c(V(q)))`` (the t=0 implicit solve).
    lam must lie in [0, 1].  Planar scenarios take the kernel on Python
    floats, every other dimension the batched kernel on one column.  ``times``
    and ``bounds`` of the result are shared, read-only arrays.
    """
    n = _steps_arg(n)
    q = _state(q, scn.dimension, "initial condition")
    times, res, bounds = _uniform_grid(scn, lam, n)
    stop = _stop(step_tol, res.L2)
    kernel = _run_cols if res.planar is None else _run_planar
    u, x, J, iters = kernel(res, q, n, 0.5 * (scn.period / n), stop)

    steps = np.diff(u, axis=0)
    increments = np.sqrt(np.vecdot(steps, steps))     # bit-equal to np.linalg.norm per row
    return Trajectory(n=n, times=times, u_nodes=u, x_nodes=x, J_nodes=J, lam=float(lam),
                      iters=iters, increments=increments, bounds=bounds)


def _run_cols(res: Resolved, q: np.ndarray, n: int, half_dt: float, stop: float):
    """The batched kernel on the one column q: the nodes u, x and J and the
    sweeps of each step."""
    u, x, J = (np.empty((n + 1, q.size)) for _ in range(3))
    iters = np.empty(n + 1, dtype=np.int64)
    for i, (U, X, Ji, k) in enumerate(_steps(res, q[:, None], half_dt, stop)):
        u[i], x[i], J[i], iters[i] = U[:, 0], X[:, 0], Ji[:, 0], k
    return u, x, J, iters[1:]


def _run_planar(res: Resolved, q: np.ndarray, n: int, half_dt: float, stop: float):
    """``_run_cols`` for d = 2 on Python floats: the nodes go into flat
    float buffers, which become arrays once, at the end, without a copy."""
    pl, L2, force = res.planar, res.L2, res.planar.force
    solve = _project_planar if pl.contraction is None else _solve_planar
    drift = iter(pl.drift)
    drift = zip(drift, drift)       # (ax, ay) per time
    ax, ay = next(drift)
    ux, uy, _ = solve(pl, L2, ax, ay, *q.tolist(), 0.0, 0.0, stop)
    u = array("d", (ux, uy))
    x = array("d", (ux, uy))
    J = array("d")
    iters = array("q")

    xx, xy = ux, uy
    fpx, fpy = force(0, xx, xy)
    jx = jy = 0.0
    for i, (ax, ay) in enumerate(drift):
        if i >= 1:
            fcx, fcy = force(i, xx, xy)
            jx, jy = jx + half_dt * (fpx + fcx), jy + half_dt * (fpy + fcy)
            fpx, fpy = fcx, fcy
        J.append(jx)
        J.append(jy)

        ux, uy, k = solve(pl, L2, ax, ay, ux, uy, jx, jy, stop)
        xx, xy = ux - jx, uy - jy
        u.append(ux)
        u.append(uy)
        x.append(xx)
        x.append(xy)
        iters.append(k)

    fcx, fcy = force(n, xx, xy)
    J.append(jx + half_dt * (fpx + fcx))
    J.append(jy + half_dt * (fpy + fcy))
    return (np.frombuffer(u).reshape(n + 1, 2), np.frombuffer(x).reshape(n + 1, 2),
            np.frombuffer(J).reshape(n + 1, 2), np.frombuffer(iters, dtype=np.int64))


def run_batch(scn: SweepingScenario, lam: float, Q, n: int) -> np.ndarray:
    """End states ``x_n(T)`` of ``run(scn, lam, q, n)`` for every row q of
    the (m, d) stack Q, as an (m, d) array.

    Same time grid, generalized initial condition, trapezoid J, default
    step tolerance and per-row Picard stop rule and budget as ``run``; the
    rows agree with ``run(...).x_nodes[-1]`` to rounding (stacked products
    may round differently from the 1-D ones).  A row overrunning its budget
    raises NonConvergence carrying that row's residual and budget.  The
    batched kernel sweeps Q coordinate-major: one transpose in, one out.
    """
    n = _steps_arg(n)
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != scn.dimension:
        raise ValueError(f"need an (m, {scn.dimension}) stack of initial conditions")
    if not np.all(np.isfinite(Q)):
        raise ValueError("initial conditions have non-finite entries")
    _, res, _ = _uniform_grid(scn, lam, n)
    for _, X, _, _ in _steps(res, np.ascontiguousarray(Q.T), 0.5 * (scn.period / n),
                             _stop(DEFAULT_STEP_TOL, res.L2)):
        pass
    return X.T.copy()


def refine(scn: SweepingScenario, lam: float, q, tol: float,
           n0: int = 64, n_max: int = 16384) -> Trajectory:
    """Double the step count until consecutive trajectories agree at common
    nodes within tol; returns the finest trajectory with the residual history
    attached.  Raises BudgetExhausted (with the last residual) at n_max: the
    scheme guarantees subsequence convergence but no rate, so rough drifts
    may legitimately exhaust the budget.
    """
    if n0 < 8:
        raise ValueError("need n0 >= 8")
    if n_max < 2 * n0:
        raise ValueError("need n_max >= 2 * n0: at least one refinement")
    step_tol = tol / 100.0
    history: list[float] = []
    coarse = run(scn, lam, q, n0, step_tol)
    n = n0
    while 2 * n <= n_max:
        n *= 2
        fine = run(scn, lam, q, n, step_tol)
        gap = float(np.max(np.linalg.norm(fine.x_nodes[::2] - coarse.x_nodes, axis=1)))
        history.append(gap)
        if gap <= tol:
            fine.residual_history = history
            return fine
        coarse = fine
    raise BudgetExhausted(
        f"refinement reached n={n} with residual {history[-1]:.3e} > tol={tol:.3e}",
        residual=history[-1],
    )


def moreau_residual(traj: Trajectory, scn: SweepingScenario, lam: float) -> float:
    """Signed slack of the discrete energy inequality over [0, T].

    Uses the selector ``phi(t_i) = b0 + a(t_i) + c(x_i) + J(t_{i-1})`` (a
    member of the discrete moving set by construction, with J(t_{-1}) := 0)
    and returns ``sum_i <phi(t_i), u_{i+1} - u_i> - (||u_n||^2 - ||u_0||^2)/2``.
    Valid trajectories keep the slack above ``-moreau_epsilon(traj)``.
    """
    res = scn.resolve(lam, traj.times)
    J_lag = np.vstack((np.zeros((1, scn.dimension)), traj.J_nodes[:-2]))
    phi = scn.interior_point + res.drift[:-1] + res.contraction_cols(traj.x_nodes[:-1].T).T + J_lag
    terms = np.vecdot(phi, np.diff(traj.u_nodes, axis=0))
    total = sum(terms.tolist(), 0.0)          # left to right, as the per-node sum
    u0 = float(traj.u_nodes[0] @ traj.u_nodes[0])
    un = float(traj.u_nodes[-1] @ traj.u_nodes[-1])
    return total - 0.5 * (un - u0)


def moreau_epsilon(traj: Trajectory) -> float:
    """Admissible negative slack: total u-variation times the largest step."""
    if traj.increments.size == 0:
        return 0.0
    # a left-to-right sum, so the value matches the per-record sum exactly
    return float(sum(traj.increments.tolist())) * float(traj.increments.max())


def step_variation_check(traj: Trajectory) -> bool:
    """Every recorded step increment is within its per-step bound, up to BOUND_SLACK."""
    return bool(np.all(traj.increments <= traj.bounds + BOUND_SLACK))
