"""The array-native integrator against references built from the public,
validating API: ``run`` and ``implicit_step`` must reproduce a Picard loop
over ``body.project``, ``drift_at``, ``contraction_at`` and ``force_at``,
and the vectorized per-step bounds must reproduce the scalar
``drift_variation_bound``."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import sweepsim as sw
from sweepsim.errors import NonConvergence
from sweepsim.integrator import DEFAULT_STEP_TOL
from sweepsim.scenario import LINEAR
from sweepsim.presets import drag_scenario, forced_disk_scenario, fourier_contraction_scenario


def reference_step(scn, lam, u_prev, J_prev, t_next, tol=DEFAULT_STEP_TOL):
    """Picard iteration for ``v = proj(u_prev, A + a(t_next) + c(v - J_prev) + J_prev)``
    on single points, stopping at the integrator's threshold tol * (1 - L2);
    returns v and the number of sweeps."""
    stop = tol * (1.0 - scn.L2)
    a = scn.drift_at(t_next, lam)
    v = u_prev
    for k in itertools.count(1):
        shift = a + scn.contraction_at(v - J_prev, lam) + J_prev
        v_next = scn.body.project(u_prev - shift) + shift
        step = v_next - v
        if math.sqrt(step.dot(step)) <= stop:
            return v_next, k
        assert k < 200, "reference Picard loop did not converge"
        v = v_next


def reference_run(scn, lam, q, n, tol=DEFAULT_STEP_TOL):
    """The catching-up loop written with the public, per-call API; also
    returns J(t_i) at every step, the lag of the step to node i + 1."""
    d, T = scn.dimension, scn.period
    dt = T / n
    times = np.linspace(0.0, T, n + 1)
    u = np.zeros((n + 1, d))
    x = np.zeros((n + 1, d))
    J_lag = np.zeros((n, d))
    iters = []
    u[0], _ = reference_step(scn, lam, np.asarray(q, dtype=float), np.zeros(d), 0.0, tol)
    x[0] = u[0]
    f_prev = scn.force_at(times[0], x[0], lam)
    J = np.zeros(d)
    for i in range(n):
        if i >= 1:
            f_cur = scn.force_at(times[i], x[i], lam)
            J = J + 0.5 * dt * (f_prev + f_cur)
            f_prev = f_cur
        J_lag[i] = J
        u[i + 1], k = reference_step(scn, lam, u[i], J, times[i + 1], tol)
        x[i + 1] = u[i + 1] - J
        iters.append(k)
    return u, x, J_lag, np.array(iters)


def octagon():
    angles = np.arange(8) * np.pi / 4
    return sw.HalfspacePolytope([((np.cos(a), np.sin(a)), 1.0) for a in angles], 2.0, (0.0, 0.0))


def swept(body=None, drift=None, contraction=None, force=None):
    """The Fourier-contraction preset with another body, drift, contraction
    or force."""
    base = fourier_contraction_scenario()
    return sw.SweepingScenario(2, body or base.body, (0.0, 0.0), drift or base.drift,
                               contraction or base.contraction, force or base.force,
                               base.period, base.L1)


def spatial(d):
    """A d-dimensional scenario with every state-dependent catalog part:
    these dimensions take the row kernel."""
    rng = np.random.default_rng(d)
    return sw.SweepingScenario(
        dimension=d,
        body=sw.Box(-np.ones(d), np.linspace(0.8, 1.2, d)) if d > 1 else sw.Ball((0.1,), 1.0),
        interior_point=np.zeros(d),
        drift=sw.Fourier(rng.normal(0, 0.2, (2, d)), rng.normal(0, 0.2, (1, d)), 1.0),
        contraction=sw.TanhRadialContraction(0.3, rng.normal(0, 0.3, d)),
        force=sw.ForceSpec(-np.eye(d), rng.normal(0, 1, d),
                           [sw.TanhTerm(0.4, rng.normal(0, 1, d), np.zeros(d))]),
        period=1.0,
        L1=8.0,
    )


AFFINE_LINEAR = sw.AffineContraction([[0.3, 0.1], [-0.1, 0.2]], (0.05, -0.1), coupling=LINEAR)
TANH_FORCE = sw.ForceSpec([[1.0, 0.2], [0.0, 1.0]], (-2.0, 0.1),
                          [sw.TanhTerm(0.5, (0.6, 0.8), (0.2, -0.1)),
                           sw.TanhTerm(-0.3, (1.0, 0.0), (0.0, 0.5))],
                          sw.Fourier([[0.4, 0.1]], [[0.0, 0.3]], 1.0, LINEAR))


MULTI_KNOT = sw.PiecewiseLinear([0.0, 0.13, 0.4, 0.41, 0.7, 1.0],
                                [[0, 0], [0.3, 0.1], [0.1, -0.4], [0.12, -0.41], [0.5, 0.2], [0, 0]])
# 0.3337 is not a multiple of 1/101, so the cusp falls strictly inside a step
CUSP = sw.SqrtCusp((0.3, -0.2), 0.3337)
# turns the principal axes of the axis-ratio-1e3 ellipsoid off the coordinate axes
ROTATION = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])

CASES = {
    "fourier_contraction": (fourier_contraction_scenario(), 1.0, (1.2, 0.3), 128),
    "drag": (drag_scenario(), 0.2, (1.0, 0.0), 128),
    "forced_disk": (forced_disk_scenario(), 0.2, (0.5, 0.5), 128),
    "box": (swept(body=sw.Box((-1.0, -0.8), (1.0, 0.8))), 0.7, (1.3, 0.2), 96),
    "ellipsoid": (swept(body=sw.Ellipsoid((0.0, 0.0), [[1.2, 0.2], [0.2, 0.6]])), 0.7, (1.3, 0.2), 64),
    "polytope": (swept(body=octagon()), 0.7, (1.3, 0.2), 32),
    # thin bodies, started outside: the projection is active on every sweep
    "thin_segment": (swept(body=sw.segment_body((-1.0, -0.3), (1.0, 0.3))), 0.7, (1.3, 0.6), 48),
    "thin_ellipsoid": (swept(body=sw.Ellipsoid((0.0, 0.0), ROTATION @ np.diag([1.5, 1.5e-6])
                                                @ ROTATION.T)), 0.7, (1.3, -0.6), 48),
    "piecewise_linear": (swept(drift=MULTI_KNOT), 0.5, (1.1, 0.0), 101),
    "sqrt_cusp": (swept(drift=CUSP), 0.5, (1.1, 0.0), 101),
    "tanh_radial": (swept(contraction=sw.TanhRadialContraction(0.4, (0.2, -0.3))), 0.5,
                    (1.3, 0.2), 64),
    # lam = 0 zeroes the linear coupling: the planar kernel fixes the shift
    "affine_linear_lam0": (swept(contraction=AFFINE_LINEAR), 0.0, (1.3, 0.2), 64),
    "affine_linear_lam0.6": (swept(contraction=AFFINE_LINEAR), 0.6, (1.3, 0.2), 64),
    "tanh_force": (swept(force=TANH_FORCE), 0.7, (0.5, -0.9), 64),
    "1d": (spatial(1), 0.5, (1.4,), 64),
    "3d": (spatial(3), 0.5, (1.4, -0.2, 0.9), 64),
    # long enough to meet rows where a sum of squares and a dot product round apart
    "fourier_contraction_2048": (fourier_contraction_scenario(), 1.0, (1.2, 0.3), 2048),
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_run_matches_public_step_loop(key):
    scn, lam, q, n = CASES[key]
    traj = sw.run(scn, lam, q, n)
    u, x, J_lag, iters = reference_run(scn, lam, q, n)
    assert np.max(np.abs(traj.u_nodes - u)) <= 1e-12
    assert np.max(np.abs(traj.x_nodes - x)) <= 1e-12
    assert np.array_equal(traj.iters, iters)
    assert traj.iters.tolist() == iters.tolist()
    i = n // 2      # a step with a nonzero lag J and, for forced cases, a moved start
    v, k = sw.implicit_step(scn, lam, u[i] + 0.1, J_lag[i], traj.times[i + 1])
    v_ref, k_ref = reference_step(scn, lam, u[i] + 0.1, J_lag[i], traj.times[i + 1])
    assert np.max(np.abs(v - v_ref)) <= 1e-12 and k == k_ref


@pytest.mark.parametrize("key", sorted(CASES))
def test_step_bounds_match_scalar_variation_bound(key):
    scn, lam, q, n = CASES[key]
    traj = sw.run(scn, lam, q, n)
    var = [sw.drift_variation_bound(scn.drift, s, t) for s, t in zip(traj.times, traj.times[1:])]
    expected = (np.array(var) + scn.L1 * scn.period / n) / (1.0 - scn.L2)
    np.testing.assert_allclose(traj.bounds, expected, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(
        traj.increments, [np.linalg.norm(step) for step in np.diff(traj.u_nodes, axis=0)])


@pytest.mark.parametrize("drift", [
    MULTI_KNOT,
    # knots closer than the grid spacing: intervals spanning whole segments
    sw.PiecewiseLinear(np.linspace(0.0, 1.0, 41),
                       np.random.default_rng(7).normal(size=(41, 2))),
    CUSP,
    sw.SqrtCusp((1.0, 0.5), 0.25),      # cusp exactly on a node
    fourier_contraction_scenario().drift,
])
@pytest.mark.parametrize("n", [7, 16, 101])
def test_vectorized_variations_match_scalar(drift, n):
    times = np.linspace(0.0, 1.0, n + 1)
    ref = np.array([drift.base_variation(s, t) for s, t in zip(times, times[1:])])
    np.testing.assert_allclose(drift.base_variations(times), ref, rtol=1e-12, atol=0.0)
    values = np.array([drift.base_value(t) for t in times])
    np.testing.assert_array_equal(drift.base_values(times), values)


@pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
def test_lambda_outside_unit_interval_rejected(lam):
    scn = forced_disk_scenario()
    with pytest.raises(ValueError, match="outside"):
        sw.run(scn, lam, (0.5, 0.5), 8)
    with pytest.raises(ValueError, match="outside"):
        sw.implicit_step(scn, lam, (0.5, 0.5), np.zeros(2), 0.0)


def test_understated_l2_fails_within_a_priori_budget():
    # the matrix contracts at 0.9 but declares 0.1: from (20, 0) the sweeps
    # move by 0.9^k, far slower than a 0.1-contraction allows
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0),
        contraction=sw.AffineContraction(0.9 * np.eye(2), np.zeros(2), L2=0.1),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
    )
    stop = DEFAULT_STEP_TOL * (1.0 - 0.1)
    with pytest.raises(NonConvergence) as info:
        sw.implicit_step(scn, 0.0, (20.0, 0.0), np.zeros(2), 0.0)
    # first move 1.0, so the a-priori count is 1 + ceil(log(stop) / log 0.1) = 12
    assert info.value.budget == 12 + 2
    assert info.value.residual > stop
    with pytest.raises(NonConvergence) as run_info:
        sw.run(scn, 0.0, (20.0, 0.0), 4)
    assert run_info.value.budget == 12 + 2
    assert run_info.value.residual == pytest.approx(info.value.residual, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("call", [
    lambda scn: sw.run(scn, 0.2, (0.5,), 8),
    lambda scn: sw.run(scn, 0.2, (0.5, 0.5, 0.5), 8),
    lambda scn: sw.poincare_map(scn, 0.2, 8, (0.5,)),
    lambda scn: sw.implicit_step(scn, 0.2, (0.5,), np.zeros(2), 0.0),
    lambda scn: sw.implicit_step(scn, 0.2, (0.5, 0.5), np.zeros(3), 0.0),
    lambda scn: sw.implicit_step(scn, 0.2, (0.5, 0.5), 0.0, 0.0),
], ids=["run-short", "run-long", "poincare-short", "step-short", "step-J-long", "step-J-scalar"])
def test_wrong_length_state_rejected(call):
    with pytest.raises(ValueError, match="entries; the scenario has dimension 2"):
        call(forced_disk_scenario())


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("inf"), float("nan")])
def test_step_tolerance_must_be_positive_and_finite(tol):
    scn = forced_disk_scenario()
    with pytest.raises(ValueError, match="positive and finite"):
        sw.run(scn, 0.2, (0.5, 0.5), 8, step_tol=tol)


# --- state-free steps ---------------------------------------------------------
# With a zero contraction, or linear coupling at lam = 0, the translate a step
# projects onto does not depend on the new state: the kernels project once
# and report the 2 sweeps the stop rule would take.  The oracles below sweep
# until the move is <= stop, on the same resolved forms, so they confirm
# every step with a second projection.

def _with_contraction(scn, contraction):
    return dataclasses.replace(scn, contraction=contraction)


STATE_FREE = {
    "drag": (drag_scenario(), 0.2, (1.0, 0.0), 128),
    "forced_disk": (forced_disk_scenario(), 0.6, (0.5, 0.5), 128),
    "affine_linear_lam0": (swept(contraction=AFFINE_LINEAR), 0.0, (1.3, 0.2), 64),
    "polytope_zero": (_with_contraction(swept(body=octagon()), sw.ZeroContraction()), 0.7,
                      (1.3, 0.2), 32),
    "3d_zero": (_with_contraction(spatial(3), sw.ZeroContraction()), 0.5, (0.1, -0.2, 0.3), 64),
    "3d_tanh_linear_lam0": (
        _with_contraction(spatial(3), sw.TanhRadialContraction(0.3, (0.1, -0.2, 0.3),
                                                               coupling=LINEAR)),
        0.0, (0.1, -0.2, 0.3), 64),
}


def two_sweep_planar(scn, lam, q, n):
    """The x nodes and sweeps of ``run`` on d = 2, from a Picard loop on the
    planar forms."""
    T = scn.period
    pl = scn.resolve(lam, np.linspace(0.0, T, n + 1), planar=True).planar
    assert pl.contraction is None
    stop, half_dt = DEFAULT_STEP_TOL * (1.0 - scn.L2), 0.5 * (T / n)

    def solve(i, ux, uy, jx, jy):
        sx, sy = pl.drift[2 * i] + jx, pl.drift[2 * i + 1] + jy
        vx, vy = ux, uy
        for k in itertools.count(1):
            px, py = pl.project(ux - sx, uy - sy)
            px, py = px + sx, py + sy
            dx, dy = px - vx, py - vy
            if math.sqrt(dx * dx + dy * dy) <= stop:
                return px, py, k
            vx, vy = px, py

    ux, uy, _ = solve(0, *map(float, q), 0.0, 0.0)
    x, iters = [(ux, uy)], []
    jx = jy = 0.0
    fpx, fpy = pl.force(0, ux, uy)
    for i in range(1, n + 1):
        if i >= 2:
            fcx, fcy = pl.force(i - 1, *x[-1])
            jx, jy = jx + half_dt * (fpx + fcx), jy + half_dt * (fpy + fcy)
            fpx, fpy = fcx, fcy
        ux, uy, k = solve(i, ux, uy, jx, jy)
        x.append((ux - jx, uy - jy))
        iters.append(k)
    return np.array(x), np.array(iters)


def two_sweep_cols(scn, lam, Q, n):
    """The x nodes of every row of Q and the sweeps of each step of the
    batched kernel, from a Picard loop that sweeps them all, as the columns
    of a (d, m) stack, until every move is <= stop."""
    T = scn.period
    res = scn.resolve(lam, np.linspace(0.0, T, n + 1))
    assert res.state_free
    stop, half_dt = DEFAULT_STEP_TOL * (1.0 - res.L2), 0.5 * (T / n)

    def solve(a, U, J):
        V = U
        for k in itertools.count(1):
            shift = a[:, None] + res.contraction_cols(V - J) + J
            V_next = res.project_cols(U - shift) + shift
            d = V_next - V
            if np.all(np.sqrt(np.einsum("ij,ij->j", d, d)) <= stop):
                return V_next, k
            V = V_next

    J = np.zeros_like(Q.T)
    U, _ = solve(res.drift[0], Q.T, J)
    X, F_prev = U, res.force_cols(0, U)
    nodes, iters = [X.T], []
    for i in range(1, n + 1):
        U, k = solve(res.drift[i], U, J)
        X = U - J
        F_cur = res.force_cols(i, X)
        J = J + half_dt * (F_prev + F_cur)
        F_prev = F_cur
        nodes.append(X.T)
        iters.append(k)
    return np.array(nodes), np.array(iters)


@pytest.mark.parametrize("key", sorted(STATE_FREE))
def test_state_free_run_matches_two_sweep_picard(key):
    scn, lam, q, n = STATE_FREE[key]
    traj = sw.run(scn, lam, q, n)
    if scn.dimension == 2:
        x, iters = two_sweep_planar(scn, lam, q, n)
    else:
        x, iters = two_sweep_cols(scn, lam, np.array([q], dtype=float), n)
        x = x[:, 0]
    assert np.array_equal(traj.x_nodes, x)
    assert np.array_equal(traj.iters, iters)
    assert set(iters.tolist()) == {1, 2}     # both outcomes occur


@pytest.mark.parametrize("key", sorted(STATE_FREE))
def test_state_free_run_batch_matches_two_sweep_picard(key):
    scn, lam, q, n = STATE_FREE[key]
    Q = np.asarray(q) + np.random.default_rng(3).normal(0.0, 0.4, (5, len(q)))
    x, _ = two_sweep_cols(scn, lam, Q, n)
    assert np.array_equal(sw.run_batch(scn, lam, Q, n), x[-1])


@pytest.mark.parametrize("scn, lam, free", [
    (drag_scenario(), 1.0, True),
    (swept(contraction=AFFINE_LINEAR), 0.0, True),
    (swept(contraction=AFFINE_LINEAR), 0.6, False),
    (fourier_contraction_scenario(), 0.0, False),
])
def test_state_free_flag(scn, lam, free):
    res = scn.resolve(lam, np.linspace(0.0, scn.period, 5), planar=True)
    assert res.state_free is free
    assert (res.planar.contraction is None) is free


def test_state_free_step_projects_once(monkeypatch):
    calls = {"planar": 0, "cols": 0}
    planar, cols = sw.Ball._planar_form.func, sw.Ball._project_cols

    def planar_form(self):
        project = planar(self)

        def counted(x, y):
            calls["planar"] += 1
            return project(x, y)
        return counted

    def project_cols(self, P):
        calls["cols"] += 1
        return cols(self, P)

    monkeypatch.setattr(sw.Ball, "_planar_form", property(planar_form))
    monkeypatch.setattr(sw.Ball, "_project_cols", project_cols)
    scn = forced_disk_scenario()
    traj = sw.run(scn, 0.6, (0.5, 0.5), 64)
    assert 2 in traj.iters.tolist()
    assert calls["planar"] == 64 + 1
    sw.run_batch(scn, 0.6, np.array([[0.5, 0.5], [1.5, 0.0]]), 64)
    assert calls["cols"] == 64 + 1
