import dataclasses

import numpy as np
import pytest

import sweepsim as sw
from sweepsim.errors import BudgetExhausted, OutOfRange
from sweepsim.presets import (
    disk_scenario,
    drag_scenario,
    forced_disk_scenario,
    fourier_contraction_scenario,
)
from sweepsim.scenario import CONSTANT, LINEAR


def constant_scenario():
    """Nothing moves: no drift, no force, no contraction."""
    return sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
        contraction=sw.ZeroContraction(),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
    )


def contraction_disk_scenario():
    """Frozen set with the half-strength radial contraction c(v) = 0.5 v."""
    return sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
        contraction=sw.AffineContraction(0.5 * np.eye(2), np.zeros(2), L2=0.5),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
        L1=0.0,
    )


def drag_exact(t):
    return np.array([max(1.0, 2.0 * t - 1.0), 0.0])


# --- implicit step -------------------------------------------------------------

def test_implicit_step_reduces_to_projection():
    scn = constant_scenario()
    v, iters = sw.implicit_step(scn, 0.0, (3.0, 0.0), np.zeros(2), 0.0)
    assert np.allclose(v, (1.0, 0.0), atol=1e-10)


def test_implicit_step_scalar_fixed_point():
    # v = proj((3,0), Ball(0,1) + 0.5 v) has the hand solution v = (2, 0)
    scn = contraction_disk_scenario()
    v, iters = sw.implicit_step(scn, 0.0, (3.0, 0.0), np.zeros(2), 0.0)
    assert np.allclose(v, (2.0, 0.0), atol=1e-9)
    assert iters < 100


def test_implicit_step_member_is_fixed():
    scn = constant_scenario()
    v, iters = sw.implicit_step(scn, 0.0, (0.2, 0.1), np.zeros(2), 0.0)
    assert np.allclose(v, (0.2, 0.1), atol=1e-12)
    assert iters <= 3


# --- run -------------------------------------------------------------------------

def test_run_constant_scenario_nothing_moves():
    scn = constant_scenario()
    traj = sw.run(scn, 0.0, (0.2, 0.0), 64)
    assert np.allclose(traj.x_nodes, np.tile((0.2, 0.0), (65, 1)))
    assert np.allclose(traj.u_nodes, traj.x_nodes)
    assert np.all(traj.increments == 0.0)


def test_run_drag_matches_play_operator():
    drag = drag_scenario()
    traj = sw.run(drag, 0.0, (1.0, 0.0), 2048)
    exact = np.array([drag_exact(t) for t in traj.times])
    err = float(np.max(np.linalg.norm(traj.x_nodes - exact, axis=1)))
    assert err <= 5.0 / 2048


def test_run_lambda_zero_equals_constant_set_process():
    scn = forced_disk_scenario()                 # couplings vanish at lambda=0
    frozen = disk_scenario()
    a = sw.run(scn, 0.0, (0.3, 0.4), 256)
    b = sw.run(frozen, 0.0, (0.3, 0.4), 256)
    assert np.allclose(a.x_nodes, b.x_nodes, atol=1e-12)


def test_run_deterministic_bit_identical():
    scn = forced_disk_scenario()
    a = sw.run(scn, 0.3, (0.5, 0.1), 128)
    b = sw.run(scn, 0.3, (0.5, 0.1), 128)
    assert np.array_equal(a.x_nodes, b.x_nodes)
    assert np.array_equal(a.u_nodes, b.u_nodes)
    assert np.array_equal(a.J_nodes, b.J_nodes)


# --- trajectory invariants --------------------------------------------------------

def sample_trajectories():
    return [
        (drag_scenario(), 0.0, (1.0, 0.0), 512),
        (forced_disk_scenario(), 0.2, (0.5, 0.5), 512),
        (contraction_disk_scenario(), 0.0, (3.0, 0.0), 128),
    ]


@pytest.mark.parametrize("scn,lam,q,n", sample_trajectories())
def test_node_link_and_feasibility(scn, lam, q, n):
    traj = sw.run(scn, lam, q, n)
    # x_i = u_i - J(t_{i-1}) for i >= 1, and u_0 = x_0
    assert np.allclose(traj.u_nodes[0], traj.x_nodes[0])
    for i in range(1, n + 1):
        assert np.linalg.norm(traj.x_nodes[i] - (traj.u_nodes[i] - traj.J_nodes[i - 1])) <= 1e-9
    # every node lies in its own moving set
    for i in range(n + 1):
        shift = scn.drift_at(traj.times[i], lam) + scn.contraction_at(traj.x_nodes[i], lam)
        assert sw.distance(traj.x_nodes[i] - shift, scn.body) <= 1e-7


@pytest.mark.parametrize("scn,lam,q,n", sample_trajectories())
def test_uniform_bound_and_step_bounds(scn, lam, q, n):
    traj = sw.run(scn, lam, q, n)
    var_total = sw.drift_variation_bound(scn.drift, 0.0, scn.period)
    cap = (np.linalg.norm(traj.u_nodes[0]) +
           (var_total + scn.L1 * scn.period) / (1.0 - scn.L2) + 1e-7)
    assert float(np.max(np.linalg.norm(traj.u_nodes, axis=1))) <= cap
    assert sw.step_variation_check(traj)


def test_u_equals_x_without_force():
    traj = sw.run(drag_scenario(), 0.0, (1.0, 0.0), 256)
    assert np.allclose(traj.u_nodes, traj.x_nodes)
    assert np.allclose(traj.J_nodes, 0.0)


# --- refinement --------------------------------------------------------------------

def test_refine_constant_scenario_converges_immediately():
    traj = sw.refine(constant_scenario(), 0.0, (0.2, 0.0), tol=1e-9, n0=8, n_max=64)
    assert traj.residual_history == [0.0]
    assert traj.n == 16


def test_refine_drag_reaches_tolerance():
    traj = sw.refine(drag_scenario(), 0.0, (0.0, 1.0), tol=1e-3, n0=64, n_max=2**14)
    assert traj.n <= 2**14
    assert traj.residual_history[-1] <= 1e-3
    assert all(np.isfinite(traj.residual_history))


def test_refine_budget_exhausted_reports_residual():
    with pytest.raises(BudgetExhausted) as info:
        sw.refine(drag_scenario(), 0.0, (0.0, 1.0), tol=1e-13, n0=8, n_max=32)
    assert info.value.residual is not None
    assert info.value.residual > 1e-13


def test_refine_rejects_budget_without_a_refinement():
    # n_max < 2 * n0 leaves no refinement to compare against
    with pytest.raises(ValueError, match="n_max"):
        sw.refine(disk_scenario(), 0.0, (0.5, 0.0), 1e-9, n0=64, n_max=100)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_refine_rejects_a_bad_tol_by_name(monkeypatch, tol):
    # checked on entry: the error names tol, not the step tolerance made from it
    def no_run(*args):
        raise AssertionError("a rejected tol must run nothing")

    monkeypatch.setattr(sw.integrator, "run", no_run)
    with pytest.raises(ValueError, match=r"^tol=.* must be positive and finite"):
        sw.refine(forced_disk_scenario(), 0.2, (0.5, 0.5), tol)


def test_refine_refuses_a_tol_whose_step_tolerance_rounds_to_0(monkeypatch):
    # tol / 100 rounds to 0: the error names the caller's tol, not the 0.0
    def no_run(*args):
        raise AssertionError("a rejected tol must run nothing")

    monkeypatch.setattr(sw.integrator, "run", no_run)
    with pytest.raises(OutOfRange, match=r"^tol=5e-324 leaves a step tolerance tol / 100 of 0$"):
        sw.refine(disk_scenario(), 0.0, (0.5, 0.0), 5e-324)


# --- convergence rate (curved drag, reference at 2^15) -------------------------------

def test_curved_drag_first_order_convergence():
    drag = drag_scenario()
    ref = sw.run(drag, 0.0, (0.0, 1.0), 2**14)
    errs = []
    for k in (8, 9, 10, 11):
        t = sw.run(drag, 0.0, (0.0, 1.0), 2**k)
        stride = 2**14 // 2**k
        errs.append(float(np.max(np.linalg.norm(t.x_nodes - ref.x_nodes[::stride], axis=1))))
    for a, b in zip(errs, errs[1:]):
        assert b <= a / 1.5


# --- energy inequality ----------------------------------------------------------------

def test_moreau_constant_trajectory_zero_slack():
    scn = constant_scenario()
    traj = sw.run(scn, 0.0, (0.2, 0.0), 64)
    assert sw.moreau_residual(traj, scn, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_moreau_drag_slack_above_floor():
    drag = drag_scenario()
    traj = sw.run(drag, 0.0, (1.0, 0.0), 1024)
    slack = sw.moreau_residual(traj, drag, 0.0)
    assert slack >= -1e-2
    assert slack >= -sw.moreau_epsilon(traj)


def test_moreau_refuses_another_lambda():
    # the selector at lam = 0 drops a linearly coupled contraction, so a run
    # at 0.7 would read another process's slack
    base = fourier_contraction_scenario()
    scn = dataclasses.replace(base, contraction=dataclasses.replace(base.contraction,
                                                                    coupling=LINEAR))
    traj = sw.run(scn, 0.7, (0.5, 0.5), 64)
    assert sw.moreau_residual(traj, scn, 0.7) == pytest.approx(0.33581, abs=1e-5)
    assert sw.moreau_residual(traj, scn, np.float64(0.7)) == sw.moreau_residual(traj, scn, 0.7)
    for lam in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="trajectory's lambda=0.7"):
            sw.moreau_residual(traj, scn, lam)


def test_moreau_epsilon_halves_per_doubling():
    drag = drag_scenario()
    eps = []
    for n in (512, 1024, 2048):
        traj = sw.run(drag, 0.0, (1.0, 0.0), n)
        eps.append(sw.moreau_epsilon(traj))
    for a, b in zip(eps, eps[1:]):
        assert b < a
        assert 0.4 <= b / a <= 0.6


def test_step_variation_check_drag_bound_form():
    drag = drag_scenario()
    n = 256
    traj = sw.run(drag, 0.0, (1.0, 0.0), n)
    expected = (4.0 / n + drag.L1 * drag.period / n) / (1.0 - drag.L2)
    assert traj.bounds == pytest.approx(expected, rel=1e-9)
    assert np.all(traj.increments <= traj.bounds + 1e-7)
