import numpy as np
import pytest

import sweepsim as sw
from sweepsim import periodic
from sweepsim.errors import NoConvergence
from sweepsim.integrator import DEFAULT_STEP_TOL
from sweepsim.presets import disk_scenario, forced_disk_scenario
from sweepsim.scenario import CONSTANT


def frozen_scenario():
    return sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
        contraction=sw.ZeroContraction(),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
    )


def contraction_disk():
    return sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
        contraction=sw.AffineContraction(0.5 * np.eye(2), np.zeros(2), L2=0.5),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
    )


# --- generalized initial condition ------------------------------------------------

def test_ic_feasible_point_is_fixed():
    scn = frozen_scenario()
    q = np.array([0.3, -0.2])
    assert np.allclose(sw.generalized_ic(scn, 0.0, q), q, atol=1e-10)


def test_ic_projects_onto_ball():
    assert np.allclose(sw.generalized_ic(frozen_scenario(), 0.0, (3.0, 0.0)),
                       (1.0, 0.0), atol=1e-10)


def test_ic_contraction_fixed_point():
    assert np.allclose(sw.generalized_ic(contraction_disk(), 0.0, (3.0, 0.0)),
                       (2.0, 0.0), atol=1e-9)


def test_ic_continuity_estimate(rng):
    scn = contraction_disk()
    tol = DEFAULT_STEP_TOL      # the step tolerance of generalized_ic
    for _ in range(50):
        q = rng.normal(0, 2, 2)
        qp = q + rng.normal(0, 0.01, 2)
        vq = sw.generalized_ic(scn, 0.0, q)
        vqp = sw.generalized_ic(scn, 0.0, qp)
        cap = np.linalg.norm(q - qp) / (1.0 - scn.L2) + 2 * tol
        assert np.linalg.norm(vq - vqp) <= cap


# --- discrete return map ------------------------------------------------------------

def test_poincare_equals_ic_when_frozen():
    scn = frozen_scenario()
    for q in ([3.0, 0.0], [0.2, 0.1], [-2.0, 1.0]):
        assert np.allclose(sw.poincare_map(scn, 0.0, 64, q),
                           sw.generalized_ic(scn, 0.0, q), atol=1e-9)


def test_poincare_fixes_switched_equilibrium():
    scn = disk_scenario()
    p = sw.poincare_map(scn, 0.0, 512, (1.0, 0.0))
    assert np.linalg.norm(p - (1.0, 0.0)) <= 1e-9


def test_poincare_deterministic():
    scn = forced_disk_scenario()
    a = sw.poincare_map(scn, 0.1, 128, (0.5, 0.2))
    b = sw.poincare_map(scn, 0.1, 128, (0.5, 0.2))
    assert np.array_equal(a, b)


# --- periodic point search ----------------------------------------------------------

def test_find_periodic_autonomous_disk():
    orbit = sw.find_periodic(disk_scenario(), 0.0, 1e-8, n_schedule=(64, 256))
    assert orbit.residual <= 1e-8
    assert np.linalg.norm(orbit.q_star - (1.0, 0.0)) <= 1e-6
    # the orbit is the constant one
    spread = np.max(np.linalg.norm(orbit.trajectory.x_nodes - orbit.q_star, axis=1))
    assert spread <= 1e-8
    assert orbit.degree_check is not None and orbit.degree_check.degree == 1


def test_find_periodic_frozen_fourier_drift():
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier([[0.4, 0.0]], [[0.0, 0.4]], 1.0, CONSTANT),
        contraction=sw.ZeroContraction(),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
        L1=0.0,
    )
    orbit = sw.find_periodic(scn, 0.0, 1e-6, n_schedule=(64, 256))
    assert orbit.residual <= 1e-6
    omega = sw.omega_region(scn, 0.0)
    assert np.linalg.norm(orbit.q_star - omega.center) <= omega.radius + 1e-9


def test_find_periodic_lambda_zero_reduces_to_autonomous():
    a = sw.find_periodic(forced_disk_scenario(), 0.0, 1e-8, n_schedule=(64, 256))
    b = sw.find_periodic(disk_scenario(), 0.0, 1e-8, n_schedule=(64, 256))
    assert np.linalg.norm(a.q_star - b.q_star) <= 1e-8


def test_find_periodic_orbit_passes_dynamic_checks():
    scn = forced_disk_scenario()
    orbit = sw.find_periodic(scn, 0.1, 1e-6, n_schedule=(128, 512))
    traj = orbit.trajectory
    assert sw.step_variation_check(traj)
    assert sw.moreau_residual(traj, scn, 0.1) >= -sw.moreau_epsilon(traj)


def test_find_periodic_nonconvergence_carries_residual(monkeypatch):
    # two return maps per damping level cannot reach 1e-14
    monkeypatch.setattr(periodic, "PICARD_BUDGET", 2)
    monkeypatch.setattr(periodic, "COARSE_PICARD_BUDGET", 2)
    with pytest.raises(NoConvergence) as info:
        sw.find_periodic(forced_disk_scenario(), 0.2, 1e-14, n_schedule=(32, 64))
    assert info.value.residual is not None


def test_find_periodic_rejects_aperiodic_drift():
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.SqrtCusp((1.0, 0.0), 0.5, CONSTANT),
        contraction=sw.ZeroContraction(),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
        L1=1.0,
    )
    with pytest.raises(ValueError):
        sw.find_periodic(scn, 0.0, 1e-6)


# --- planar degree -------------------------------------------------------------------

def square_around(center, side):
    c = np.asarray(center, dtype=float)
    h = side / 2.0
    return [c + (-h, -h), c + (h, -h), c + (h, h), c + (-h, h)]


def test_degree_one_around_attractor():
    res = sw.degree_2d(disk_scenario(), 0.0, 128, square_around((1.0, 0.0), 0.2))
    assert res.degree == 1
    assert res.min_field_norm > 1e-9


def test_degree_zero_away_from_fixed_points():
    scn = disk_scenario()
    poly = square_around((-0.5, 0.0), 0.2)
    res = sw.degree_2d(scn, 0.0, 128, poly)
    assert res.degree == 0
    # no zeros enclosed: dense interior sampling stays bounded away from 0
    xs = np.linspace(-0.6, -0.4, 9)
    ys = np.linspace(-0.1, 0.1, 9)
    worst = np.inf
    for x in xs:
        for y in ys:
            g = np.array([x, y]) - sw.poincare_map(scn, 0.0, 128, (x, y))
            worst = min(worst, float(np.linalg.norm(g)))
    assert worst > 1e-3


def test_degree_orientation_antisymmetry():
    scn = disk_scenario()
    poly = square_around((1.0, 0.0), 0.2)
    forward = sw.degree_2d(scn, 0.0, 128, poly)
    backward = sw.degree_2d(scn, 0.0, 128, poly[::-1])
    assert backward.degree == -forward.degree


def test_degree_stable_under_mesh_refinement():
    scn = disk_scenario()
    poly = square_around((1.0, 0.0), 0.2)
    a = sw.degree_2d(scn, 0.0, 128, poly, mesh=64)
    b = sw.degree_2d(scn, 0.0, 128, poly, mesh=128)
    assert a.degree == b.degree


def test_degree_mesh_minimum_enforced():
    with pytest.raises(ValueError):
        sw.degree_2d(disk_scenario(), 0.0, 64, square_around((1, 0), 0.2), mesh=16)


def test_degree_mesh_above_cap_rejected_before_any_run(monkeypatch):
    def no_run(*args):
        raise AssertionError("a rejected mesh must evaluate nothing")

    monkeypatch.setattr(sw.periodic, "run_batch", no_run)
    cap = sw.periodic.MESH_CAP
    with pytest.raises(ValueError, match=f"64 to {cap} points per edge"):
        sw.degree_2d(disk_scenario(), 0.0, 64, square_around((1, 0), 0.2), mesh=cap + 1)


def test_degree_non_integer_mesh_rejected_before_any_run(monkeypatch):
    # 64.5 would space each edge's points 1/64.5 apart and leave a half step
    def no_run(*args):
        raise AssertionError("a rejected mesh must evaluate nothing")

    scn, poly = disk_scenario(), square_around((1.0, 0.0), 0.2)
    expected = sw.degree_2d(scn, 0.0, 64, poly, mesh=64)
    assert sw.degree_2d(scn, 0.0, 64, poly, mesh=np.int64(64)) == expected
    monkeypatch.setattr(sw.periodic, "run_batch", no_run)
    for bad in (64.5, 64.0, np.float64(64.0)):
        with pytest.raises(TypeError):
            sw.degree_2d(scn, 0.0, 64, poly, mesh=bad)


@pytest.mark.parametrize("bad", [(1.1, 0.1, 0.0), (np.nan, 0.1), "corner", (1.1,)])
def test_degree_rejects_bad_vertex_by_index(bad):
    poly = square_around((1.0, 0.0), 0.2)
    poly[2] = bad
    with pytest.raises(ValueError, match="vertex 2"):
        sw.degree_2d(disk_scenario(), 0.0, 16, poly)


# --- continuation ---------------------------------------------------------------------

def test_continue_single_lambda_zero():
    orbits = sw.continue_branch(disk_scenario(), [0.0], (1.0, 0.0), 1e-8,
                                n_schedule=(64, 256))
    assert len(orbits) == 1
    assert np.linalg.norm(orbits[0].q_star - (1.0, 0.0)) <= 1e-6
    assert orbits[0].seed_distance <= 1e-8


def test_continue_requires_ascending_grid():
    with pytest.raises(ValueError):
        sw.continue_branch(disk_scenario(), [0.2, 0.1], (1.0, 0.0), 1e-6)


def test_continue_warm_equals_cold_on_smallest_lambda():
    scn = forced_disk_scenario()
    tol = 1e-6
    warm = sw.continue_branch(scn, [0.05, 0.1], (1.0, 0.0), tol, n_schedule=(128, 512))
    cold = sw.find_periodic(scn, 0.05, tol, n_schedule=(128, 512), q0=(1.0, 0.0))
    assert np.linalg.norm(warm[0].q_star - cold.q_star) <= 2 * tol


# --- search arguments ---------------------------------------------------------------

BAD_SEARCH_ARGS = [
    ({"tol": float("nan")}, "positive and finite"),
    ({"tol": 0.0}, "positive and finite"),
    ({"tol": -1e-6}, "positive and finite"),
    ({"tol": float("inf")}, "positive and finite"),
    ({"n_schedule": ()}, "at least one step count"),
]


@pytest.mark.parametrize("change, message", BAD_SEARCH_ARGS)
def test_find_periodic_rejects_bad_arguments(change, message):
    args = {"tol": 1e-6, "n_schedule": (8, 32)} | change
    with pytest.raises(ValueError, match=message):
        sw.find_periodic(disk_scenario(), 0.0, args.pop("tol"), **args)


@pytest.mark.parametrize("change, message", BAD_SEARCH_ARGS)
def test_continue_branch_rejects_bad_arguments(change, message):
    args = {"tol": 1e-6, "n_schedule": (8, 32)} | change
    # checked before any solve, so an empty grid fails too
    for grid in ([0.0, 0.1], []):
        with pytest.raises(ValueError, match=message):
            sw.continue_branch(disk_scenario(), grid, (1.0, 0.0), args["tol"],
                               n_schedule=args["n_schedule"])
