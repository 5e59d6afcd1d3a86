import dataclasses
import pathlib

import numpy as np
import pytest

import sweepsim as sw
from sweepsim import periodic
from sweepsim.cli import parse_scenario
from sweepsim.errors import NoConvergence, NotPeriodic
from sweepsim.integrator import DEFAULT_STEP_TOL
from sweepsim.presets import disk_scenario, forced_disk_scenario, fourier_contraction_scenario
from sweepsim.scenario import CONSTANT, LINEAR

from oracles import picard_periodic


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

def generalized_ic(scn, lam, q):
    """Feasible start V(q), the t = 0 implicit solve ``v = proj(q, A + a(0) + c(v))``."""
    return sw.implicit_step(scn, lam, q, np.zeros(scn.dimension), 0.0)[0]


def test_ic_feasible_point_is_fixed():
    scn = frozen_scenario()
    q = np.array([0.3, -0.2])
    assert np.allclose(generalized_ic(scn, 0.0, q), q, atol=1e-10)


def test_ic_projects_onto_ball():
    assert np.allclose(generalized_ic(frozen_scenario(), 0.0, (3.0, 0.0)),
                       (1.0, 0.0), atol=1e-10)


def test_ic_contraction_fixed_point():
    assert np.allclose(generalized_ic(contraction_disk(), 0.0, (3.0, 0.0)),
                       (2.0, 0.0), atol=1e-9)


def test_ic_continuity_estimate(rng):
    scn = contraction_disk()
    tol = DEFAULT_STEP_TOL      # the step tolerance of generalized_ic
    for _ in range(50):
        q = rng.normal(0, 2, 2)
        qp = q + rng.normal(0, 0.01, 2)
        vq = generalized_ic(scn, 0.0, q)
        vqp = generalized_ic(scn, 0.0, qp)
        cap = np.linalg.norm(q - qp) / (1.0 - scn.L2) + 2 * tol
        assert np.linalg.norm(vq - vqp) <= cap


# --- discrete return map ------------------------------------------------------------

def test_poincare_equals_ic_when_frozen():
    scn = frozen_scenario()
    for q in ([3.0, 0.0], [0.2, 0.1], [-2.0, 1.0]):
        assert np.allclose(sw.poincare_map(scn, 0.0, 64, q),
                           generalized_ic(scn, 0.0, q), atol=1e-9)


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


def test_no_return_map_is_run_twice(monkeypatch):
    # the orbit is the trajectory of a map the search already ran, not a rerun
    records, results = [], []
    inner = periodic.run

    def recording_run(scn, lam, q, n):
        records.append((float(lam), n, np.asarray(q, dtype=float).tobytes()))
        results.append(inner(scn, lam, q, n))
        return results[-1]

    monkeypatch.setattr(periodic, "run", recording_run)
    scn = forced_disk_scenario()
    orbits = [sw.find_periodic(scn, 0.05, 1e-6, n_schedule=(8, 32)),
              *sw.continue_branch(scn, [0.05, 0.1], (1.0, 0.0), 1e-6, n_schedule=(8, 32))]
    assert len(orbits) == 3
    assert len(set(records)) == len(records)
    for orbit in orbits:
        assert any(orbit.trajectory is traj for traj in results)

    # two maps per damping level: each later level restarts from the best iterate
    records.clear()
    monkeypatch.setattr(periodic, "PICARD_BUDGET", 2)
    monkeypatch.setattr(periodic, "COARSE_PICARD_BUDGET", 2)
    with pytest.raises(NoConvergence):
        sw.find_periodic(scn, 0.2, 1e-14, n_schedule=(32, 64))
    assert len(records) == len(set(records)) == 2 * (2 * 3 - 2)


def test_find_periodic_nonconvergence_carries_residual(monkeypatch):
    # two return maps per damping level cannot reach 1e-14
    monkeypatch.setattr(periodic, "PICARD_BUDGET", 2)
    monkeypatch.setattr(periodic, "COARSE_PICARD_BUDGET", 2)
    with pytest.raises(NoConvergence) as info:
        sw.find_periodic(forced_disk_scenario(), 0.2, 1e-14, n_schedule=(32, 64))
    assert info.value.residual is not None


def rotation_disk():
    """The autonomous disk under the rotation f(x) = (-x2, x1): its periodic
    point is 0, which undamped Picard iteration circles without closing in."""
    return dataclasses.replace(disk_scenario(),
                               force=sw.ForceSpec([[0.0, -1.0], [1.0, 0.0]], (0.0, 0.0)))


def test_stalled_damping_level_gives_way(monkeypatch):
    # undamped, the residual stays at 0.476: the 13th map shows no 0.1% gain
    # over the first, and the level stops long before its PICARD_BUDGET maps
    maps, starts, images = [], [], []
    inner = periodic.run

    def counting_run(*args):
        maps.append(args[3])
        traj = inner(*args)
        starts.append(args[2])
        images.append(traj.x_nodes[-1])
        return traj

    monkeypatch.setattr(periodic, "run", counting_run)
    damping = periodic.PICARD_DAMPING
    monkeypatch.setattr(periodic, "PICARD_DAMPING", (1.0,))
    scn = rotation_disk()
    with pytest.raises(NoConvergence) as info:
        sw.find_periodic(scn, 0.0, 1e-8, n_schedule=(64,), q0=(0.5, 0.0))
    assert len(maps) == 13
    assert info.value.residual == pytest.approx(0.4761, abs=1e-4)
    # no residual falls below the one before, so no secant correction
    # applies: each iterate is the clamped Picard step, bit for bit
    residuals = [np.linalg.norm(image - q) for q, image in zip(starts, images)]
    assert all(b >= a for a, b in zip(residuals, residuals[1:]))
    omega = sw.omega_region(scn, 0.0)
    for q, image, following in zip(starts, images, starts[1:]):
        assert following.tobytes() == omega._project(q + 1.0 * (image - q)).tobytes()

    # with every damping level, beta = 0.5 takes over from the stalled 1.0;
    # the last 2 runs are the local degree's stencil, from q* + h e_i
    monkeypatch.setattr(periodic, "PICARD_DAMPING", damping)
    maps.clear()
    starts.clear()
    orbit = sw.find_periodic(rotation_disk(), 0.0, 1e-8, n_schedule=(64,), q0=(0.5, 0.0))
    assert len(maps) == 18
    assert [s.tobytes() for s in starts[-2:]] == \
        [(orbit.q_star + periodic.FD_STEP * e).tobytes() for e in np.eye(2)]
    assert np.linalg.norm(orbit.q_star) < 1e-8
    assert orbit.degree_check.degree == 1


def saddle_disk():
    """forced_disk under the force f(x) = (-1, -3 x2) + lam (cos 2 pi t,
    sin 2 pi t).  At lam = 0 its fixed points are the saddle (1, 0) and the
    attractors (1/3, +-sqrt(8)/3) on the unit circle."""
    scn = forced_disk_scenario()
    return dataclasses.replace(scn, force=sw.ForceSpec(np.diag([0.0, -3.0]), (-1.0, 0.0),
                                                       forcing=scn.force.forcing))


def shipped(name):
    """The scenario of the shipped file demos/scenarios/<name>."""
    path = pathlib.Path(__file__).parent.parent / "demos" / "scenarios" / name
    return parse_scenario(path.read_text())


# (scenario, lam, q0), searched at tol 1e-8 on the default schedule
ORACLE_CASES = {
    "fourier_contraction": (fourier_contraction_scenario, 1.0, None),
    "forced_disk_0.05": (forced_disk_scenario, 0.05, None),
    "forced_disk_0.1": (forced_disk_scenario, 0.1, None),
    "disk": (disk_scenario, 0.0, None),
    "ellipse": (lambda: shipped("ellipse.json"), 0.0, None),
    "octagon": (lambda: shipped("octagon.json"), 0.0, None),
    **{f"saddle_{lam}_{q0}": (saddle_disk, lam, q0)
       for lam in (0.0, 0.05, 0.1) for q0 in ((1.0, 0.0), (1.0, 0.01), (0.9, 0.2))},
}
FEWER_MAPS = ("fourier_contraction", "forced_disk_0.05", "forced_disk_0.1")


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_search_finds_the_damped_picard_orbit(monkeypatch, name):
    make, lam, q0 = ORACLE_CASES[name]
    scn, tol = make(), 1e-8
    q_oracle, r_oracle, oracle_maps = picard_periodic(scn, lam, tol, q0=q0)
    assert r_oracle <= tol
    maps = []
    inner = periodic.run

    def counting_run(*args):
        maps.append(args[3])
        return inner(*args)

    monkeypatch.setattr(periodic, "run", counting_run)
    orbit = sw.find_periodic(scn, lam, tol, q0=q0)
    assert np.linalg.norm(orbit.q_star - q_oracle) <= 2 * tol
    search = maps[:-scn.dimension]      # the last d are the local degree's stencil
    assert len(search) <= oracle_maps
    if name in FEWER_MAPS:
        assert len(search) <= 0.7 * oracle_maps


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


def test_degree_refuses_two_vertices_and_three_dimensions():
    with pytest.raises(ValueError, match="at least 3 vertices"):
        sw.degree_2d(disk_scenario(), 0.0, 16, [(0.9, -0.1), (1.1, 0.1)])
    with pytest.raises(ValueError, match="planar only"):
        sw.degree_2d(shipped("box3d.json"), 0.0, 16, square_around((1.0, 0.0), 0.2))


# --- local degree on the solved map -----------------------------------------------------

def test_local_degree_equals_degree_2d_on_the_criterion_6_square():
    scn = forced_disk_scenario()
    square = square_around((1.0, 0.0), 0.2)
    orbits = sw.continue_branch(scn, [0.05, 0.1], (1.0, 0.0), 1e-6, n_schedule=(128, 512, 2048))
    assert [o.lam for o in orbits] == [0.05, 0.1]
    for orbit in orbits:
        assert orbit.n_used == 2048
        mesh = sw.degree_2d(scn, orbit.lam, 2048, square)
        assert orbit.degree_check.degree == mesh.degree == 1


@pytest.mark.parametrize("schedule", [(32, 128), (128, 512)])
def test_local_degree_of_the_saddle_is_minus_1(schedule):
    # Picard holds the saddle (1, 0) started on it
    orbit = sw.find_periodic(saddle_disk(), 0.0, 1e-8, n_schedule=schedule, q0=(1.0, 0.0))
    assert np.linalg.norm(orbit.q_star - (1.0, 0.0)) <= 1e-8
    mesh = sw.degree_2d(saddle_disk(), 0.0, schedule[-1], square_around(orbit.q_star, 0.1))
    assert orbit.degree_check.degree == mesh.degree == -1


def test_local_degree_with_complex_multipliers():
    scn = rotation_disk()
    orbit = sw.find_periodic(scn, 0.0, 1e-8, n_schedule=(64,), q0=(0.5, 0.0))
    check = orbit.degree_check
    assert all(abs(m.imag) > 0.5 for m in check.multipliers)
    assert check.multipliers[0] == check.multipliers[1].conjugate()
    mesh = sw.degree_2d(scn, 0.0, 64, square_around(orbit.q_star, 0.1))
    assert check.degree == mesh.degree == 1


@pytest.mark.parametrize("name", ["disk.json", "forced_disk.json", "ellipse.json", "octagon.json",
                                  "periodic_fourier.json"])
def test_local_degree_equals_degree_2d_on_every_shipped_planar_scenario(name):
    # the shipped scenarios periodic accepts in the plane (drag is not T-periodic)
    scn = shipped(name)
    orbit = sw.find_periodic(scn, 0.1, 1e-8, n_schedule=(32, 128))
    check = orbit.degree_check
    assert check.sigma_min > periodic.SINGULAR_FLOOR
    mesh = sw.degree_2d(scn, 0.1, 128, square_around(orbit.q_star, 0.1))
    assert check.degree == mesh.degree == 1


def test_singular_local_degree_gives_no_sign():
    # with no force every point inside the disk is fixed, so D = I
    scn = dataclasses.replace(disk_scenario(), force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)))
    for q0 in (None, (0.3, -0.2)):
        check = sw.find_periodic(scn, 0.0, 1e-8, n_schedule=(32, 128), q0=q0).degree_check
        assert check.degree is None
        assert check.sigma_min <= periodic.SINGULAR_FLOOR
        assert check.multipliers == pytest.approx((1.0, 1.0), abs=1e-9)
        assert check.h == periodic.FD_STEP == DEFAULT_STEP_TOL ** 0.5


def test_local_degree_runs_d_maps_at_n_used_and_no_mesh(monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("the local degree evaluates no mesh")

    records = []
    inner = periodic.run

    def recording_run(scn, lam, q, n):
        records.append((n, np.asarray(q, dtype=float).tobytes()))
        return inner(scn, lam, q, n)

    monkeypatch.setattr(periodic, "degree_2d", no_mesh)
    monkeypatch.setattr(periodic, "run_batch", no_mesh)
    monkeypatch.setattr(periodic, "run", recording_run)
    orbit = sw.find_periodic(forced_disk_scenario(), 0.1, 1e-6, n_schedule=(8, 32))
    stencil = [(32, (orbit.q_star + periodic.FD_STEP * e).tobytes()) for e in np.eye(2)]
    assert records[-2:] == stencil
    assert stencil[0] not in records[:-2] and stencil[1] not in records[:-2]


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


@pytest.mark.parametrize("grid", [[0.05, 1.5], [0.05, float("nan")]])
def test_continue_checks_every_lambda_before_solving(monkeypatch, grid):
    solves = []

    def find_periodic(scn, lam, *args, **kwargs):     # a solve that continuation skips
        solves.append(lam)
        raise NoConvergence("not solved", residual=1.0)

    monkeypatch.setattr(periodic, "find_periodic", find_periodic)
    with pytest.raises(ValueError, match="outside"):
        sw.continue_branch(forced_disk_scenario(), grid, (1.0, 0.0), 1e-6, n_schedule=(8, 32))
    assert solves == []


def test_continue_warm_equals_cold_on_smallest_lambda():
    scn = forced_disk_scenario()
    tol = 1e-6
    warm = sw.continue_branch(scn, [0.05, 0.1], (1.0, 0.0), tol, n_schedule=(128, 512))
    cold = sw.find_periodic(scn, 0.05, tol, n_schedule=(128, 512), q0=(1.0, 0.0))
    assert np.linalg.norm(warm[0].q_star - cold.q_star) <= 2 * tol


# --- T-periodicity ---------------------------------------------------------------------

def with_signal_period(period):
    """forced_disk with its drift, and with its forcing, of the given period."""
    scn = forced_disk_scenario()
    drift = sw.Fourier([[0.1, 0.0]], [[0.0, 0.1]], period)
    forcing = sw.Fourier([[1.0, 0.0]], [[0.0, 1.0]], period, LINEAR)
    force = dataclasses.replace(scn.force, forcing=forcing)
    return dataclasses.replace(scn, drift=drift), dataclasses.replace(scn, force=force)


def test_signal_longer_than_the_period_is_not_periodic():
    # T / 2e9 rounds to 0 periods: no whole number of them fits in T = 1
    for scn in with_signal_period(2e9):
        with pytest.raises(NotPeriodic, match="not T-periodic"):
            sw.find_periodic(scn, 0.05, 1e-6, n_schedule=(8, 32))


def test_signal_of_half_the_period_is_periodic():
    for scn in with_signal_period(0.5):
        orbit = sw.find_periodic(scn, 0.05, 1e-6, n_schedule=(8, 32))
        assert orbit.residual <= 1e-6


def circling(period, coupling=CONSTANT):
    return sw.Fourier([[0.1, 0.0]], [[0.0, 0.1]], period, coupling)


# name: (signal, its place in forced_disk (T = 1), whether it repeats every T)
T_PERIODICITY = {
    "closed_path": (sw.PiecewiseLinear([0.0, 0.4, 1.0], [[0.0, 0.0], [0.2, 0.1], [0.0, 0.0]]),
                    "drift", True),
    "open_path": (sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [0.2, 0.0]]), "drift", False),
    "cusp": (sw.SqrtCusp((0.1, 0.0), 0.5), "drift", False),
    "cusp_zero": (sw.SqrtCusp((0.0, 0.0), 0.5), "drift", True),   # zero: no cusp to repeat
    "fourier_T": (circling(1.0), "drift", True),
    "fourier_T_over_2": (circling(0.5), "drift", True),
    "fourier_T_over_3": (circling(1.0 / 3.0), "drift", True),
    "fourier_2T": (circling(2.0), "drift", False),
    "fourier_dim0": (sw.Fourier([], [], 2.0), "drift", True),     # zero, whatever its period
    "fourier_zero_2T": (sw.Fourier([[0.0, 0.0]], [[0.0, 0.0]], 2.0), "drift", True),
    "forcing_zero_2T": (sw.Fourier([[0.0, 0.0]], [[0.0, 0.0]], 2.0, LINEAR), "forcing", True),
    "forcing_2T": (circling(2.0, LINEAR), "forcing", False),
}


@pytest.mark.parametrize("name", T_PERIODICITY)
def test_t_periodicity_of_each_signal_type(name):
    signal, place, repeats = T_PERIODICITY[name]
    assert signal.repeats_every(1.0) is repeats
    scn = forced_disk_scenario()
    scn = (dataclasses.replace(scn, drift=signal) if place == "drift"
           else dataclasses.replace(scn, force=dataclasses.replace(scn.force, forcing=signal)))
    if repeats:
        assert sw.find_periodic(scn, 0.05, 1e-6, n_schedule=(8, 32)).residual <= 1e-6
    else:
        with pytest.raises(NotPeriodic, match=f"^{place} is not T-periodic; periodic search undefined$"):
            sw.find_periodic(scn, 0.05, 1e-6, n_schedule=(8, 32))


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


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("make", [disk_scenario, forced_disk_scenario,
                                  fourier_contraction_scenario])
def test_omega_clamp_moves_no_iterate_of_a_preset_search(monkeypatch, make, lam):
    # P_n maps the invariant ball into itself on the presets, as the
    # existence argument uses: clamping each damped iterate to it leaves
    # every one bit-unchanged
    seen = []

    class Recording:
        def __init__(self, ball):
            self.ball = ball

        def _project(self, q):
            p = self.ball._project(q)
            seen.append((q.tobytes(), np.asarray(p, dtype=float).tobytes()))
            return p

        def __getattr__(self, name):
            return getattr(self.ball, name)

    omega_region = periodic.omega_region
    monkeypatch.setattr(periodic, "omega_region",
                        lambda scn, lam: Recording(omega_region(scn, lam)))
    orbit = sw.find_periodic(make(), lam, 1e-8)
    assert orbit.n_used == periodic.DEFAULT_N_SCHEDULE[-1]
    assert seen and all(q == p for q, p in seen)
