"""The batched return map against the scalar path: ``run_batch`` must
reproduce a loop over ``run(...).x_nodes[-1]``, and ``degree_2d`` (one
``run_batch`` per mesh level) must reproduce the winding number computed
point by point through ``poincare_map``."""

import numpy as np
import pytest

import sweepsim as sw
from sweepsim.errors import NonConvergence
from sweepsim.presets import (
    disk_scenario,
    drag_scenario,
    forced_disk_scenario,
    fourier_contraction_scenario,
)

# run_batch rows use row-wise products where run uses 1-D dot and gemv, so
# they agree to rounding, not bit for bit
ROW_TOL = 1e-12
# on d = 2 the ellipsoid and polytope rows project through the planar float
# forms that run uses, and these cases match run bit for bit
PLANAR_EXACT = ("ellipsoid", "polytope")


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


TANH_RADIAL = sw.TanhRadialContraction(0.4, (0.2, -0.1), coupling=sw.LINEAR)
TANH_FORCE = sw.ForceSpec(
    0.5 * np.eye(2), (-1.5, 0.2),
    tanh_terms=[sw.TanhTerm(0.5, (1.0, 0.5), (0.3, 0.0)),
                sw.TanhTerm(-0.3, (0.0, 1.0), (0.0, 0.2))],
    forcing=sw.Fourier([[0.4, 0.0]], [[0.0, 0.4]], 1.0, sw.LINEAR),
)
MULTI_KNOT = sw.PiecewiseLinear([0.0, 0.13, 0.4, 0.41, 0.7, 1.0],
                                [[0, 0], [0.3, 0.1], [0.1, -0.4], [0.12, -0.41], [0.5, 0.2], [0, 0]])

CASES = {
    "disk": (disk_scenario(), 0.0, 64),
    "drag": (drag_scenario(), 0.3, 64),
    "forced_disk": (forced_disk_scenario(), 0.4, 64),
    "fourier_contraction": (fourier_contraction_scenario(), 1.0, 64),
    "box": (swept(body=sw.Box((-1.0, -0.8), (1.0, 0.8))), 0.7, 48),
    "ellipsoid": (swept(body=sw.Ellipsoid((0.0, 0.0), [[1.2, 0.2], [0.2, 0.6]])), 0.7, 24),
    "polytope": (swept(body=octagon()), 0.7, 12),
    "tanh_radial_contraction": (swept(contraction=TANH_RADIAL), 0.6, 48),
    "tanh_force": (swept(force=TANH_FORCE), 0.8, 48),
    "piecewise_linear": (swept(drift=MULTI_KNOT), 0.5, 101),
}


def starts(m, seed=3):
    """Initial conditions inside, on and well outside the unit disk; a
    single row is the first random one, (-1.49, -0.95), outside it."""
    rng = np.random.default_rng(seed)
    Q = rng.uniform(-1.8, 1.8, size=(m, 2))
    if m > 1:
        Q[:2] = [(0.0, 0.0), (1.0, 0.0)]
    return Q


@pytest.mark.parametrize("m", [9, 1])
@pytest.mark.parametrize("key", sorted(CASES))
def test_run_batch_matches_scalar_runs(key, m):
    scn, lam, n = CASES[key]
    Q = starts(m)
    ref = np.array([sw.run(scn, lam, q, n).x_nodes[-1] for q in Q])
    got = sw.run_batch(scn, lam, Q, n)
    assert got.shape == Q.shape
    assert np.max(np.abs(got - ref)) <= ROW_TOL
    if key in PLANAR_EXACT:
        assert np.array_equal(got, ref)


def test_run_batch_empty_stack():
    assert sw.run_batch(disk_scenario(), 0.0, np.zeros((0, 2)), 8).shape == (0, 2)


def test_run_batch_rejects_malformed_stacks():
    scn = disk_scenario()
    with pytest.raises(ValueError, match="stack"):
        sw.run_batch(scn, 0.0, [1.0, 0.0], 8)
    with pytest.raises(ValueError, match="stack"):
        sw.run_batch(scn, 0.0, np.zeros((4, 3)), 8)
    with pytest.raises(ValueError, match="non-finite"):
        sw.run_batch(scn, 0.0, [[0.0, 0.0], [np.nan, 0.0]], 8)
    with pytest.raises(ValueError, match="outside"):
        sw.run_batch(scn, 1.5, np.zeros((2, 2)), 8)


def test_understated_l2_row_fails_within_its_own_budget():
    # the matrix contracts at 0.9 but declares 0.1.  From (s, 0) with s > 10
    # the t=0 solve moves by (0.1 s - 1) * 0.9^k: the rows at 10.5 and 20
    # start at 0.05 and 1.0, so their a-priori budgets (margin included) are
    # 12 and 14 sweeps, and the first row to overrun is the one at 10.5;
    # (0.5, 0) is feasible
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0),
        contraction=sw.AffineContraction(0.9 * np.eye(2), np.zeros(2), L2=0.1),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
    )
    with pytest.raises(NonConvergence) as scalar:
        sw.implicit_step(scn, 0.0, (10.5, 0.0), np.zeros(2), 0.0)
    with pytest.raises(NonConvergence) as batch:
        sw.run_batch(scn, 0.0, [[0.5, 0.0], [20.0, 0.0], [10.5, 0.0]], 4)
    assert batch.value.budget == scalar.value.budget == 12
    assert batch.value.residual == pytest.approx(scalar.value.residual, rel=1e-12)


def staggered(drift=None):
    """A unit disk whose contraction moves only y, at rate 0.5 (its declared
    L2, to 1e-12), with the rows ``STAGGERED`` of states whose t=0 solves
    leave the active set at different sweeps (``STAGGERED_SWEEPS``): inside,
    at sweep 1; off the disk along x, where the shift stays put, at sweep 2;
    off it along y, where every sweep halves the move, 2 sweeps before their
    a-priori budget of 42."""
    return sw.SweepingScenario(
        2, sw.Ball((0.0, 0.0), 1.0), (0.0, 0.0),
        drift or sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0),
        sw.AffineContraction([[0.0, 0.0], [0.0, 0.5]], (0.0, 0.0)),
        sw.ForceSpec(-0.5 * np.eye(2), (0.1, 0.0)), 1.0)


STAGGERED = np.array([[0.5, 0.0], [5.0, 0.0], [0.0, 50.0], [0.0, 0.0], [-4.0, 0.0],
                      [0.0, -30.0], [3.0, 3.0]])
STAGGERED_SWEEPS = [1, 2, 40, 1, 2, 40, 29]


def test_rows_leave_the_active_set_at_their_own_sweeps():
    scn = staggered()
    stop = sw.integrator._stop(sw.integrator.DEFAULT_STEP_TOL, scn.L2)
    alone = [sw.implicit_step(scn, 0.0, q, np.zeros(2), 0.0) for q in STAGGERED]
    assert [k for _, k in alone] == STAGGERED_SWEEPS
    assert sw.scenario._budget(24.0, stop, scn.L2) == 42      # the first move of (0, 50)
    # the whole stack in one solve: every column its own solution, and the
    # sweeps of the slowest
    res = scn.resolve(0.0, np.array([0.0]))
    V, k = sw.integrator._solve_cols(res, res.drift[0][:, None], np.ascontiguousarray(STAGGERED.T),
                                     np.zeros(STAGGERED.T.shape), stop)
    assert k == max(STAGGERED_SWEEPS)
    assert np.max(np.abs(V.T - np.array([v for v, _ in alone]))) <= ROW_TOL
    # and over whole runs, with a moving disk
    scn = staggered(sw.Fourier([[0.3, 0.0]], [[0.0, 0.2]], 1.0))
    ref = np.array([sw.run(scn, 0.0, q, 16).x_nodes[-1] for q in STAGGERED])
    assert np.max(np.abs(sw.run_batch(scn, 0.0, STAGGERED, 16) - ref)) <= ROW_TOL


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["ball", "box", "ellipsoid", "polytope"])
def test_empty_stack_on_every_body(kind, d):
    body = {"ball": sw.Ball(np.zeros(d), 1.0),
            "box": sw.Box(-np.ones(d), np.ones(d)),
            "ellipsoid": sw.Ellipsoid(np.zeros(d), np.diag(np.linspace(0.5, 1.5, d))),
            "polytope": sw.HalfspacePolytope([(row, 1.0) for row in np.vstack([np.eye(d), -np.eye(d)])],
                                             2.0 * d, np.zeros(d))}[kind]
    scn = sw.SweepingScenario(d, body, np.zeros(d), sw.Fourier(0.2 * np.eye(1, d), np.zeros((0, d)), 1.0),
                              sw.AffineContraction(0.3 * np.eye(d), np.zeros(d)),
                              sw.ForceSpec(-np.eye(d), np.zeros(d)), 1.0)
    assert sw.run_batch(scn, 0.5, np.zeros((0, d)), 8).shape == (0, d)


def test_nan_row_fails_at_its_own_budget(monkeypatch):
    # from its second sweep on, the last row's projection is NaN: it keeps
    # moving, while the other rows leave the active set, until its own
    # budget, that of its first move 3.0 (39 sweeps), below the budget of
    # 42 of the rows still moving
    project_cols = sw.Ball._project_cols
    calls = []

    def poisoned(self, P):
        out = project_cols(self, P)
        calls.append(P.shape[1])
        if len(calls) >= 2:
            out[:, -1] = np.nan
        return out

    monkeypatch.setattr(sw.Ball, "_project_cols", poisoned)
    scn = staggered()
    stop = sw.integrator._stop(sw.integrator.DEFAULT_STEP_TOL, scn.L2)
    Q = STAGGERED[[0, 1, 2, 4]]          # sweeps 1, 2, 40 and the poisoned 2
    with pytest.raises(NonConvergence) as err:
        sw.run_batch(scn, 0.0, Q, 4)
    assert err.value.budget == sw.scenario._budget(3.0, stop, scn.L2) == 39
    assert np.isnan(err.value.residual)
    # the stack shrinks as row 0 leaves after sweep 1 and row 1 after sweep 2
    assert calls == [4, 3] + [2] * 37


def reference_degree(scn, lam, n, polygon, mesh=64):
    """The winding computation point by point through ``poincare_map``:
    edges one after another, each mesh doubling evaluating only the new
    odd-indexed points."""
    verts = [np.asarray(v, dtype=float) for v in polygon]
    per_edge = [None] * len(verts)
    m = mesh
    while m <= sw.periodic.MESH_CAP:
        for e, a in enumerate(verts):
            b = verts[(e + 1) % len(verts)]
            fracs = np.arange(m) / m
            new = fracs if per_edge[e] is None else fracs[1::2]
            g = np.array([a + f * (b - a) - sw.poincare_map(scn, lam, n, a + f * (b - a))
                          for f in new])
            if per_edge[e] is None:
                per_edge[e] = g
            else:
                both = np.empty((m, 2))
                both[0::2], both[1::2] = per_edge[e], g
                per_edge[e] = both
        g_all = np.vstack(per_edge)
        theta = np.arctan2(g_all[:, 1], g_all[:, 0])
        dtheta = (np.diff(np.append(theta, theta[0])) + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(dtheta)) < np.pi / 2.0:
            degree = round(float(np.sum(dtheta)) / (2.0 * np.pi))
            return degree, g_all.shape[0], float(np.linalg.norm(g_all, axis=1).min())
        m *= 2
    raise AssertionError("reference mesh exhausted")


def square(center, side):
    c = np.asarray(center, dtype=float)
    h = side / 2.0
    return [c + (-h, -h), c + (h, -h), c + (h, h), c + (-h, h)]


@pytest.mark.parametrize("scn, lam, polygon, mesh_points", [
    (disk_scenario(), 0.0, square((1.0, 0.0), 0.2), 4 * 64),
    (forced_disk_scenario(), 0.3, square((1.0, 0.1), 0.3), 4 * 64),
    (disk_scenario(), 0.0, square((-0.5, 0.0), 0.2), 4 * 64),          # degree 0
    # the bottom edge passes 7e-4 below the attracting point (1, 0), between
    # mesh nodes: the angle criterion needs two doublings
    (disk_scenario(), 0.0, square((1.0011, 0.0993), 0.2), 4 * 256),
    (fourier_contraction_scenario(), 1.0, [(1.2, -0.2), (1.6, 0.0), (1.3, 0.3)], 3 * 64),
])
def test_degree_matches_scalar_reference(scn, lam, polygon, mesh_points):
    degree, ref_mesh_points, min_norm = reference_degree(scn, lam, 16, polygon)
    got = sw.degree_2d(scn, lam, 16, polygon)
    assert got.degree == degree
    assert got.mesh_points == ref_mesh_points == mesh_points
    assert abs(got.min_field_norm - min_norm) <= ROW_TOL
