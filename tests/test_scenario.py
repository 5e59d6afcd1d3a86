import dataclasses
import itertools
import json
import pathlib
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

import sweepsim as sw
from sweepsim.errors import NonConvergence, TimeOutOfRange
from sweepsim.presets import (
    disk_scenario,
    drag_scenario,
    forced_disk_scenario,
    fourier_contraction_scenario,
    mirrored_disk_scenario,
)
from sweepsim.scenario import CONSTANT, LINEAR

from conftest import random_body, reference_norm_bound

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


# --- drift evaluation ---------------------------------------------------------

def test_fourier_all_zero_coefficients():
    spec = sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT)
    for t in np.linspace(0, 1, 7):
        assert np.allclose(sw.eval_drift(spec, t, 0.3), (0, 0))


def test_fourier_reads_its_dimension_from_the_columns():
    assert sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0).dim == 2
    assert sw.Fourier([], [], 1.0).dim == 0
    assert sw.Fourier([], [[0.1, 0.2, 0.3]], 1.0).dim == 3
    for cos in (np.zeros((0, 2)), [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sw.Fourier(cos, [[0.1, 0.2, 0.3]], 1.0)


def test_piecewise_linear_interpolation():
    spec = sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]], CONSTANT)
    assert np.allclose(sw.eval_drift(spec, 0.5, 0.0), (1.0, 0.0))


def test_sqrt_cusp_value():
    spec = sw.SqrtCusp((1.0, 0.0), 0.5, CONSTANT)
    assert np.allclose(sw.eval_drift(spec, 0.75, 0.0), (0.5, 0.0))


def test_linear_coupling_vanishes_at_lambda_zero():
    drift = sw.Fourier([[1.0, 0.0]], [[0.0, 2.0]], 1.0, LINEAR)
    con = sw.AffineContraction(0.3 * np.eye(2), (0.5, 0.0), coupling=LINEAR)
    for t in np.linspace(0, 1, 5):
        assert np.linalg.norm(sw.eval_drift(drift, t, 0.0)) == 0.0
    for x in ([0.3, -1.0], [2.0, 2.0]):
        assert np.linalg.norm(sw.eval_contraction(con, x, 0.0)) == 0.0
    assert np.allclose(sw.eval_drift(drift, 0.25, 0.5), 0.5 * sw.eval_drift(drift, 0.25, 1.0))


def test_piecewise_linear_out_of_range():
    spec = sw.PiecewiseLinear([0.0, 1.0], [[0.0], [1.0]], CONSTANT)
    with pytest.raises(TimeOutOfRange):
        sw.eval_drift(spec, 1.5, 1.0)


# --- variation bounds ----------------------------------------------------------

def test_variation_bound_zero_drift():
    spec = sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT)
    assert sw.drift_variation_bound(spec, 0.0, 1.0) == 0.0


def test_variation_bound_piecewise_path_length():
    spec = sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]], CONSTANT)
    assert sw.drift_variation_bound(spec, 0.0, 1.0) == pytest.approx(2.0)
    assert sw.drift_variation_bound(spec, 0.25, 0.75) == pytest.approx(1.0)


def test_variation_bound_sqrt_cusp():
    spec = sw.SqrtCusp((1.0, 0.0), 0.0, CONSTANT)
    assert sw.drift_variation_bound(spec, 0.0, 0.25) == pytest.approx(0.5)
    spec2 = sw.SqrtCusp((1.0, 0.0), 0.5, CONSTANT)
    # across the cusp: down to zero and back up
    assert sw.drift_variation_bound(spec2, 0.25, 0.75) == pytest.approx(1.0)


@pytest.mark.parametrize("spec", [
    sw.Fourier([[0.4, 0.0]], [[0.0, 0.2]], 1.0, CONSTANT),
    sw.PiecewiseLinear([0.0, 0.3, 1.0], [[0.0, 0.0], [1.0, 0.5], [0.0, 0.0]], CONSTANT),
    sw.SqrtCusp((0.7, 0.7), 0.4, CONSTANT),
])
def test_variation_bound_superadditive_consistency(spec):
    for (s, m, t) in [(0.0, 0.3, 1.0), (0.1, 0.5, 0.9), (0.2, 0.4, 0.41)]:
        whole = sw.drift_variation_bound(spec, s, t)
        split = sw.drift_variation_bound(spec, s, m) + sw.drift_variation_bound(spec, m, t)
        assert whole <= split + 1e-12


@pytest.mark.parametrize("spec", [
    sw.Fourier([[0.4, 0.0]], [[0.0, 0.2]], 1.0, CONSTANT),
    sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]], CONSTANT),
    sw.SqrtCusp((1.0, 0.0), 0.5, CONSTANT),
])
def test_variation_bound_vanishes_for_short_intervals(spec):
    # bisect an interval length delta with bound <= 1e-3 uniformly over starts
    delta = 1.0
    for _ in range(40):
        worst = max(sw.drift_variation_bound(spec, s, min(s + delta, 1.0))
                    for s in np.linspace(0.0, 1.0 - delta, 33))
        if worst <= 1e-3:
            break
        delta /= 2.0
    else:
        pytest.fail("no interval length with variation bound below 1e-3")
    assert delta > 0


# --- contraction fixed point ----------------------------------------------------

def test_fixed_point_zero_contraction():
    assert np.allclose(sw.contraction_fixed_point(sw.ZeroContraction(), 0.0, dim=3), np.zeros(3))


def test_fixed_point_matches_an_uncapped_picard_loop():
    # box3d.json takes the most Picard steps of the shipped scenarios
    scn = sw.SweepingScenario.from_doc(json.loads(SCENARIO_DIR.joinpath("box3d.json").read_text()))
    for lam in (0.0, 1.0):
        xi = np.zeros(3)
        while True:
            nxt = sw.eval_contraction(scn.contraction, xi, lam)
            if np.linalg.norm(nxt - xi) <= 1e-12:
                break
            xi = nxt
        assert scn.fixed_point(lam).tobytes() == nxt.tobytes()


def test_fixed_point_refuses_a_non_finite_first_move():
    # the move (1e308, 1e308) overflows its norm: NonConvergence, and no
    # RuntimeWarning on the way, which -W error would raise in its place
    spec = sw.AffineContraction(0.5 * np.eye(2), (1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence) as err:
            sw.contraction_fixed_point(spec, 0.0)
    assert err.value.residual == np.inf
    assert err.value.budget == 1


def test_zero_contraction_coupling_is_not_a_field():
    zero = sw.ZeroContraction()
    assert zero.coupling == CONSTANT
    assert [f.name for f in dataclasses.fields(zero)] == ["L2"]


def test_fixed_point_affine_hand_solved():
    spec = sw.AffineContraction(0.5 * np.eye(2), (1.0, 0.0))
    xi = sw.contraction_fixed_point(spec, 0.0)
    assert np.allclose(xi, (2.0, 0.0), atol=1e-12)
    assert np.linalg.norm(sw.eval_contraction(spec, xi, 0.0) - xi) <= 1e-12


def test_fixed_point_picard_error_bound():
    # after k steps the Picard error obeys the geometric contraction estimate
    spec = sw.AffineContraction(0.5 * np.eye(2), (1.0, 0.0))
    L2, xi = 0.5, np.array([2.0, 0.0])
    x = np.zeros(2)
    for k in range(1, 20):
        x = sw.eval_contraction(spec, x, 0.0)
        assert np.linalg.norm(x - xi) <= L2**k * np.linalg.norm(xi) / (1 - L2) + 1e-12


def test_force_affine_example():
    force = sw.ForceSpec(np.eye(2), (-2.0, 0.0))
    assert np.allclose(sw.eval_force(force, 0.3, (1.0, 0.0), 0.7), (-1.0, 0.0))


# --- invariant region ------------------------------------------------------------

def test_omega_unit_disk_no_drift():
    scn = disk_scenario()
    omega = sw.omega_region(scn, 0.0)
    assert omega.radius == pytest.approx(1.0 / (1.0 - 1e-6), rel=1e-9)
    assert np.allclose(omega.center, (0, 0))


def test_omega_shifted_ball_hand_value():
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.PiecewiseLinear([0.0, 1.0], [[0.5, 0.0], [0.5, 0.0]], CONSTANT),
        contraction=sw.AffineContraction(0.5 * np.eye(2), np.zeros(2), L2=0.5),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
        L1=1.0,
    )
    omega = sw.omega_region(scn, 0.0)
    assert omega.radius == pytest.approx(3.0, rel=1e-9)


def test_omega_radius_nondecreasing_in_l2():
    radii = []
    for l2 in (0.1, 0.3, 0.6):
        scn = sw.SweepingScenario(
            dimension=2,
            body=sw.Ball((0.0, 0.0), 1.0),
            interior_point=(0.0, 0.0),
            drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
            contraction=sw.AffineContraction(l2 * np.eye(2), np.zeros(2), L2=l2),
            force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
            period=1.0,
        )
        radii.append(sw.omega_region(scn, 0.0).radius)
    assert radii[0] < radii[1] < radii[2]


def _extreme_points(body, rng):
    """Body samples plus the points where ||x + a|| can peak: box corners,
    ellipsoid boundary points, polytope vertices from an LP solver."""
    d = body.dim
    pts = [body.sample_points(100, rng)]
    if isinstance(body, sw.Box):
        pts.append(np.array(list(itertools.product(*zip(body.lower, body.upper)))))
    elif isinstance(body, sw.Ellipsoid):
        u = rng.normal(0, 1, (200, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        evals, evecs = np.linalg.eigh(body.shape_matrix)
        pts.append(body.center + u @ (evecs @ np.diag(np.sqrt(evals)) @ evecs.T))
    else:
        r = body.bounding_radius + 1.0
        for v in rng.normal(0, 1, (40, d)):
            res = linprog(-v, A_ub=body.normals, b_ub=body.offsets, bounds=[(-r, r)] * d,
                          method="highs")
            pts.append(res.x[None, :])
    return np.vstack(pts)


@pytest.mark.parametrize("kind", ["box", "ellipsoid", "polytope"])
def test_omega_radius_bounds_translated_body(rng, kind):
    for k in range(8):
        # each d in 1..4 with both drifts below
        body = random_body(rng, dims=(k // 2 + 1,), kinds=(kind,))
        d = body.dim
        member = body.interior_point if kind == "polytope" else body.project(np.zeros(d))
        l2 = rng.uniform(0.1, 0.8)
        if k % 2:
            drift = sw.Fourier(rng.normal(0, 0.5, (2, d)), rng.normal(0, 0.5, (2, d)), 1.0,
                               CONSTANT)
        else:
            # a constant drift has variation bound 0: no slack hides a low radius
            shift = rng.normal(0, 0.5, d)
            drift = sw.PiecewiseLinear([0.0, 1.0], [shift, shift], CONSTANT)
        scn = sw.SweepingScenario(
            dimension=d,
            body=body,
            interior_point=member,
            drift=drift,
            contraction=sw.AffineContraction(l2 * np.eye(d), np.zeros(d), L2=l2),
            force=sw.ForceSpec(np.zeros((d, d)), np.zeros(d)),
            period=1.0,
        )
        bound = sw.omega_region(scn, 0.5).radius * (1.0 - l2)
        pts = _extreme_points(body, rng)
        for t in np.linspace(0.0, 1.0, 256):
            worst = float(np.max(np.linalg.norm(pts + scn.drift_at(t, 0.5), axis=1)))
            assert worst <= bound * (1.0 + 1e-12)


OMEGA_CASES = {
    "disk": disk_scenario,
    "mirrored_disk": mirrored_disk_scenario,
    "drag": drag_scenario,
    "forced_disk": forced_disk_scenario,
    "fourier_contraction": fourier_contraction_scenario,
    **{path.name: (lambda path=path: sw.SweepingScenario.from_doc(json.loads(path.read_text())))
       for path in SCENARIO_FILES},
}


@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("name", OMEGA_CASES)
def test_omega_radius_bit_identical_to_scalar_norm_bounds(name, lam):
    # omega_region takes norm_bound over its grid as the rows of one call;
    # the radius is written with repr into periodic artifacts, so it must be
    # the one that one reference_norm_bound per grid time gives
    scn = OMEGA_CASES[name]()
    ts = np.linspace(0.0, scn.period, 256)
    drift = np.array([scn.drift_at(t, lam) for t in ts])
    values = np.array([reference_norm_bound(scn.body, a) for a in drift])
    assert np.array_equal(scn.body._norm_bound_rows(drift), values)
    slack = scn.drift.base_variations(ts)
    best = max(float(np.max(np.maximum(values[:-1], values[1:]) + slack)), values[-1])
    assert sw.omega_region(scn, lam).radius == best / (1.0 - scn.L2)


# --- audit -----------------------------------------------------------------------

def test_audit_zero_contraction():
    report = sw.lipschitz_audit(disk_scenario(), n_samples=1000, seed=3)
    assert report.L2_empirical == 0.0
    assert report.passed


def test_audit_measures_affine_operator_norm():
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
        contraction=sw.AffineContraction(0.3 * np.eye(2), np.zeros(2)),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
    )
    report = sw.lipschitz_audit(scn, n_samples=1500, seed=5)
    assert report.L2_empirical == pytest.approx(0.3, abs=1e-9)
    assert report.passed


def test_audit_deterministic_for_fixed_seed():
    a = sw.lipschitz_audit(forced_disk_scenario(), n_samples=1000, seed=11)
    b = sw.lipschitz_audit(forced_disk_scenario(), n_samples=1000, seed=11)
    assert a == b


class _FixedDraws:
    """Stands in for ``np.random.default_rng(seed)``: its one ``random``
    call returns a fixed block."""

    def __init__(self, block):
        self.block = block

    def random(self, shape):
        assert shape == self.block.shape
        return self.block.copy()


def test_audit_drops_degenerate_pairs(monkeypatch):
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
        contraction=sw.AffineContraction(np.array([[0.3, 0.1], [0.0, 0.2]]), np.zeros(2),
                                         coupling=LINEAR),
        force=sw.ForceSpec(-np.eye(2), np.zeros(2), (sw.TanhTerm(0.5, (0.6, 0.8), (0.1, 0.0)),)),
        period=1.0,
    )
    block = np.random.default_rng(7).random((1005, 6))
    degenerate = [3, 250, 251, 700, 1004]
    block[degenerate, 2:4] = block[degenerate, 0:2]      # y == x: a zero gap
    reports = []
    for draws in (block, np.delete(block, degenerate, axis=0)):
        monkeypatch.setattr(np.random, "default_rng", lambda seed, draws=draws: _FixedDraws(draws))
        reports.append(sw.lipschitz_audit(scn, n_samples=len(draws)))
    with_pairs, without = reports
    assert (with_pairs.samples_used, without.samples_used) == (1005, 1000)
    assert with_pairs.L2_empirical == without.L2_empirical > 0.0
    assert with_pairs.Lf_empirical == without.Lf_empirical > 0.0
    assert with_pairs.passed and without.passed


def test_audit_fails_when_declared_constant_too_small():
    scn = sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
        contraction=sw.AffineContraction(0.3 * np.eye(2), np.zeros(2), L2=0.1),
        force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=1.0,
    )
    report = sw.lipschitz_audit(scn, n_samples=1000, seed=0)
    assert not report.passed
    assert report.L2_empirical > 0.1


def test_audit_fails_when_variation_bound_under_reports(monkeypatch):
    scn = fourier_contraction_scenario()
    report = sw.lipschitz_audit(scn, n_samples=1000)
    assert report.passed
    assert report.var_a_empirical <= report.var_a_bound
    true_rows = type(scn.drift).base_variations
    # a drift that declares a third of its variation (specs are frozen, so
    # the method is patched on the class)
    monkeypatch.setattr(type(scn.drift), "base_variations",
                        lambda self, ts: true_rows(self, ts) / 3.0)
    report = sw.lipschitz_audit(scn, n_samples=1000)
    assert not report.passed
    assert report.var_a_empirical > report.var_a_bound


# --- scenario validation -----------------------------------------------------------

def test_scenario_rejects_outside_interior_point():
    with pytest.raises(ValueError):
        sw.SweepingScenario(
            dimension=2,
            body=sw.Ball((0.0, 0.0), 1.0),
            interior_point=(3.0, 0.0),
            drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT),
            contraction=sw.ZeroContraction(),
            force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
            period=1.0,
        )


def test_scenario_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        drag = drag_scenario()
        sw.SweepingScenario(
            dimension=2, body=drag.body, interior_point=(0, 0), drift=drag.drift,
            contraction=drag.contraction, force=drag.force, period=0.0,
        )


def scenario_in(d, contraction=None, force=None, period=1.0, L1=0.0):
    """A d-dimensional unit-ball scenario with the given parts, zero elsewhere."""
    return sw.SweepingScenario(
        dimension=d, body=sw.Ball(np.zeros(d), 1.0), interior_point=np.zeros(d),
        drift=sw.Fourier(np.zeros((0, d)), np.zeros((0, d)), 1.0),
        contraction=contraction or sw.ZeroContraction(),
        force=force or sw.ForceSpec(np.zeros((d, d)), np.zeros(d)), period=period, L1=L1)


FORCING_1D = sw.Fourier([[0.5]], [[0.2]], 1.0)


@pytest.mark.parametrize("build, match", [
    (lambda: scenario_in(3, sw.TanhRadialContraction(0.3, (0.5,))), "contraction dimension"),
    (lambda: scenario_in(3, sw.AffineContraction(0.3 * np.eye(1), (0.1,))), "contraction dimension"),
    (lambda: sw.AffineContraction(0.3 * np.eye(3), (0.1,)), "d x d"),
    (lambda: sw.AffineContraction(0.3 * np.eye(2), (0.1, 0.0, 0.0)), "d x d"),
    (lambda: sw.ForceSpec(np.eye(3), (0.0, 0.0)), "d x d"),
    (lambda: sw.ForceSpec(np.eye(2), (0.0, 0.0), [sw.TanhTerm(0.5, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))]),
     "tanh term dimension"),
    (lambda: sw.TanhTerm(0.5, (1.0, 0.0), (0.0, 0.0, 0.0)), "direction and center"),
    (lambda: sw.ForceSpec(np.eye(3), np.zeros(3), forcing=FORCING_1D), "forcing dimension"),
    (lambda: sw.ForceSpec(np.eye(2), np.zeros(2), forcing=FORCING_1D), "forcing dimension"),
], ids=["tanh-radial-centre", "affine-1d", "affine-offset-short", "affine-offset-long",
        "force-linear-part", "force-tanh-term", "tanh-term-centre", "forcing-in-3d", "forcing-in-2d"])
def test_catalog_part_of_the_wrong_dimension_rejected(build, match):
    # these parts used to broadcast off the plane, or crash at the first run on it
    with pytest.raises(ValueError, match=match):
        build()


def test_parts_of_dimension_zero_fit_any_scenario():
    assert sw.ZeroContraction().dim == 0
    zero_forcing = sw.Fourier([], [], 1.0)
    for d in (1, 3):
        scn = scenario_in(d, force=sw.ForceSpec(np.eye(d), np.zeros(d), forcing=zero_forcing))
        assert scn.contraction.dim == 0 and scn.force.forcing.dim == 0
    assert sw.contraction_fixed_point(sw.TanhRadialContraction(0.3, (0.5, 0.1, 0.0)), 1.0).shape == (3,)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: scenario_in(2, period=NAN),
    lambda: scenario_in(2, L1=NAN),
    lambda: sw.ForceSpec(np.eye(2), np.zeros(2), Lf=NAN),
    lambda: sw.Fourier([[0.1, 0.0]], [], NAN),
    lambda: sw.PiecewiseLinear([0.0, NAN, 1.0], [[0.0], [0.5], [0.0]]),
], ids=["period", "L1", "Lf", "fourier-period", "knot-times"])
def test_nan_rejected(build):
    # every range check is written so that NaN fails it
    with pytest.raises(ValueError):
        build()


INF = float("inf")
BOX_ROWS = [((1, 0), 1.0), ((0, 1), 1.0), ((-1, 0), 1.0), ((0, -1), 1.0)]


@pytest.mark.parametrize("build, match", [
    (lambda: sw.Ball((0, 0), NAN), "radius"),
    (lambda: sw.Ball((0, 0), INF), "radius"),
    (lambda: sw.HalfspacePolytope(BOX_ROWS, INF, (0, 0)), "bounding_radius"),
    (lambda: sw.HalfspacePolytope(BOX_ROWS[:3] + [((0, -1), INF)], 2.0, (0, 0)), "finite"),
    (lambda: sw.Ellipsoid((0, 0), [[1.0, 0.0], [0.0, INF]]), "finite"),
    (lambda: sw.AffineContraction([[0.5, INF], [0.0, 0.5]], (0.0, 0.0), L2=0.5), "finite"),
    (lambda: sw.ForceSpec([[INF, 0.0], [0.0, 0.0]], (0.0, 0.0), Lf=1.0), "finite"),
    (lambda: sw.ForceSpec(np.eye(2), np.zeros(2), Lf=INF), "Lf"),
    (lambda: sw.TanhTerm(NAN, (1.0, 0.0), (0.0, 0.0)), "gain"),
    (lambda: sw.TanhTerm(INF, (1.0, 0.0), (0.0, 0.0)), "gain"),
    (lambda: sw.TanhRadialContraction(INF, (0.0, 0.0), L2=0.5), "gain"),
    (lambda: sw.Fourier([[0.1, INF]], [], 1.0), "finite"),
    (lambda: sw.Fourier([[0.1, 0.0]], [], INF), "period"),
    (lambda: sw.PiecewiseLinear([0.0, 1.0], [[0.0], [INF]]), "finite"),
    (lambda: sw.SqrtCusp((1.0, 0.0), INF), "cusp_time"),
    (lambda: scenario_in(2, period=INF), "period"),
    (lambda: scenario_in(2, L1=INF), "L1"),
], ids=["ball-radius-nan", "ball-radius-inf", "polytope-bounding-radius", "polytope-offset",
        "ellipsoid-matrix", "affine-matrix", "force-linear-part", "force-lf", "tanh-term-gain-nan",
        "tanh-term-gain-inf", "tanh-radial-gain", "fourier-coefficient", "fourier-period",
        "piecewise-linear-value", "cusp-time", "scenario-period", "scenario-l1"])
def test_non_finite_rejected(build, match):
    # the codec rejects these with field paths; the constructors reject them too
    with pytest.raises(ValueError, match=match):
        build()


def test_declared_l2_range_enforced():
    with pytest.raises(ValueError):
        sw.AffineContraction(1.5 * np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        sw.AffineContraction(0.5 * np.eye(2), np.zeros(2), L2=1.2)


def test_fixed_point_diverges_for_invalid_declared_l2():
    spec = sw.AffineContraction(0.5 * np.eye(2), (1.0, 0.0))
    object.__setattr__(spec, "matrix", 1.5 * np.eye(2))   # break the invariant past the frozen field
    with pytest.raises(NonConvergence) as err:
        sw.contraction_fixed_point(spec, 0.0, dim=2)
    # the a-priori rule at a first move of 1, L2 = 0.5 + 1e-12 and tol 1e-12
    assert err.value.budget == 43
    assert np.isfinite(err.value.residual)
