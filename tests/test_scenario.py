import dataclasses
import itertools
import json
import math
import pathlib
import re
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
)
from sweepsim.scenario import CONSTANT, LINEAR

from conftest import random_body, reference_norm_bound

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


def disk_with(**parts):
    """The unit-disk scenario (period 1) around bare catalog specs, which the
    scenario's point maps then evaluate."""
    return dataclasses.replace(disk_scenario(), **parts)


def base_col(spec, x):
    """c(x) of a constant-coupled contraction spec: column 0 of ``base_cols``."""
    return spec.base_cols(np.asarray(x, dtype=float)[:, None])[:, 0]


# --- drift evaluation ---------------------------------------------------------

def test_fourier_all_zero_coefficients():
    scn = disk_with(drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT))
    for t in np.linspace(0, 1, 7):
        assert np.allclose(scn.drift_at(t, 0.3), (0, 0))


def test_fourier_reads_its_dimension_from_the_columns():
    assert sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0).dim == 2
    assert sw.Fourier([], [], 1.0).dim == 0
    assert sw.Fourier([], [[0.1, 0.2, 0.3]], 1.0).dim == 3
    for cos in (np.zeros((0, 2)), [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sw.Fourier(cos, [[0.1, 0.2, 0.3]], 1.0)


def test_dimension_zero_drift_gives_one_entry_per_coordinate():
    # a bare Fourier([], []) has one zero column whatever the scenario's d
    scn = disk_with(drift=sw.Fourier([], [], 1.0))
    for t, lam in ((0.0, 0.0), (0.3, 0.5), (1.0, 1.0)):
        a = scn.drift_at(t, lam)
        assert a.shape == (2,) and np.array_equal(a, (0.0, 0.0))
        assert scn.body.norm_bound(a) == 1.0


@pytest.mark.parametrize("preset", [disk_scenario, forced_disk_scenario])
def test_dimension_zero_piecewise_linear_drift_matches_fourier(preset):
    # values of shape (k, 0) used to give (n + 1, 0) drift nodes, which no
    # kernel could broadcast against the scenario's d coordinates
    base = preset()
    path = dataclasses.replace(
        base, drift=sw.PiecewiseLinear([0.0, base.period], np.zeros((2, 0))))
    fourier = dataclasses.replace(base, drift=sw.Fourier([], [], base.period))
    a, b = sw.run(path, 0.5, (1.5, 0.2), 16), sw.run(fourier, 0.5, (1.5, 0.2), 16)
    for name in ("times", "u_nodes", "x_nodes", "J_nodes", "iters", "increments", "bounds"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    Q = np.array([[1.5, 0.2], [0.0, -0.3], [-2.0, 1.0]])
    assert np.array_equal(sw.run_batch(path, 0.5, Q, 16), sw.run_batch(fourier, 0.5, Q, 16))
    wa, wb = sw.omega_region(path, 0.5), sw.omega_region(fourier, 0.5)
    assert np.array_equal(wa.center, wb.center) and wa.radius == wb.radius


@pytest.mark.parametrize("build, field", [
    (lambda: sw.SqrtCusp([], 0.5), "direction"),
    (lambda: sw.TanhRadialContraction(0.5, []), "center"),
], ids=["cusp-direction", "tanh-radial-center"])
def test_empty_cusp_direction_or_tanh_radial_center_rejected(build, field):
    # dimension 0 is for the zero maps; these two used to pass construction
    # and then crash run, run_batch and omega_region on a NumPy broadcast
    with pytest.raises(ValueError, match=f"^{field} needs at least one entry$"):
        build()


def test_piecewise_linear_interpolation():
    scn = disk_with(drift=sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]], CONSTANT))
    assert np.allclose(scn.drift_at(0.5, 0.0), (1.0, 0.0))


def test_sqrt_cusp_value():
    scn = disk_with(drift=sw.SqrtCusp((1.0, 0.0), 0.5, CONSTANT))
    assert np.allclose(scn.drift_at(0.75, 0.0), (0.5, 0.0))


def test_linear_coupling_vanishes_at_lambda_zero():
    drift = sw.Fourier([[1.0, 0.0]], [[0.0, 2.0]], 1.0, LINEAR)
    con = sw.AffineContraction(0.3 * np.eye(2), (0.5, 0.0), coupling=LINEAR)
    scn = disk_with(drift=drift, contraction=con)
    for t in np.linspace(0, 1, 5):
        assert np.linalg.norm(scn.drift_at(t, 0.0)) == 0.0
    for x in ([0.3, -1.0], [2.0, 2.0]):
        assert np.linalg.norm(scn.contraction_at(x, 0.0)) == 0.0
    assert np.allclose(scn.drift_at(0.25, 0.5), 0.5 * scn.drift_at(0.25, 1.0))


def test_piecewise_linear_out_of_range():
    spec = sw.PiecewiseLinear([0.0, 1.0], [[0.0], [1.0]], CONSTANT)
    with pytest.raises(TimeOutOfRange):
        spec.base_values(np.array([1.5]))


@pytest.mark.parametrize("call, error, match", [
    (lambda scn: scn.force_at(0.1, (0.5, 0.5), 3.0), ValueError, "lambda=3.0 outside"),
    (lambda scn: scn.drift_at(0.1, -0.5), ValueError, "lambda=-0.5 outside"),
    (lambda scn: scn.contraction_at((0.5, 0.5), 1.5), ValueError, "lambda=1.5 outside"),
    (lambda scn: scn.drift_at(float("nan"), 0.5), TimeOutOfRange, "t=nan outside"),
    (lambda scn: scn.force_at(float("nan"), (0.5, 0.5), 0.5), TimeOutOfRange, "t=nan outside"),
    (lambda scn: scn.force_at(1.5, (0.5, 0.5), 0.5), TimeOutOfRange, "t=1.5 outside"),
    (lambda scn: scn.force_at(-1e-9, (0.5, 0.5), 0.5), TimeOutOfRange, "outside"),
    (lambda scn: scn.force_at(float("inf"), (0.5, 0.5), 0.5), TimeOutOfRange, "t=inf outside"),
    (lambda scn: scn.force_at(0.1, (0.5,), 0.5), ValueError, "x has 1 entries"),
    (lambda scn: scn.contraction_at((0.5, 0.5, 0.5), 0.5), ValueError, "x has 3 entries"),
], ids=["force-lam", "drift-lam", "contraction-lam", "drift-nan-t", "force-nan-t", "force-late-t",
        "force-early-t", "force-inf-t", "force-short-x", "contraction-long-x"])
def test_point_maps_check_their_range(call, error, match):
    # the point maps hold lam to [0, 1], t to [0, T] and x to d entries, as
    # run does; forced_disk couples its forcing linearly, so force_at at
    # lam = 3 used to return three times the forcing
    with pytest.raises(error, match=match):
        call(forced_disk_scenario())


def test_point_maps_allow_the_time_slack():
    scn = forced_disk_scenario()
    for t in (-1e-13, scn.period + 1e-13):
        assert scn.drift_at(t, 0.5).shape == scn.force_at(t, (0.5, 0.5), 0.5).shape == (2,)


@pytest.mark.parametrize("make", [fourier_contraction_scenario, forced_disk_scenario])
def test_a_nan_time_is_out_of_range(make):
    # a NaN time used to pass the grid check: implicit_step then overflowed
    # with the contraction, or returned a point without one
    scn = make()
    with pytest.raises(TimeOutOfRange, match="outside"):
        sw.implicit_step(scn, 1.0, (0.5, 0.5), (0.0, 0.0), float("nan"))
    with pytest.raises(TimeOutOfRange, match="outside"):
        scn.resolve(0.5, np.array([0.0, float("nan"), scn.period]))


# --- variation bounds ----------------------------------------------------------

def test_variation_bound_zero_drift():
    spec = sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, CONSTANT)
    assert sw.drift_variation_bound(spec, 0.0, 1.0) == 0.0


def test_variation_bound_piecewise_path_length():
    spec = sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]], CONSTANT)
    assert sw.drift_variation_bound(spec, 0.0, 1.0) == pytest.approx(2.0)
    assert sw.drift_variation_bound(spec, 0.25, 0.75) == pytest.approx(1.0)


@pytest.mark.parametrize("s, t, first", [(-1.0, 0.0, -1.0), (-5.0, 5.0, -5.0),
                                         (0.5, 1.0 + 1e-9, 1.0 + 1e-9)])
def test_variation_bound_refuses_times_outside_the_knots(s, t, first):
    # the path is undefined there: the clamped growth (0 and 2 for the first
    # two) used to come back, where base_values refuses the same times
    spec = sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]], CONSTANT)
    with pytest.raises(TimeOutOfRange, match=re.escape(f"t={first} outside knot range [0.0, 1.0]")):
        sw.drift_variation_bound(spec, s, t)
    with pytest.raises(TimeOutOfRange, match=re.escape(f"t={first} outside knot range [0.0, 1.0]")):
        spec.base_values(np.array([s, t]))
    # inside the knots, within their 1e-12 slack, the growth comes back
    assert sw.drift_variation_bound(spec, -1e-13, 1.0 + 1e-13) == 2.0
    assert sw.drift_variation_bound(spec, 0.25, 0.75) == 1.0


def test_variation_bound_sqrt_cusp():
    spec = sw.SqrtCusp((1.0, 0.0), 0.0, CONSTANT)
    assert sw.drift_variation_bound(spec, 0.0, 0.25) == pytest.approx(0.5)
    spec2 = sw.SqrtCusp((1.0, 0.0), 0.5, CONSTANT)
    # across the cusp: down to zero and back up
    assert sw.drift_variation_bound(spec2, 0.25, 0.75) == pytest.approx(1.0)


@pytest.mark.parametrize("spec", [
    sw.Fourier([[0.4, 0.0]], [[0.0, 0.2]], 1.0, CONSTANT),
    sw.PiecewiseLinear([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]], CONSTANT),
    sw.SqrtCusp((1.0, 0.0), 0.5, CONSTANT),
])
@pytest.mark.parametrize("s, t", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan), (0.75, 0.25)])
def test_variation_bound_needs_ordered_times(spec, s, t):
    # a NaN end used to give a NaN bound, since only t < s was refused
    with pytest.raises(TimeOutOfRange, match="need s <= t"):
        sw.drift_variation_bound(spec, s, t)


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
            nxt = scn.contraction_at(xi, lam)
            if np.linalg.norm(nxt - xi) <= 1e-12:
                break
            xi = nxt
        assert sw.contraction_fixed_point(scn.contraction, lam, dim=3).tobytes() == nxt.tobytes()


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
    assert np.linalg.norm(base_col(spec, xi) - xi) <= 1e-12


@pytest.mark.parametrize("lam", [-0.5, 1.5, float("nan")])
def test_lambda_outside_unit_interval_refused_as_run_refuses_it(lam):
    # Omega's radius is an upper bound only for lam in [0, 1]
    scn = forced_disk_scenario()
    with pytest.raises(ValueError) as by_run:
        sw.run(scn, lam, (0.0, 0.0), 8)
    with pytest.raises(ValueError) as by_omega:
        sw.omega_region(scn, lam)
    with pytest.raises(ValueError) as by_fixed_point:
        sw.contraction_fixed_point(fourier_contraction_scenario().contraction, lam)
    assert str(by_run.value) == f"lambda={lam} outside [0, 1]"
    assert str(by_omega.value) == str(by_fixed_point.value) == str(by_run.value)


def test_fixed_point_picard_error_bound():
    # after k steps the Picard error obeys the geometric contraction estimate
    spec = sw.AffineContraction(0.5 * np.eye(2), (1.0, 0.0))
    L2, xi = 0.5, np.array([2.0, 0.0])
    x = np.zeros(2)
    for k in range(1, 20):
        x = base_col(spec, x)
        assert np.linalg.norm(x - xi) <= L2**k * np.linalg.norm(xi) / (1 - L2) + 1e-12


def test_force_affine_example():
    scn = disk_with(force=sw.ForceSpec(np.eye(2), (-2.0, 0.0)))
    assert np.allclose(scn.force_at(0.3, (1.0, 0.0), 0.7), (-1.0, 0.0))


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
    "mirrored_disk": lambda: disk_scenario(target=(-2.0, 0.0)),
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
    report = sw.lipschitz_audit(disk_scenario())
    assert report.L2_certified == 0.0
    assert report.Lf_certified == 1.0       # force x - (2, 0)
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
    report = sw.lipschitz_audit(scn)
    assert report.L2_certified == pytest.approx(0.3, abs=1e-15)
    assert report.Lf_certified == 0.0
    assert report.passed


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
    report = sw.lipschitz_audit(scn)
    assert not report.passed
    assert report.L2_certified > 0.1


def test_certified_constants_by_hand():
    # ||[[0.3, 0], [0.4, 0]]||_2 = 0.5; a tanh term adds |gain| ||direction||^2; a
    # linear coupling leaves the constant at lam = 1
    assert sw.AffineContraction([[0.3, 0.0], [0.4, 0.0]], (1.0, 2.0)).lipschitz == \
        pytest.approx(0.5, abs=1e-15)
    assert sw.TanhRadialContraction(-0.7, (0.0, 0.0), coupling=LINEAR).lipschitz == 0.7
    assert sw.ZeroContraction().lipschitz == 0.0
    force = sw.ForceSpec(np.zeros((2, 2)), np.zeros(2),
                         (sw.TanhTerm(-2.0, (3.0, 4.0), (0.0, 0.0)), sw.TanhTerm(0.5, (0.0, 1.0), (1.0, 1.0))),
                         sw.Fourier([], [[9.0, 9.0]], 1.0))
    assert force.lipschitz == 50.5


@pytest.mark.parametrize("spec, declared", [
    (sw.AffineContraction([[0.3, 0.1], [-0.2, 0.25]], (1.0, 2.0)), "L2"),
    (sw.TanhRadialContraction(-0.45, (0.1, 0.0)), "L2"),
    (sw.ForceSpec([[1.0, 0.5], [0.0, -1.0]], (0.0, 1.0), (sw.TanhTerm(0.3, (0.6, 0.8), (0.0, 0.0)),)), "Lf"),
], ids=["affine", "tanh_radial", "force"])
def test_sentinel_is_the_certified_constant(spec, declared):
    assert getattr(spec, declared) == spec.lipschitz + 1e-12


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
