import dataclasses
import math

import numpy as np
import pytest

import sweepsim as sw
from sweepsim import equilibrium
from sweepsim.equilibrium import CONVENTION_NOTE
from sweepsim.errors import (
    AmbiguousZeroMode,
    DegenerateGradient,
    NonSmoothBody,
    NotAutonomous,
    NotFound,
)
from sweepsim.presets import disk_scenario, forced_disk_scenario
from sweepsim.scenario import vanishes_at_lambda_zero

from conftest import random_body
from oracles import ranked_seeds


def rotation_scenario():
    """Force tangential everywhere on the circle: no switched equilibrium."""
    return sw.SweepingScenario(
        dimension=2,
        body=sw.Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=sw.Fourier(np.zeros((0, 2)), np.zeros((0, 2)), 1.0, "constant"),
        contraction=sw.ZeroContraction(),
        force=sw.ForceSpec(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2)),
        period=1.0,
        L1=4.0,
    )


def tilted_ellipse_scenario():
    """Ellipse of semi-axes 2 and 1 with an affine pull toward (3, 0) plus a
    tanh term: the equilibrium sits off the axes."""
    disk = disk_scenario()
    return sw.SweepingScenario(
        dimension=2,
        body=sw.Ellipsoid((0.0, 0.0), np.diag([4.0, 1.0])),
        interior_point=(0.0, 0.0),
        drift=disk.drift,
        contraction=disk.contraction,
        force=sw.ForceSpec(np.eye(2), (-3.0, 0.0), (sw.TanhTerm(0.3, (0.0, 1.0), (2.0, 0.2)),)),
        period=1.0,
        L1=8.0,
    )


def field(scn):
    """The autonomous force field f0 the analysis reads: the force at t = 0, lambda = 0."""
    return lambda x: scn.force_at(0.0, x, 0.0)


# --- boundary oracle -----------------------------------------------------------

def test_ball_oracle_values():
    oracle = sw.boundary_oracle(sw.Ball((0.0, 0.0), 1.0))
    assert oracle.h((1.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(oracle.grad_h((1.0, 0.0)), (2.0, 0.0))
    assert oracle.h((2.0, 0.0)) == pytest.approx(3.0)


def test_ellipsoid_oracle_boundary_point():
    oracle = sw.boundary_oracle(sw.Ellipsoid((0.0, 0.0), np.diag([4.0, 1.0])))
    assert oracle.h((2.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert oracle.h((0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_oracle_rejects_nonsmooth_bodies():
    with pytest.raises(NonSmoothBody):
        sw.boundary_oracle(sw.Box((-1, -1), (1, 1)))


@pytest.mark.parametrize("kind", ["ball", "ellipsoid"])
@pytest.mark.parametrize("d", [2, 3])
def test_smooth_boundary_is_the_zero_set_of_its_level_function(rng, kind, d):
    for _ in range(5):
        body = random_body(rng, dims=(d,), kinds=(kind,))
        oracle = sw.boundary_oracle(body)
        scale = -oracle.h(body.center)      # h < 0 at the centre: -r^2, or -1 for an ellipsoid
        assert scale > 0.0
        directions = rng.normal(0.0, 1.0, (16, d))
        far = body.center + 10.0 * directions / np.linalg.norm(directions, axis=1)[:, None]
        feet = np.array([body.project(p) for p in far])
        for x in feet:
            assert abs(oracle.h(x)) <= 1e-12 * scale
            # h is quadratic, so its central differences are exact up to rounding
            step = 1e-5 * math.sqrt(scale)
            diffs = [(oracle.h(x + step * e) - oracle.h(x - step * e)) / (2.0 * step) for e in np.eye(d)]
            assert np.allclose(oracle.grad_h(x), diffs, rtol=1e-7, atol=1e-7 * math.sqrt(scale))
        # the seed scan takes the gradient on a row stack: each row as on its own point
        level = equilibrium._boundary_oracle(body)
        rows = np.concatenate((feet, far, body.center[None, :]))
        assert level.grad_h(rows).tobytes() == np.array([level.grad_h(x) for x in rows]).tobytes()


SQUARE_ROWS = [((1.0, 0.0), 1.0), ((-1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((0.0, -1.0), 1.0)]


@pytest.mark.parametrize("body", [sw.Box((-1.0, -1.0), (1.0, 1.0)),
                                  sw.HalfspacePolytope(SQUARE_ROWS, 2.0, (0.0, 0.0))],
                         ids=["box", "polytope"])
def test_every_entry_point_refuses_a_body_with_corners(body):
    # the disk scenario's force pulls toward (2, 0), so only the body is wrong
    scn = dataclasses.replace(disk_scenario(), body=body)
    message = f"^{type(body).__name__} has no smooth boundary oracle$"
    entry_points = [
        lambda: sw.boundary_oracle(body),
        lambda: sw.sliding_field(body, field(scn), (1.0, 0.0)),
        lambda: sw.find_switched_equilibrium(scn, (1.0, 0.0)),
        lambda: sw.analyze_equilibrium(scn),
        lambda: sw.analyze_equilibrium(scn, seed=(1.0, 0.0)),
    ]
    for call in entry_points:
        with pytest.raises(NonSmoothBody, match=message):
            call()


# --- switched equilibrium -------------------------------------------------------

def test_disk_equilibrium_hand_values():
    x0, alpha = sw.find_switched_equilibrium(disk_scenario(), (0.9, 0.1))
    assert np.linalg.norm(x0 - (1.0, 0.0)) <= 1e-9
    assert alpha == pytest.approx(-2.0, abs=1e-9)


def test_mirrored_equilibrium_by_symmetry():
    x0, alpha = sw.find_switched_equilibrium(disk_scenario(target=(-2.0, 0.0)), (-0.9, 0.0))
    assert np.linalg.norm(x0 - (-1.0, 0.0)) <= 1e-9
    assert alpha == pytest.approx(-2.0, abs=1e-9)


def test_tangent_force_never_silently_accepted():
    with pytest.raises(NotFound):     # WrongSign included
        sw.find_switched_equilibrium(rotation_scenario(), (0.9, 0.1))


def test_nonautonomous_scenario_rejected():
    from sweepsim.presets import fourier_contraction_scenario
    with pytest.raises(ValueError):
        sw.find_switched_equilibrium(fourier_contraction_scenario(), (0.9, 0.1))


THIRD = np.array([[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]])     # sin(6 pi t) is 0 at t = k / 6


@pytest.mark.parametrize("coupling", ["constant", "linear"])
@pytest.mark.parametrize("part", ["drift", "forcing", "contraction"])
def test_autonomy_is_exact_at_lambda_zero(part, coupling):
    # a constant-coupled third harmonic or contraction is rejected; the same
    # part coupled linearly vanishes at lambda = 0 and is accepted
    disk = disk_scenario()
    parts = {
        "drift": {"drift": sw.Fourier(np.zeros((0, 2)), THIRD, 1.0, coupling)},
        "forcing": {"force": dataclasses.replace(disk.force, forcing=sw.Fourier([], THIRD, 1.0, coupling))},
        "contraction": {"contraction": sw.TanhRadialContraction(0.3, (0.0, 0.0), coupling=coupling)},
    }
    scn = dataclasses.replace(disk, **parts[part])
    if coupling == "linear":
        assert np.array_equal(scn.force_at(0.0, (0.5, 0.2), 0.0), disk.force_at(0.0, (0.5, 0.2), 0.0))
        x0, alpha = sw.find_switched_equilibrium(scn, (0.9, 0.1))
        want = sw.find_switched_equilibrium(disk, (0.9, 0.1))
        assert (x0.tobytes(), alpha.hex()) == (want[0].tobytes(), want[1].hex())
        return
    with pytest.raises(NotAutonomous, match={"drift": "drift does not vanish",
                                             "forcing": "force is time-dependent",
                                             "contraction": "contraction does not vanish"}[part]):
        sw.find_switched_equilibrium(scn, (0.9, 0.1))


@pytest.mark.parametrize("part", [
    sw.Fourier(np.zeros((3, 2)), np.zeros((3, 2)), 1.0),
    sw.PiecewiseLinear([0.0, 1.0], np.zeros((2, 2))),
    sw.SqrtCusp((0.0, 0.0), 0.5),
    sw.ZeroContraction(),
    sw.AffineContraction(np.zeros((2, 2)), np.zeros(2), L2=0.5),
    sw.TanhRadialContraction(0.0, (1.0, 1.0), L2=0.5),
], ids=["fourier", "piecewise_linear", "sqrt_cusp", "zero", "affine", "tanh_radial"])
def test_zero_maps_vanish_at_lambda_zero_under_constant_coupling(part):
    assert vanishes_at_lambda_zero(part)


# --- sliding field ---------------------------------------------------------------

def test_sliding_field_vanishes_at_equilibrium():
    scn = disk_scenario()
    f0 = field(scn)
    assert np.allclose(sw.sliding_field(scn.body, f0, (1.0, 0.0)), (0.0, 0.0), atol=1e-14)


def test_sliding_field_hand_value_at_top():
    scn = disk_scenario()
    f0 = field(scn)
    # f0((0,1)) = (-2, 1); normal component (0, 1); tangential remainder (-2, 0)
    assert np.allclose(sw.sliding_field(scn.body, f0, (0.0, 1.0)), (-2.0, 0.0), atol=1e-12)


def test_radial_force_has_zero_sliding_field(rng):
    body = sw.Ball((0.0, 0.0), 1.0)
    f0 = lambda x: np.asarray(x, dtype=float)     # parallel to the gradient
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(theta), np.sin(theta)])
        assert np.linalg.norm(sw.sliding_field(body, f0, x)) <= 1e-12


def test_sliding_field_tangency_property(rng):
    scn = disk_scenario()
    f0 = field(scn)
    oracle = sw.boundary_oracle(scn.body)
    for _ in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(theta), np.sin(theta)])
        fbar = sw.sliding_field(scn.body, f0, x)
        assert abs(float(fbar @ oracle.grad_h(x))) <= 1e-10


def test_sliding_field_at_the_centre_has_no_normal():
    # the ball's boundary gradient 2 (x - c) vanishes at its centre
    f0 = field(disk_scenario())
    with pytest.raises(DegenerateGradient):
        sw.sliding_field(sw.Ball((0, 0), 1.0), f0, (0, 0))


# --- sliding jacobian -------------------------------------------------------------

def sliding_jacobian(body, f0, x0, h):
    """The analysis's central-difference Jacobian of the sliding flow
    ``-(tangential force)`` at x0, built as ``analyze_equilibrium`` builds it."""
    return equilibrium._sliding_jacobian(equilibrium._boundary_oracle(body), f0,
                                         np.asarray(x0, dtype=float), h)


def test_jacobian_eigenvalues_disk():
    scn = disk_scenario()
    f0 = field(scn)
    jac = sliding_jacobian(scn.body, f0, (1.0, 0.0), 1e-5)
    eigs = sorted(np.linalg.eigvals(jac).real)
    assert eigs[0] == pytest.approx(-2.0, abs=1e-3)
    assert abs(eigs[1]) <= 1e-4


def test_jacobian_scales_with_force():
    scn = disk_scenario()
    f0 = field(scn)
    f3 = lambda x: 3.0 * f0(x)
    jac1 = sliding_jacobian(scn.body, f0, (1.0, 0.0), 1e-5)
    jac3 = sliding_jacobian(scn.body, f3, (1.0, 0.0), 1e-5)
    e1 = min(np.linalg.eigvals(jac1).real)
    e3 = min(np.linalg.eigvals(jac3).real)
    assert e3 == pytest.approx(3.0 * e1, rel=1e-4)


def test_jacobian_fd_step_refinement():
    scn = disk_scenario()
    f0 = field(scn)
    e = []
    for h in (1e-5, 5e-6):
        jac = sliding_jacobian(scn.body, f0, (1.0, 0.0), h)
        e.append(min(np.linalg.eigvals(jac).real))
    assert abs(e[0] - e[1]) <= 1e-6


def test_structural_zero_always_present(rng):
    scn = disk_scenario()
    f0 = field(scn)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(theta), np.sin(theta)])
        jac = sliding_jacobian(scn.body, f0, x, 1e-5)
        fd_noise = 1e-4 * np.linalg.norm(jac, 2)
        assert min(abs(np.linalg.eigvals(jac))) <= fd_noise


# --- verdict --------------------------------------------------------------------

def test_verdict_stable():
    v = sw.stability_verdict(np.diag([-2.0, 3e-9]), 1e-6)
    assert v.verdict == sw.STABLE
    assert v.zero_mode_index == 1


def test_verdict_unstable_from_reversed_field():
    scn = disk_scenario()
    f0 = field(scn)
    reversed_field = lambda x: -f0(x)
    jac = sliding_jacobian(scn.body, reversed_field, (1.0, 0.0), 1e-5)
    fd_noise = 1e-4 * np.linalg.norm(jac, 2)
    v = sw.stability_verdict(jac, fd_noise)
    assert v.verdict == sw.UNSTABLE
    assert max(ev.real for ev in v.eigenvalues) == pytest.approx(2.0, abs=1e-3)


def test_verdict_ambiguous_zero_mode():
    with pytest.raises(AmbiguousZeroMode):
        sw.stability_verdict(np.diag([1e-8, 2e-9]), 1e-6)


def test_verdict_marginal():
    # complex pair with near-zero real part: magnitudes clear the noise floor
    # so the zero mode is unambiguous, but the real parts are undecidable
    jac = np.array([[-5e-7, 1.0, 0.0], [-1.0, -5e-7, 0.0], [0.0, 0.0, 1e-9]])
    v = sw.stability_verdict(jac, 1e-6)
    assert v.verdict == sw.MARGINAL


# --- full pipeline ------------------------------------------------------------------

def test_analyze_equilibrium_report():
    report = sw.analyze_equilibrium(disk_scenario())
    assert np.linalg.norm(report.x0 - (1.0, 0.0)) <= 1e-8
    assert report.alpha == pytest.approx(-2.0, abs=1e-6)
    assert report.verdict == sw.STABLE
    assert report.convention_note == CONVENTION_NOTE
    nonzero = [ev for i, ev in enumerate(report.sliding_eigenvalues)
               if i != report.zero_mode_index]
    assert nonzero[0].real == pytest.approx(-2.0, abs=1e-3)


def test_analyze_equilibrium_auto_seed_matches_explicit():
    auto = sw.analyze_equilibrium(disk_scenario())
    explicit = sw.analyze_equilibrium(disk_scenario(), seed=(0.9, 0.1))
    assert np.linalg.norm(auto.x0 - explicit.x0) <= 1e-9


# --- consistency with the integrator ---------------------------------------------

def test_boundary_starts_converge_to_equilibrium():
    # horizon 10 * |1 / Re(lambda_max)| = 5 for the disk's tangential rate -2
    scn = disk_scenario(period=5.0)
    x0 = np.array([1.0, 0.0])
    thetas = np.linspace(-0.0995, 0.0995, 20)
    for theta in thetas:
        start = np.array([np.cos(theta), np.sin(theta)])
        assert np.linalg.norm(start - x0) <= 0.1
        traj = sw.run(scn, 0.0, start, 2048)
        assert np.linalg.norm(traj.x_nodes[-1] - x0) <= 1e-3
        # sliding keeps the state on the boundary the whole way
        radii = np.linalg.norm(traj.x_nodes, axis=1)
        assert float(np.max(np.abs(radii - 1.0))) <= 1e-6


def test_interior_starts_reach_boundary_in_finite_time():
    scn = disk_scenario(period=5.0)
    for start in ([0.95, 0.02], [0.9, -0.05], [0.85, 0.0]):
        traj = sw.run(scn, 0.0, start, 2048)
        radii = np.linalg.norm(traj.x_nodes, axis=1)
        hit = np.nonzero(np.abs(radii - 1.0) <= 1e-6)[0]
        assert hit.size > 0
        assert hit[0] < traj.n   # strictly before the horizon ends


# --- one oracle and one field per analysis -----------------------------------------

@pytest.mark.parametrize("make", [disk_scenario, forced_disk_scenario, tilted_ellipse_scenario])
def test_autonomous_field_is_the_force_at_time_zero_bit_for_bit(rng, make):
    # the field the analysis builds once, on float points
    scn = make()
    f0 = sw.equilibrium._autonomous_field(scn)
    for x in rng.normal(0.0, 2.0, (200, 2)):
        assert f0(x).tobytes() == scn.force_at(0.0, x, 0.0).tobytes()


def test_analysis_builds_its_oracle_and_field_once(monkeypatch):
    # the public boundary_oracle calls its private builder once, so a rebuild
    # through it shows here too
    calls = {"_boundary_oracle": 0, "_autonomous_field": 0}
    for name in calls:
        def counted(arg, _name=name, _original=getattr(sw.equilibrium, name)):
            calls[_name] += 1
            return _original(arg)
        monkeypatch.setattr(sw.equilibrium, name, counted)
    sw.analyze_equilibrium(disk_scenario())
    assert calls == {"_boundary_oracle": 1, "_autonomous_field": 1}


@pytest.mark.parametrize("make, seed", [(disk_scenario, (0.9, 0.1)),
                                        (forced_disk_scenario, (1.5, 0.5)),
                                        (tilted_ellipse_scenario, (1.5, 0.5))])
def test_report_is_the_composition_of_the_public_steps(make, seed):
    scn = make()
    report = sw.analyze_equilibrium(scn, seed=seed)
    x0, alpha = sw.find_switched_equilibrium(scn, seed)
    h = 1e-5 * (1.0 + float(np.linalg.norm(x0)))
    jac = sliding_jacobian(scn.body, field(scn), x0, h)
    verdict = sw.stability_verdict(jac, 1e-4 * float(np.linalg.norm(jac, 2)))
    assert report.x0.tobytes() == x0.tobytes()
    assert report.alpha.hex() == alpha.hex()
    assert report.fd_step.hex() == h.hex()
    assert np.array(report.sliding_eigenvalues).tobytes() == np.array(verdict.eigenvalues).tobytes()
    assert (report.zero_mode_index, report.verdict) == (verdict.zero_mode_index, verdict.verdict)


def test_tilted_ellipse_report_keeps_its_bits():
    # values written by the analysis before it shared its oracle and field.
    # The eigenvalues come from LAPACK's eigensolver, whose last bits may vary
    # with the library build: the stable one is checked to 1e-12 and the
    # structural zero only against the noise floor the verdict uses.
    report = sw.analyze_equilibrium(tilted_ellipse_scenario())
    assert [v.hex() for v in report.x0.tolist()] == ["0x1.ffeac6079cff3p+0", "0x1.26d9955637ab0p-6"]
    assert report.alpha.hex() == "-0x1.ffc0575e16978p-1"
    assert report.fd_step.hex() == "0x1.f74695fb77747p-16"
    assert report.verdict == sw.equilibrium.STABLE
    jac = sliding_jacobian(tilted_ellipse_scenario().body,
                           field(tilted_ellipse_scenario()), report.x0,
                           report.fd_step)
    fd_noise = 1e-4 * float(np.linalg.norm(jac, 2))
    zero = report.sliding_eigenvalues[report.zero_mode_index]
    (rest,) = [ev for i, ev in enumerate(report.sliding_eigenvalues) if i != report.zero_mode_index]
    assert abs(zero) <= fd_noise
    assert complex(rest).real == pytest.approx(float.fromhex("-0x1.a4fbb6b91c810p+1"), rel=1e-12)
    assert complex(rest).imag == 0.0


def test_public_oracle_and_field_validate_their_point():
    scn = tilted_ellipse_scenario()
    oracle = sw.boundary_oracle(scn.body)
    for func in (oracle.h, oracle.grad_h):
        with pytest.raises(ValueError, match="non-finite"):
            func((np.nan, 0.0))
        flat = np.array([1.5, 0.5])
        assert np.array_equal(func(flat.reshape(1, 2)), func(flat))
        assert np.array_equal(func((1.5, 0.5)), func(flat))


@pytest.mark.parametrize("point", [(1.5,), (1.5, 0.5, 0.0)], ids=["1-entry", "3-entry"])
def test_wrong_dimension_point_rejected(point):
    # a 1-entry point used to broadcast: the disk's oracle h((2,)) read 7.0
    scn = disk_scenario()
    oracle = sw.boundary_oracle(scn.body)
    for call in (oracle.h, oracle.grad_h, lambda x: sw.sliding_field(scn.body, field(scn), x),
                 lambda x: sw.find_switched_equilibrium(scn, x),
                 lambda x: sw.analyze_equilibrium(scn, seed=x)):
        with pytest.raises(ValueError, match=f"has {len(point)} entries; the scenario has dimension 2"):
            call(point)


def test_non_finite_seed_is_rejected():
    scn = disk_scenario()
    with pytest.raises(ValueError, match="non-finite"):
        sw.analyze_equilibrium(scn, seed=(np.nan, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        sw.find_switched_equilibrium(scn, (np.inf, 0.0))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tol_is_rejected_before_newton(monkeypatch, tol):
    # at 0 or below, NaN or inf, Newton would run to its budget or stop at once
    def no_newton(*args):
        raise AssertionError("a rejected tol must start no Newton solve")

    monkeypatch.setattr(equilibrium, "_newton", no_newton)
    scn = disk_scenario()
    with pytest.raises(ValueError, match=r"^tol=.* must be positive and finite"):
        sw.find_switched_equilibrium(scn, (1.0, 0.0), tol=tol)
    with pytest.raises(ValueError, match=r"^tol=.* must be positive and finite"):
        sw.analyze_equilibrium(scn, tol=tol)


# --- the ranked seeds -----------------------------------------------------------------

def random_smooth_scenario(rng):
    """A ball or ellipsoid in d = 2 or 3 under an affine force, with a tanh
    term half of the time; autonomous, so the analysis accepts it."""
    d = int(rng.integers(2, 4))
    body = random_body(rng, dims=(d,), kinds=("ball", "ellipsoid"))
    terms = ()
    if rng.random() < 0.5:
        terms = (sw.TanhTerm(rng.normal(), rng.normal(0, 1, d), rng.normal(0, 1, d)),)
    return sw.SweepingScenario(
        dimension=d,
        body=body,
        interior_point=body.center,
        drift=sw.Fourier(np.zeros((0, d)), np.zeros((0, d)), 1.0, "constant"),
        contraction=sw.ZeroContraction(),
        force=sw.ForceSpec(rng.normal(0, 1, (d, d)), rng.normal(0, 2, d), terms),
        period=1.0,
    )


def tried_seeds(monkeypatch, scn):
    """The seeds ``analyze_equilibrium`` hands Newton, in order, when every
    try fails."""
    tried = []

    def failing_newton(oracle, f0, x, tol):
        tried.append(x)
        raise NotFound("refused, so that every seed is tried")

    monkeypatch.setattr(equilibrium, "_newton", failing_newton)
    with pytest.raises(NotFound):
        sw.analyze_equilibrium(scn)
    return tried


def test_auto_seeds_are_the_per_direction_ranking(monkeypatch):
    # the stacked force and gradient round apart from the per-point ones;
    # that may only ever reorder misfits within rounding of each other, so
    # the seeds must be the oracle's in value, bit for bit, and in order
    rngs = [np.random.default_rng(seed) for seed in range(200)]
    scenarios = [disk_scenario(), forced_disk_scenario(), tilted_ellipse_scenario(),
                 rotation_scenario()] + [random_smooth_scenario(rng) for rng in rngs]
    kinds = set()
    for scn in scenarios:
        kinds.add((type(scn.body).__name__, scn.dimension, len(scn.force.tanh_terms)))
        want = ranked_seeds(scn)[:5]
        got = tried_seeds(monkeypatch, scn)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert kinds == {(body, d, terms) for body in ("Ball", "Ellipsoid")
                     for d in (2, 3) for terms in (0, 1)}


@pytest.mark.parametrize("make", [disk_scenario, forced_disk_scenario])
def test_auto_seeded_disk_reports_keep_their_bits(make):
    # values written by the per-direction ranking; LAPACK's last bits are
    # not pinned, as in test_tilted_ellipse_report_keeps_its_bits
    report = sw.analyze_equilibrium(make())
    assert [v.hex() for v in report.x0.tolist()] == ["0x1.0000000000000p+0", "0x0.0p+0"]
    assert report.alpha.hex() == "-0x1.0000000000000p+1"
    assert report.fd_step.hex() == "0x1.4f8b588e368f1p-16"
    assert (report.verdict, report.zero_mode_index) == (sw.equilibrium.STABLE, 0)
    zero, rest = report.sliding_eigenvalues
    assert abs(zero) <= 1e-12
    assert complex(rest).real == pytest.approx(float.fromhex("-0x1.fffffffc90641p+0"), rel=1e-12)
    assert complex(rest).imag == 0.0


def test_zero_force_has_no_seed_direction():
    scn = dataclasses.replace(disk_scenario(), force=sw.ForceSpec(np.zeros((2, 2)), np.zeros(2)))
    with pytest.raises(NotFound, match="^no boundary direction with inward-normal force$"):
        sw.analyze_equilibrium(scn)


def tangent_at_first_direction(tau):
    """f(x) = x - (1, 0) + (0, tau) on the unit disk: direction 0 projects to
    exactly (1, 0), where f = (0, tau) is tangent and alpha is exactly 0."""
    return dataclasses.replace(disk_scenario(), force=sw.ForceSpec(np.eye(2), (-1.0, tau)))


def test_seed_scan_skips_a_direction_at_alpha_zero(monkeypatch):
    # only alpha < 0 qualifies: at tau = 0.1 two directions do, and the
    # tangent one at (1, 0) is not tried, though fewer than five qualify
    tried = tried_seeds(monkeypatch, tangent_at_first_direction(0.1))
    assert [x.tolist() for x in tried] == [[0.9910694127331615, -0.13334698776030293],
                                           [0.998695384655528, -0.051063966431791084]]


def test_seed_scan_with_only_alpha_zero_has_no_direction():
    with pytest.raises(NotFound, match="^no boundary direction with inward-normal force$"):
        sw.analyze_equilibrium(tangent_at_first_direction(0.02))


def test_rotation_raises_the_last_seeds_error(monkeypatch):
    # the force is tangent to the circle, so every try fails; the analysis
    # stops after the best five and raises the last one's error
    scn = rotation_scenario()
    candidates = ranked_seeds(scn)
    errors = []

    def newton(*args, _newton=equilibrium._newton):
        try:
            return _newton(*args)
        except NotFound as err:
            errors.append(err)
            raise

    monkeypatch.setattr(equilibrium, "_newton", newton)
    with pytest.raises(NotFound) as caught:
        sw.analyze_equilibrium(scn)
    assert candidates
    assert len(errors) == min(5, len(candidates))
    assert caught.value is errors[-1]
