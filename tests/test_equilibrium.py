import numpy as np
import pytest

import sweepsim as sw
from sweepsim.equilibrium import CONVENTION_NOTE
from sweepsim.errors import AmbiguousZeroMode, NonSmoothBody, NotFound
from sweepsim.presets import disk_scenario, forced_disk_scenario, mirrored_disk_scenario


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


# --- switched equilibrium -------------------------------------------------------

def test_disk_equilibrium_hand_values():
    x0, alpha = sw.find_switched_equilibrium(disk_scenario(), (0.9, 0.1))
    assert np.linalg.norm(x0 - (1.0, 0.0)) <= 1e-9
    assert alpha == pytest.approx(-2.0, abs=1e-9)


def test_mirrored_equilibrium_by_symmetry():
    x0, alpha = sw.find_switched_equilibrium(mirrored_disk_scenario(), (-0.9, 0.0))
    assert np.linalg.norm(x0 - (-1.0, 0.0)) <= 1e-9
    assert alpha == pytest.approx(-2.0, abs=1e-9)


def test_tangent_force_never_silently_accepted():
    with pytest.raises(NotFound):     # WrongSign included
        sw.find_switched_equilibrium(rotation_scenario(), (0.9, 0.1))


def test_nonautonomous_scenario_rejected():
    from sweepsim.presets import fourier_contraction_scenario
    with pytest.raises(ValueError):
        sw.find_switched_equilibrium(fourier_contraction_scenario(), (0.9, 0.1))


# --- sliding field ---------------------------------------------------------------

def test_sliding_field_vanishes_at_equilibrium():
    scn = disk_scenario()
    f0 = sw.autonomous_field(scn)
    assert np.allclose(sw.sliding_field(scn.body, f0, (1.0, 0.0)), (0.0, 0.0), atol=1e-14)


def test_sliding_field_hand_value_at_top():
    scn = disk_scenario()
    f0 = sw.autonomous_field(scn)
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
    f0 = sw.autonomous_field(scn)
    oracle = sw.boundary_oracle(scn.body)
    for _ in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(theta), np.sin(theta)])
        fbar = sw.sliding_field(scn.body, f0, x)
        assert abs(float(fbar @ oracle.grad_h(x))) <= 1e-10


# --- sliding jacobian -------------------------------------------------------------

def test_jacobian_eigenvalues_disk():
    scn = disk_scenario()
    f0 = sw.autonomous_field(scn)
    jac = sw.sliding_jacobian(scn.body, f0, (1.0, 0.0), 1e-5)
    eigs = sorted(np.linalg.eigvals(jac).real)
    assert eigs[0] == pytest.approx(-2.0, abs=1e-3)
    assert abs(eigs[1]) <= 1e-4


def test_jacobian_scales_with_force():
    scn = disk_scenario()
    f0 = sw.autonomous_field(scn)
    f3 = lambda x: 3.0 * f0(x)
    jac1 = sw.sliding_jacobian(scn.body, f0, (1.0, 0.0), 1e-5)
    jac3 = sw.sliding_jacobian(scn.body, f3, (1.0, 0.0), 1e-5)
    e1 = min(np.linalg.eigvals(jac1).real)
    e3 = min(np.linalg.eigvals(jac3).real)
    assert e3 == pytest.approx(3.0 * e1, rel=1e-4)


def test_jacobian_fd_step_refinement():
    scn = disk_scenario()
    f0 = sw.autonomous_field(scn)
    e = []
    for h in (1e-5, 5e-6):
        jac = sw.sliding_jacobian(scn.body, f0, (1.0, 0.0), h)
        e.append(min(np.linalg.eigvals(jac).real))
    assert abs(e[0] - e[1]) <= 1e-6


def test_structural_zero_always_present(rng):
    scn = disk_scenario()
    f0 = sw.autonomous_field(scn)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(theta), np.sin(theta)])
        jac = sw.sliding_jacobian(scn.body, f0, x, 1e-5)
        fd_noise = 1e-4 * np.linalg.norm(jac, 2)
        assert min(abs(np.linalg.eigvals(jac))) <= fd_noise


# --- verdict --------------------------------------------------------------------

def test_verdict_stable():
    v = sw.stability_verdict(np.diag([-2.0, 3e-9]), 1e-6)
    assert v.verdict == sw.STABLE
    assert v.zero_mode_index == 1


def test_verdict_unstable_from_reversed_field():
    scn = disk_scenario()
    f0 = sw.autonomous_field(scn)
    reversed_field = lambda x: -f0(x)
    jac = sw.sliding_jacobian(scn.body, reversed_field, (1.0, 0.0), 1e-5)
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
    scn = make()
    f0 = sw.autonomous_field(scn)
    for x in rng.normal(0.0, 2.0, (200, 2)):
        assert f0(x).tobytes() == scn.force_at(0.0, x, 0.0).tobytes()


def test_analysis_builds_its_oracle_and_field_once(monkeypatch):
    # the public boundary_oracle and autonomous_field each call their private
    # builder once, so a rebuild through either shows here too
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
    jac = sw.sliding_jacobian(scn.body, sw.autonomous_field(scn), x0, h)
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
    jac = sw.sliding_jacobian(tilted_ellipse_scenario().body,
                              sw.autonomous_field(tilted_ellipse_scenario()), report.x0,
                              report.fd_step)
    fd_noise = 1e-4 * float(np.linalg.norm(jac, 2))
    zero = report.sliding_eigenvalues[report.zero_mode_index]
    (rest,) = [ev for i, ev in enumerate(report.sliding_eigenvalues) if i != report.zero_mode_index]
    assert abs(zero) <= fd_noise
    assert complex(rest).real == pytest.approx(float.fromhex("-0x1.a4fbb6b91c810p+1"), rel=1e-12)
    assert complex(rest).imag == 0.0


def test_public_oracle_and_field_validate_their_point():
    scn = tilted_ellipse_scenario()
    oracle, f0 = sw.boundary_oracle(scn.body), sw.autonomous_field(scn)
    for func in (oracle.h, oracle.grad_h, f0):
        with pytest.raises(ValueError, match="non-finite"):
            func((np.nan, 0.0))
        flat = np.array([1.5, 0.5])
        assert np.array_equal(func(flat.reshape(1, 2)), func(flat))
        assert np.array_equal(func((1.5, 0.5)), func(flat))


def test_non_finite_seed_is_rejected():
    scn = disk_scenario()
    with pytest.raises(ValueError, match="non-finite"):
        sw.analyze_equilibrium(scn, seed=(np.nan, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        sw.find_switched_equilibrium(scn, (np.inf, 0.0))
