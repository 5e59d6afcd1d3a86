"""``omega_region`` and ``moreau_residual`` evaluate the catalog on a whole
grid or a whole stack of states at once, through the array forms
(``base_values``, ``base_variations``, ``base_cols``, ``state_cols``).  The
public point API (``drift_at``, ``drift_variation_bound``, ``contraction_at``,
``force_at``) reads one row or one column of the same forms.  The invariant
ball must equal, bit for bit, the one built point by point, and
``moreau_residual`` must match the per-node loop over ``drift_at`` and
``contraction_at`` to rounding.

The catalog's bounds are checked against what the point API measures: the
drift's ``base_variations`` summed over a grid against the variation of the
drift's values there, and the certified constants of ``lipschitz_audit``
against the largest difference quotients of ``contraction_at`` and
``force_at`` on random pairs (``audit_scalar``).  The array forms themselves
are checked against closed forms in ``test_step_kernel.py`` and
``test_column_forms.py``."""

import json
import pathlib

import numpy as np
import pytest

import sweepsim as sw
from sweepsim.presets import (
    disk_scenario,
    drag_scenario,
    forced_disk_scenario,
    fourier_contraction_scenario,
)

from test_batch import TANH_FORCE, TANH_RADIAL, octagon, swept
from test_step_kernel import spatial

SCENARIOS = sorted((pathlib.Path(__file__).parent.parent / "demos" / "scenarios").glob("*.json"))


def omega_scalar(scn, lam, n_grid=256):
    """(center, radius) of the invariant ball from one scalar call per grid
    point and per grid interval."""
    ts = np.linspace(0.0, scn.period, max(n_grid, 256))
    values = np.array([scn.body.norm_bound(scn.drift_at(t, lam)) for t in ts])
    best = 0.0
    for i in range(len(ts) - 1):
        slack = sw.drift_variation_bound(scn.drift, ts[i], ts[i + 1])
        best = max(best, max(values[i], values[i + 1]) + slack)
    best = max(best, values[-1])
    return sw.contraction_fixed_point(scn.contraction, lam, dim=scn.dimension), best / (1.0 - scn.L2)


CASES = {
    "disk": disk_scenario(),
    "drag": drag_scenario(),
    "forced_disk": forced_disk_scenario(),
    "fourier_contraction": fourier_contraction_scenario(),
    **{path.stem + ".json": sw.SweepingScenario.from_doc(json.loads(path.read_text()))
       for path in SCENARIOS},
    "box": swept(body=sw.Box((-1.0, -0.8), (1.0, 0.8))),
    "ellipsoid": swept(body=sw.Ellipsoid((0.0, 0.0), [[1.2, 0.2], [0.2, 0.6]])),
    "polytope": swept(body=octagon()),
    "sqrt_cusp": swept(drift=sw.SqrtCusp((0.2, -0.1), 0.4, sw.LINEAR)),
    "narrow_knots": swept(drift=sw.PiecewiseLinear(
        [0.0, 0.3, 0.31, 0.7, 1.0], [[0, 0], [0.3, 0.1], [0.1, -0.4], [0.5, 0.2], [0, 0]],
        sw.LINEAR)),
}


@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("name", CASES)
def test_omega_region_matches_scalar_loop(name, lam):
    scn = CASES[name]
    omega = sw.omega_region(scn, lam)
    center, radius = omega_scalar(scn, lam)
    assert np.array_equal(omega.center, center)
    assert omega.radius == radius


@pytest.mark.parametrize("name", CASES)
def test_audit_variation_matches_scalar_loop(name):
    # the drift's variation bound, summed over a 2,048-point grid, covers the
    # variation the point API measures there, for every drift type
    scn = CASES[name]
    ts = np.linspace(0.0, scn.period, 2048)
    var, prev = 0.0, scn.drift_at(ts[0], 1.0)
    for t in ts[1:]:
        cur = scn.drift_at(t, 1.0)
        var += float(np.linalg.norm(cur - prev))
        prev = cur
    assert var <= float(np.sum(scn.drift.base_variations(ts))) * (1.0 + 1e-9)


def audit_scalar(scn, n_samples=2000, seed=0):
    """(L2, Lf) difference quotients from one ``contraction_at`` and
    ``force_at`` pair per sample, drawn with ``rng.uniform`` call by call."""
    rng = np.random.default_rng(seed)
    omega = sw.omega_region(scn, 0.0)
    radius = 2.0 * max(omega.radius, 1.0)
    l2 = lf = 0.0
    for _ in range(n_samples):
        x = omega.center + radius * rng.uniform(-1.0, 1.0, size=scn.dimension)
        y = omega.center + radius * rng.uniform(-1.0, 1.0, size=scn.dimension)
        gap = float(np.linalg.norm(x - y))
        if gap < 1e-9:
            continue
        lam = rng.random()
        t = rng.uniform(0.0, scn.period)
        dc = float(np.linalg.norm(scn.contraction_at(x, lam) - scn.contraction_at(y, lam)))
        df = float(np.linalg.norm(scn.force_at(t, x, lam) - scn.force_at(t, y, lam)))
        l2, lf = max(l2, dc / gap), max(lf, df / gap)
    return l2, lf


AUDIT_CASES = dict(CASES, mirrored_disk=disk_scenario(target=(-2.0, 0.0)),
                   tanh=swept(contraction=TANH_RADIAL, force=TANH_FORCE))


@pytest.mark.parametrize("name", AUDIT_CASES)
def test_audit_matches_scalar_loop(name):
    # every sampled quotient lies below the certified constant (to the rounding
    # of the quotient), and the declared constants pass the audit
    scn = AUDIT_CASES[name]
    l2, lf = audit_scalar(scn)
    report = sw.lipschitz_audit(scn)
    assert l2 <= report.L2_certified * (1.0 + 1e-12)
    assert lf <= report.Lf_certified * (1.0 + 1e-12)
    assert report.passed


def moreau_scalar(traj, scn, lam):
    """The energy-inequality slack of ``moreau_residual`` from one
    ``drift_at`` and ``contraction_at`` call per node, summed left to right."""
    total = 0.0
    for i in range(traj.n):
        J_lag = traj.J_nodes[i - 1] if i >= 1 else np.zeros(scn.dimension)
        phi = (scn.interior_point + scn.drift_at(traj.times[i], lam)
               + scn.contraction_at(traj.x_nodes[i], lam) + J_lag)
        total += float(phi @ (traj.u_nodes[i + 1] - traj.u_nodes[i]))
    u0 = float(traj.u_nodes[0] @ traj.u_nodes[0])
    un = float(traj.u_nodes[-1] @ traj.u_nodes[-1])
    return total - 0.5 * (un - u0)


MOREAU_CASES = {name: CASES[name] for name in CASES
                if name.endswith(".json") or name in ("disk", "drag", "forced_disk",
                                                      "fourier_contraction")}
MOREAU_CASES.update({"1d": spatial(1), "3d": spatial(3)})


@pytest.mark.parametrize("lam", [0.0, 0.6])
@pytest.mark.parametrize("name", MOREAU_CASES)
def test_moreau_residual_matches_node_loop(name, lam):
    scn = MOREAU_CASES[name]
    traj = sw.run(scn, lam, scn.interior_point + 0.3, 256)
    assert sw.moreau_residual(traj, scn, lam) == pytest.approx(
        moreau_scalar(traj, scn, lam), rel=1e-12, abs=0.0)
