"""``omega_region`` and ``lipschitz_audit`` read the drift through its array
forms (``base_values`` and ``base_variations``).  The invariant ball must
equal, bit for bit, the one built point by point from ``drift_at`` and
``drift_variation_bound``; the audit's measured variation sums in another
order, so it must match the scalar loop to rounding."""

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

from test_batch import octagon, swept

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
    return scn.fixed_point(lam), best / (1.0 - scn.L2)


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
    scn = CASES[name]
    ts = np.linspace(0.0, scn.period, 2048)
    var, prev = 0.0, sw.eval_drift(scn.drift, ts[0], 1.0)
    for t in ts[1:]:
        cur = sw.eval_drift(scn.drift, t, 1.0)
        var += float(np.linalg.norm(cur - prev))
        prev = cur
    report = sw.lipschitz_audit(scn, n_samples=1000)
    assert report.var_a_empirical == pytest.approx(var, rel=1e-12, abs=1e-300)
