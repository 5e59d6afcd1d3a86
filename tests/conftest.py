import math

import numpy as np
import pytest

import sweepsim as sw


def random_body(rng, dims=(1, 2, 3, 4), kinds=("ball", "box", "polytope")):
    """Random body from the catalog; polytopes carry explicit box rows so
    boundedness holds by construction."""
    d = int(rng.choice(dims))
    kind = rng.choice(kinds)
    if kind == "ball":
        return sw.Ball(rng.normal(0, 1, d), rng.uniform(0.1, 2.0))
    if kind == "box":
        a, b = rng.normal(0, 1, d), rng.normal(0, 1, d)
        return sw.Box(np.minimum(a, b), np.maximum(a, b))
    if kind == "ellipsoid":
        basis, _ = np.linalg.qr(rng.normal(0, 1, (d, d)))
        axes = rng.uniform(0.3, 2.0, d)
        return sw.Ellipsoid(rng.normal(0, 1, d), basis @ np.diag(axes**2) @ basis.T)
    pt = rng.normal(0, 0.5, d)
    rows = []
    for _ in range(int(rng.integers(3, 7))):
        n = rng.normal(0, 1, d)
        n /= np.linalg.norm(n)
        rows.append((n, float(n @ pt) + rng.uniform(0.1, 1.0)))
    reach = 3.0 + float(np.linalg.norm(pt))
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        rows.append((e, reach))
        rows.append((-e, reach))
    return sw.HalfspacePolytope(rows, reach * np.sqrt(d) + 1.0, pt)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def reference_norm_bound(body, shift):
    """``norm_bound`` written out on one shift with ``np.linalg.norm``, as the
    scalar formulas read before the row forms: ``omega_region`` writes the
    radius with ``repr``, so the row forms must give these values bit for
    bit."""
    if isinstance(body, sw.Ball):
        return float(np.linalg.norm(body.center + shift)) + body.radius
    if isinstance(body, sw.Ellipsoid):
        return float(np.linalg.norm(body.center + shift)) + math.sqrt(float(np.max(body._axes_sq)))
    if isinstance(body, sw.Box):
        lower, upper = body.lower + shift, body.upper + shift
        return math.sqrt(float(np.sum(np.maximum(lower * lower, upper * upper))))
    return float(np.max(np.linalg.norm(body._vertices + shift, axis=1)))
