"""The column forms that the batched step kernel calls.  Every body's
``_project_cols``, the contractions' ``base_cols``, ``TanhTerm.cols``,
``ForceSpec.state_cols`` and the closures of ``SweepingScenario.resolve`` take
a coordinate-major (d, m) stack, one state per column, and return one.  Every
check includes a square stack (d = m), which a form reading the stack in the
other orientation would get wrong without failing on its shape.

The catalog keeps no per-point NumPy form: a point value is one column of the
column form.  So the contractions and the force are checked against closed
forms written here (``contraction_oracle``, ``term_oracle``,
``force_oracle``), and the resolved closures against the public point API.

A projection equals, bit for bit, the per-point form that shares its
arithmetic: ``_project`` for boxes, and for ellipsoids and polytopes off the
plane (the column form loops over it), and the planar float form on d = 2
for every body.  A ball's column norm is a sum of squares where ``_project``
takes a dot product, and stacked matrix products round apart from 1-D ones,
so the remaining comparisons hold to rounding."""

import math

import numpy as np
import pytest

import sweepsim as sw

from conftest import random_body

FORM_TOL = 1e-14


def stacks(rng, d, scale=3.0):
    """A square (d, d) stack and a (d, 64) one, with the origin in the second."""
    P = rng.normal(0, scale, (d, 64))
    P[:, 0] = 0.0
    return [rng.normal(0, scale, (d, d)), P]


def per_point(f, P):
    """f of every column of P, stacked back as columns."""
    return np.array([f(p) for p in P.T]).T


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["ball", "box", "ellipsoid", "polytope"])
def test_body_cols_match_the_point_forms(kind, d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        body = random_body(rng, dims=(d,), kinds=(kind,))
        for P in stacks(rng, d):
            got = body._project_cols(P)
            assert got.shape == P.shape
            scalar = per_point(body._project, P)
            np.testing.assert_allclose(got, scalar, rtol=FORM_TOL, atol=FORM_TOL)
            if d == 2 and kind != "ball":     # a ball's planar form is its numbers
                planar = per_point(lambda p: body._planar_form(*p.tolist()), P)
                assert got.tobytes() == planar.tobytes()
            elif kind != "ball":
                assert got.tobytes() == scalar.tobytes()
        assert body._project_cols(np.zeros((d, 0))).shape == (d, 0)


# linear coupling: the resolved closures scale by lam (and are state-free at 0)
CONTRACTIONS = {
    "zero": sw.ZeroContraction(),
    "affine": sw.AffineContraction([[0.3, 0.1], [-0.1, 0.2]], (0.05, -0.1), coupling=sw.LINEAR),
    "tanh_radial": sw.TanhRadialContraction(0.4, (0.2, -0.1), coupling=sw.LINEAR),
}
FORCE = sw.ForceSpec([[1.0, 0.2], [-0.5, 1.0]], (-2.0, 0.1),
                     [sw.TanhTerm(0.5, (0.6, 0.8), (0.2, -0.1)),
                      sw.TanhTerm(-0.3, (1.0, 0.0), (0.0, 0.5))],
                     sw.Fourier([[0.4, 0.1]], [[0.0, 0.3]], 1.0, sw.LINEAR))


def contraction_oracle(spec, p):
    """c(p) in closed form: M p + b, gain tanh(|v|)/|v| v with v = p - center, or 0."""
    if isinstance(spec, sw.AffineContraction):
        return spec.matrix.dot(p) + spec.offset
    if isinstance(spec, sw.TanhRadialContraction):
        v = p - spec.center
        r = math.sqrt(v.dot(v))
        return spec.gain * math.tanh(r) / r * v
    return np.zeros_like(p)


def term_oracle(term, p):
    """g tanh(d . (p - c)) d in closed form."""
    return term.gain * math.tanh(term.direction.dot(p - term.center)) * term.direction


def force_oracle(spec, p):
    """A p + b + sum over the tanh terms, in closed form."""
    return spec.linear_part.dot(p) + spec.offset + sum(term_oracle(term, p) for term in spec.tanh_terms)


@pytest.mark.parametrize("key", sorted(CONTRACTIONS))
def test_contraction_cols_match_base_value(key):
    spec = CONTRACTIONS[key]
    for P in stacks(np.random.default_rng(4), 2):
        got = spec.base_cols(P)
        assert got.shape == P.shape
        np.testing.assert_allclose(got, per_point(lambda p: contraction_oracle(spec, p), P),
                                   rtol=FORM_TOL, atol=FORM_TOL)


def test_force_cols_match_state_value():
    for P in stacks(np.random.default_rng(5), 2):
        for term in FORCE.tanh_terms:
            np.testing.assert_allclose(term.cols(P), per_point(lambda p: term_oracle(term, p), P),
                                       rtol=FORM_TOL, atol=FORM_TOL)
        got = FORCE.state_cols(P)
        assert got.shape == P.shape
        np.testing.assert_allclose(got, per_point(lambda p: force_oracle(FORCE, p), P),
                                   rtol=FORM_TOL, atol=FORM_TOL)


@pytest.mark.parametrize("key", sorted(CONTRACTIONS))
@pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
def test_resolved_closures_match_the_public_point_forms(key, lam):
    scn = sw.SweepingScenario(2, sw.Ball((0.0, 0.0), 1.0), (0.0, 0.0),
                              sw.Fourier([[0.3, 0.0]], [[0.0, 0.2]], 1.0), CONTRACTIONS[key],
                              FORCE, 1.0)
    times = np.linspace(0.0, 1.0, 5)
    res = scn.resolve(lam, times)
    for P in stacks(np.random.default_rng(6), 2):
        np.testing.assert_allclose(res.contraction_cols(P),
                                   per_point(lambda p: scn.contraction_at(p, lam), P),
                                   rtol=FORM_TOL, atol=FORM_TOL)
        for i, t in enumerate(times):
            np.testing.assert_allclose(res.force_cols(i, P),
                                       per_point(lambda p: scn.force_at(t, p, lam), P),
                                       rtol=FORM_TOL, atol=FORM_TOL)


def test_no_row_form_remains():
    # a caller still passing an (m, d) stack to a batched form fails on the
    # missing name instead of reading a square stack transposed
    for cls in sw.geometry.BODY_TYPES.values():
        assert not hasattr(cls, "_project_rows"), cls.__name__
    for spec in CONTRACTIONS.values():
        assert not hasattr(spec, "base_rows")
    assert not hasattr(FORCE, "state_rows") and not hasattr(FORCE.tanh_terms[0], "rows")
    # a point value is one column or row of the array form: no per-point form is left
    catalog = [*sw.scenario.DRIFT_TYPES.values(), *sw.scenario.CONTRACTION_TYPES.values(),
               sw.TanhTerm, sw.ForceSpec]
    for cls in catalog:
        for name in ("base_value", "base_variation", "state_value", "value"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
