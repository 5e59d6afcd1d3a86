"""Bodies and catalog specs are read-only values: each copies its array
inputs at construction and stores them read-only, so neither a later edit of
the caller's arrays nor an in-place write reaches what a warm scenario has
cached; each planar body builds its float projection once.  The scenario,
the catalog specs and the bodies refuse a rebound field.  The package's
exported names are pinned too, so a change that adds or restores one says so."""

import dataclasses
import inspect
import json
import pathlib

import numpy as np
import pytest

import sweepsim as sw
from sweepsim.errors import ZeroDirection
from sweepsim.presets import disk_scenario, forced_disk_scenario
from sweepsim.scenario import SweepingScenario

from conftest import random_body

SCENARIOS = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"


def _square_rows():
    return [(np.array(n, dtype=float), 1.0) for n in ((1, 0), (0, 1), (-1, 0), (0, -1))]


def _bodies():
    """Each body type's ``make``: it returns the caller's input arrays, the
    body built from them and the names of its array fields."""
    def ball():
        c = np.array([0.1, -0.2])
        return [c], sw.Ball(c, 1.0), ["center"]

    def box():
        lo, hi = np.array([-1.0, -0.5]), np.array([1.0, 0.5])
        return [lo, hi], sw.Box(lo, hi), ["lower", "upper"]

    def ellipsoid():
        c, m = np.array([0.3, 0.1]), np.array([[1.2, 0.2], [0.2, 0.6]])
        return [c, m], sw.Ellipsoid(c, m), ["center", "shape_matrix", "_axes_sq", "_basis"]

    def polytope():
        rows, inside = _square_rows(), np.array([0.2, 0.1])
        return ([n for n, _ in rows] + [inside], sw.HalfspacePolytope(rows, 2.0, inside),
                ["normals", "offsets", "interior_point", "_vertices"])
    return {"ball": ball, "box": box, "ellipsoid": ellipsoid, "polytope": polytope}


def _specs():
    """``make`` as in ``_bodies``, for the catalog specs and the scenario."""
    def fourier():
        cos, sin = np.array([[0.2, 0.1]]), np.array([[0.0, 0.3]])
        return [cos, sin], sw.Fourier(cos, sin, 1.0), ["cos_coeffs", "sin_coeffs"]

    def piecewise():
        times, values = np.array([0.0, 0.5, 1.0]), np.array([[0.0, 0.0], [0.2, 0.1], [0.0, 0.0]])
        return [times, values], sw.PiecewiseLinear(times, values), ["times", "values"]

    def cusp():
        d = np.array([0.1, 0.2])
        return [d], sw.SqrtCusp(d, 0.5), ["direction"]

    def affine():
        m, o = np.array([[0.3, 0.1], [0.0, 0.2]]), np.array([0.1, -0.1])
        return [m, o], sw.AffineContraction(m, o), ["matrix", "offset"]

    def tanh_radial():
        c = np.array([0.2, 0.0])
        return [c], sw.TanhRadialContraction(0.4, c), ["center"]

    def tanh_term():
        d, c = np.array([1.0, 0.0]), np.array([0.0, 0.5])
        return [d, c], sw.TanhTerm(0.2, d, c), ["direction", "center"]

    def force():
        m, o = np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([0.5, 0.0])
        return [m, o], sw.ForceSpec(m, o), ["linear_part", "offset"]

    def scenario():
        b0 = np.array([0.1, 0.0])
        scn = disk_scenario()
        scn = SweepingScenario(dimension=2, body=scn.body, interior_point=b0, drift=scn.drift,
                               contraction=scn.contraction, force=scn.force, period=1.0, L1=8.0)
        return [b0], scn, ["interior_point"]
    return {"fourier": fourier, "piecewise_linear": piecewise, "sqrt_cusp": cusp,
            "affine": affine, "tanh_radial": tanh_radial, "tanh_term": tanh_term,
            "force": force, "scenario": scenario}


VALUES = {**_bodies(), **_specs()}


def _state(obj, fields):
    return [getattr(obj, name).tobytes() for name in fields]


@pytest.mark.parametrize("kind", VALUES)
def test_caller_edits_leave_the_value_unchanged(kind):
    inputs, obj, fields = VALUES[kind]()
    before = _state(obj, fields), json.dumps(obj.to_doc())
    for arr in inputs:
        arr += 3.0
    assert (_state(obj, fields), json.dumps(obj.to_doc())) == before


@pytest.mark.parametrize("kind", VALUES)
def test_fields_refuse_in_place_writes(kind):
    _, obj, fields = VALUES[kind]()
    for name in fields:
        field = getattr(obj, name)
        assert not field.flags.writeable, name
        with pytest.raises(ValueError):
            field[...] = 0.0


@pytest.mark.parametrize("kind", ["zero_contraction", *_specs()])
def test_specs_refuse_rebinding_a_field(kind):
    obj = sw.ZeroContraction() if kind == "zero_contraction" else VALUES[kind]()[1]
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


def test_rebinding_a_warm_scenario_is_refused():
    scn = disk_scenario()
    q, n = (0.5, 0.2), 64
    first = sw.run(scn, 0.0, q, n)
    pull = sw.ForceSpec(np.eye(2), (-3.0, 1.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.force = pull
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.force.offset = np.array([-3.0, 1.0])
    assert sw.run(scn, 0.0, q, n).x_nodes.tobytes() == first.x_nodes.tobytes()
    moved = dataclasses.replace(scn, force=pull)
    assert np.allclose(sw.run(moved, 0.0, q, n).x_nodes[-1], (0.9564, -0.2921), atol=1e-4)


@pytest.mark.parametrize("kind", _bodies())
def test_bodies_refuse_rebinding_a_field(kind):
    body = VALUES[kind]()[1]
    body._planar_form             # a cached form is a field like the others
    assert {"dim", "_planar_form"} < set(vars(body))
    for name, value in list(vars(body).items()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(body, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(body, name)
        assert vars(body)[name] is value


def test_rebinding_a_warm_body_is_refused():
    scn = disk_scenario()
    q, n = (0.5, 0.2), 64
    sw.run(scn, 0.0, q, n)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.body.radius = 2.0
    assert scn.body._project(np.array([3.0, 0.0])).tolist() == [1.0, 0.0]
    assert sw.run(scn, 0.0, q, n).x_nodes.tobytes() == sw.run(disk_scenario(), 0.0, q, n).x_nodes.tobytes()


def test_force_terms_are_a_tuple_of_their_own():
    term = sw.TanhTerm(0.2, (1.0, 0.0), (0.0, 0.0))
    terms = [term]
    force = sw.ForceSpec(np.eye(2), np.zeros(2), terms)
    terms.append(term)
    assert force.tanh_terms == (term,)


def _edits(scn):
    """In-place writes a caller might try on a warm scenario."""
    yield lambda: scn.body.center.__setitem__(0, 5.0)
    yield lambda: scn.force.linear_part.__setitem__((0, 0), 3.0)
    yield lambda: scn.force.offset.__iadd__(1.0)
    yield lambda: scn.interior_point.__setitem__(1, 0.5)


@pytest.mark.parametrize("make, lam", [(disk_scenario, 0.0), (forced_disk_scenario, 0.6)])
def test_warm_run_after_an_edit_matches_a_cold_one(make, lam):
    warm = make()
    q, n = (0.5, 0.2), 64
    first = sw.run(warm, lam, q, n)
    sw.run_batch(warm, lam, np.array([q, (1.5, 0.0)]), n)
    for edit in _edits(warm):
        with pytest.raises(ValueError):
            edit()
    again, cold = sw.run(warm, lam, q, n), sw.run(make(), lam, q, n)
    assert again.x_nodes.tobytes() == cold.x_nodes.tobytes() == first.x_nodes.tobytes()
    assert again.iters.tolist() == cold.iters.tolist()
    Q = np.array([q, (1.5, 0.0)])
    assert np.array_equal(sw.run_batch(warm, lam, Q, n), sw.run_batch(make(), lam, Q, n))


def test_run_batch_builds_the_polygon_form_once(monkeypatch):
    scn = SweepingScenario.from_doc(json.loads((SCENARIOS / "octagon.json").read_text()))
    assert isinstance(scn.body, sw.HalfspacePolytope)
    form = sw.HalfspacePolytope.__dict__["_planar_form"]
    real, builds = form.func, []

    def build(body):
        builds.append(body)
        return real(body)

    monkeypatch.setattr(form, "func", build)
    Q = np.asarray(scn.interior_point) + np.random.default_rng(5).normal(0.0, 0.3, (4, 2))
    sw.run_batch(scn, 1.0, Q, 64)
    sw.run_batch(scn, 0.5, Q, 32)
    sw.run(scn, 1.0, Q[0], 16)
    assert builds == [scn.body]


def test_translated_polytope_builds_its_own_planar_form(rng):
    for _ in range(5):
        body = random_body(rng, dims=(2,), kinds=("polytope",))
        original = body._planar_form
        original(3.0, 3.0)
        moved = body.translate(rng.normal(0, 1, 2))
        assert moved._planar_form is not original and body._planar_form is original
        points = rng.normal(0, 3, (64, 2))
        b_max = float(np.max(np.abs(moved.offsets)))
        for p, row in zip(points, moved._project_cols(points.T).T):
            want = moved._project(p)
            tol = 1e-12 * (1.0 + np.linalg.norm(p) + b_max)
            assert np.max(np.abs(np.array(moved._planar_form(*p.tolist())) - want)) <= tol
            assert np.max(np.abs(row - want)) <= tol


@pytest.mark.parametrize("kind", ["ball", "box", "ellipsoid", "polytope"])
def test_zero_direction_support_is_zero_on_every_body(rng, kind):
    for d in (1, 2, 3):
        body = random_body(rng, dims=(d,), kinds=(kind,))
        # the row form, which hausdorff reads, gives 0; the point method refuses
        assert body._support_rows(np.zeros((3, d))).tolist() == [0.0] * 3
        assert body._support_rows(np.zeros((1, d)))[0] == 0.0
        with pytest.raises(ZeroDirection):
            body.support(np.zeros(d))


PUBLIC_NAMES = [
    "AffineContraction", "AuditReport", "Ball", "BoundaryOracle", "Box", "CONSTANT",
    "ConvexBody", "CounterexampleInstance", "DegreeResult", "Ellipsoid", "EquilibriumReport",
    "ForceSpec", "Fourier", "HalfspacePolytope", "LINEAR", "MARGINAL", "PeriodicOrbit",
    "PiecewiseLinear", "STABLE", "SqrtCusp", "StabilityVerdict", "SweepingScenario",
    "TanhRadialContraction", "TanhTerm", "Trajectory", "UNSTABLE", "ZeroContraction",
    "analyze_equilibrium", "boundary_oracle", "continue_branch", "contraction_fixed_point",
    "degree_2d", "distance", "drift_variation_bound", "find_periodic",
    "find_switched_equilibrium", "hausdorff", "implicit_step", "lipschitz_audit",
    "moreau_epsilon", "moreau_residual", "normal_cone_residual", "omega_region",
    "poincare_map", "projection_gap_search", "refine", "run", "run_batch", "segment_body",
    "sliding_field", "sphere_directions", "stability_verdict", "step_variation_check",
]


def test_public_names_are_pinned():
    # one spelling per operation: projection and support are body methods,
    # the point maps and the fixed point's solve live on the scenario or in
    # contraction_fixed_point, and the equilibrium field is force_at(0, x, 0).
    # dir() lists the names that load on first use before they have loaded
    exported = sorted(name for name in dir(sw)
                      if not name.startswith("_") and not inspect.ismodule(getattr(sw, name)))
    assert exported == PUBLIC_NAMES
    assert len(exported) == 53
    assert not hasattr(SweepingScenario, "fixed_point")


# the defaulted parameters of the exported callables and of the exported
# classes' public methods: with the exported dataclasses' init fields, the
# values a caller may set
DEFAULTED_PARAMETERS = [
    "analyze_equilibrium(seed)", "analyze_equilibrium(tol)", "continue_branch(n_schedule)",
    "continue_branch(warm_start)", "contraction_fixed_point(dim)", "degree_2d(mesh)",
    "find_periodic(n_schedule)", "find_periodic(q0)", "find_switched_equilibrium(tol)",
    "refine(n0)", "refine(n_max)", "run(step_tol)",
]


def test_settable_values_are_pinned():
    # a change that adds a defaulted parameter or an init field edits this
    # list or the field count, so a new knob is visible in review
    defaulted, fields = [], 0
    for name in PUBLIC_NAMES:
        obj = getattr(sw, name)
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                fields += sum(f.init for f in dataclasses.fields(obj))
            members = [(f"{name}.{attr}", func) for attr, func in inspect.getmembers(obj, callable)
                       if not attr.startswith("_") and not inspect.isclass(func)]
        else:
            members = [(name, obj)] if callable(obj) else []
        defaulted += [f"{label}({p.name})" for label, func in members
                      for p in inspect.signature(func).parameters.values()
                      if p.default is not p.empty]
    assert sorted(defaulted) == DEFAULTED_PARAMETERS
    assert fields == 75
