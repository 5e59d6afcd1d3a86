"""The scenario JSON codec: every catalog class reads its own document with
``from_doc`` and writes it back with ``to_doc``.  Schema violations surface
as ``SchemaError`` messages that name the offending field's path, and the
CLI turns them into exit code 2."""

import copy
import json
import pathlib

import numpy as np
import pytest

import sweepsim as sw
from sweepsim.cli import main, parse_scenario
from sweepsim.errors import SchemaError

SCENARIOS = sorted((pathlib.Path(__file__).parent.parent / "demos" / "scenarios").glob("*.json"))


def base_doc():
    return {
        "dimension": 2,
        "period": 1.0,
        "body": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "interior_point": [0.0, 0.0],
        "drift": {"type": "fourier", "cos_coeffs": [[0.1, 0.0]], "sin_coeffs": [[0.0, 0.1]],
                  "period": 1.0, "lambda_coupling": "constant"},
        "contraction": {"type": "affine", "matrix": [[0.3, 0.0], [0.0, 0.3]],
                        "lambda_coupling": "constant"},
        "force": {"linear_part": [[1.0, 0.0], [0.0, 1.0]], "offset": [-2.0, 0.0],
                  "tanh_terms": [{"gain": 0.2, "direction": [1.0, 0.0], "center": [0.0, 0.0]}],
                  "forcing": {"cos_coeffs": [[1.0, 0.0]], "sin_coeffs": [[0.0, 1.0]],
                              "period": 1.0, "lambda_coupling": "linear"}},
        "lipschitz": {"L1": 8.0, "L2": 0.3, "Lf": 1.5},
    }


POLYTOPE = {"type": "polytope",
            "rows": [{"normal": [1.0, 0.0], "offset": 1.0}, {"normal": [-1.0, 0.0], "offset": 1.0},
                     {"normal": [0.0, 1.0], "offset": 1.0}, {"normal": [0.0, -1.0], "offset": 1.0}],
            "bounding_radius": 2.0, "interior_point": [0.0, 0.0]}
PIECEWISE = {"type": "piecewise_linear", "times": [0.0, 0.5, 1.0],
             "values": [[0.0, 0.0], [0.2, 0.1], [0.0, 0.0]]}


DELETE = object()
NAN, INF = float("nan"), float("inf")


def edited(path, value):
    """``base_doc()`` with the field at ``path`` (a tuple of keys and
    indices) set to ``value``, or deleted when ``value`` is ``DELETE``."""
    doc = base_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = copy.deepcopy(value)
    return doc


def schema_message(doc):
    with pytest.raises(SchemaError) as info:
        parse_scenario(json.dumps(doc), audit=False)
    return str(info.value)


# --- messages that hold before and after the codec moved onto the classes ------

PINNED = {
    # missing field
    "top/missing": (("period",), DELETE, "period: required field missing"),
    "body/missing": (("body", "radius"), DELETE, "body.radius: required field missing"),
    "body/missing-type": (("body", "type"), DELETE, "body.type: required field missing"),
    "drift/missing": (("drift",), {"type": "piecewise_linear", "values": []},
                      "drift.times: required field missing"),
    "contraction/missing": (("contraction",), {"type": "tanh_radial", "gain": 0.3},
                            "contraction.center: required field missing"),
    "force/missing": (("force", "offset"), DELETE, "force.offset: required field missing"),
    "force/missing-term-field": (("force", "tanh_terms", 0, "gain"), DELETE,
                                 "force.tanh_terms[0].gain: required field missing"),
    "lipschitz/missing": (("lipschitz", "L1"), DELETE, "lipschitz.L1: required field missing"),
    # wrong type
    "top/dimension-type": (("dimension",), "2", "dimension: must be an integer in 1..8"),
    "body/wrong-type": (("body", "radius"), "1", "body.radius: expected a number"),
    "body/rows-type": (("body",), dict(POLYTOPE, rows={}), "body.rows: expected a nonempty list"),
    "drift/wrong-type": (("drift", "cos_coeffs"), "x", "drift.cos_coeffs: expected a list of points"),
    "contraction/wrong-type": (("contraction",), {"type": "tanh_radial", "gain": "big",
                                                  "center": [0.0, 0.0]},
                               "contraction.gain: expected a number"),
    "force/wrong-type": (("force", "linear_part"), [["a", "b"], ["c", "d"]],
                         "force.linear_part: expected a 2x2 matrix"),
    "lipschitz/wrong-type": (("lipschitz", "L2"), True, "lipschitz.L2: expected a number"),
    # wrong length
    "top/length": (("interior_point",), [0.0], "interior_point: expected length 2, got 1"),
    "body/length": (("body", "center"), [0.0, 0.0, 0.0], "body.center: expected length 2, got 3"),
    "drift/length": (("drift", "sin_coeffs"), [[0.1]], "drift.sin_coeffs[0]: expected length 2, got 1"),
    "contraction/length": (("contraction", "offset"), [0.0],
                           "contraction.offset: expected length 2, got 1"),
    "force/length": (("force", "linear_part"), [[1.0]],
                     "force.linear_part: expected shape (2, 2), got (1, 1)"),
    "force/forcing-length": (("force", "forcing", "cos_coeffs"), [[1.0, 0.0, 0.0]],
                             "force.forcing.cos_coeffs[0]: expected length 2, got 3"),
    # unknown type
    "body/unknown": (("body", "type"), "torus", "body.type: unknown body type 'torus'"),
    "drift/unknown": (("drift", "type"), "brownian", "drift.type: unknown drift type 'brownian'"),
    "contraction/unknown": (("contraction", "type"), "spiral",
                            "contraction.type: unknown contraction type 'spiral'"),
    # range checks kept at the boundary
    "top/dimension-range": (("dimension",), 9, "dimension: must be an integer in 1..8"),
    "lipschitz/range": (("lipschitz", "L2"), 1.5, "lipschitz.L2: must lie in (0, 1)"),
    "body/negative": (("body", "radius"), -1.0, "body.radius: must be >= 0"),
    "drift/period": (("drift", "period"), 0.0, "drift.period: must be positive"),
    # constructor checks reported at the object's path
    "body/polytope-row": (("body",), dict(POLYTOPE, interior_point=[1.5, 0.0]),
                          "body: interior_point violates row 0 by 5.000e-01"),
    "body/ellipsoid": (("body",), {"type": "ellipsoid", "center": [0.0, 0.0],
                                   "shape_matrix": [[1.0, 0.0], [0.0, -1.0]]},
                       "body.shape_matrix: shape_matrix must be positive definite"),
    "drift/knots": (("drift",), dict(PIECEWISE, times=[0.0, 0.7, 0.6]),
                    "drift: times must be strictly increasing"),
    "top/interior": (("interior_point",), [3.0, 0.0], "interior_point must belong to the body"),
    "top/cover": (("drift",), dict(PIECEWISE, times=[0.0, 0.5, 0.9]),
                  "piecewise-linear drift must cover [0, period]"),
}


@pytest.mark.parametrize("path, value, message", PINNED.values(), ids=PINNED.keys())
def test_schema_messages_pinned(path, value, message):
    assert schema_message(edited(path, value)) == message


# The Box order, the knot count and the coupling name are checked once, by
# the constructor, and reported at the path of the object being built.
CONSTRUCTOR_CHECKED = {
    "body/box-order": (("body",), {"type": "box", "lower": [0.0, 1.0], "upper": [1.0, 0.0]},
                       "body: box requires lower <= upper componentwise"),
    "drift/knot-count": (("drift",), dict(PIECEWISE, times=[0.0, 1.0]),
                         "drift: one value per knot required"),
    "drift/coupling": (("drift", "lambda_coupling"), "quadratic",
                       "drift: unknown coupling 'quadratic'"),
    "contraction/coupling": (("contraction", "lambda_coupling"), "cubic",
                             "contraction: unknown coupling 'cubic'"),
    "force/coupling": (("force", "forcing", "lambda_coupling"), "square",
                       "force.forcing: unknown coupling 'square'"),
}


@pytest.mark.parametrize("path, value, message", CONSTRUCTOR_CHECKED.values(),
                         ids=CONSTRUCTOR_CHECKED.keys())
def test_constructor_checks_name_the_object(path, value, message):
    assert schema_message(edited(path, value)) == message


# --- malformed documents: non-objects and non-finite numbers ---------------------

MALFORMED = {
    "body-not-object": (("body",), 5, "body: expected a JSON object"),
    "lipschitz-not-object": (("lipschitz",), [1.0], "lipschitz: expected a JSON object"),
    "forcing-not-object": (("force", "forcing"), "x", "force.forcing: expected a JSON object"),
    "row-not-object": (("body",), dict(POLYTOPE, rows=[5]), "body.rows[0]: expected a JSON object"),
    "tanh-terms-not-list": (("force", "tanh_terms"), {"gain": 1.0},
                            "force.tanh_terms: expected a list"),
    "tanh-term-not-object": (("force", "tanh_terms"), [5],
                             "force.tanh_terms[0]: expected a JSON object"),
    "period-nan": (("period",), NAN, "period: must be finite"),
    "drift-period-nan": (("drift", "period"), NAN, "drift.period: must be finite"),
    "radius-inf": (("body", "radius"), INF, "body.radius: must be finite"),
    "l1-nan": (("lipschitz", "L1"), NAN, "lipschitz.L1: must be finite"),
    "lf-inf": (("lipschitz", "Lf"), INF, "lipschitz.Lf: must be finite"),
    "matrix-nan": (("contraction", "matrix"), [[0.3, NAN], [0.0, 0.3]],
                   "contraction.matrix: entries must be finite"),
    "point-nan": (("interior_point",), [NAN, 0.0], "interior_point: entries must be finite"),
    "center-nan": (("body", "center"), [0.0, NAN], "body.center: entries must be finite"),
}


@pytest.mark.parametrize("path, value, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_rejected(path, value, message):
    assert schema_message(edited(path, value)) == message


def test_non_object_body_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited(("body",), 5)))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "body: expected a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# --- round trips -------------------------------------------------------------------

@pytest.mark.parametrize("path", SCENARIOS, ids=[p.name for p in SCENARIOS])
def test_demo_scenarios_round_trip_byte_for_byte(path):
    text = path.read_text()
    doc = sw.SweepingScenario.from_doc(json.loads(text)).to_doc()
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def every_kind():
    """Three scenarios that together use every body, drift, contraction and
    force kind of the catalog."""
    ellipsoid = base_doc()
    ellipsoid["body"] = {"type": "ellipsoid", "center": [0.1, 0.0],
                         "shape_matrix": [[1.2, 0.2], [0.2, 0.6]]}
    ellipsoid["contraction"] = {"type": "zero"}
    ellipsoid["drift"]["lambda_coupling"] = "linear"
    ellipsoid["lipschitz"]["L2"] = 1e-6

    box = base_doc()
    box["body"] = {"type": "box", "lower": [-1.0, -0.8], "upper": [1.0, 0.8]}
    box["drift"] = dict(PIECEWISE, lambda_coupling="linear")
    box["contraction"]["offset"] = [0.05, -0.02]
    box["force"]["tanh_terms"].append({"gain": -0.3, "direction": [0.0, 1.0], "center": [0.0, 0.2]})
    del box["force"]["forcing"]
    box["lipschitz"]["Lf"] = 1.6

    polytope = base_doc()
    polytope["body"] = POLYTOPE
    polytope["drift"] = {"type": "sqrt_cusp", "direction": [0.2, -0.1], "cusp_time": 0.4,
                         "lambda_coupling": "constant"}
    polytope["contraction"] = {"type": "tanh_radial", "gain": 0.3, "center": [0.2, -0.1],
                               "lambda_coupling": "linear"}
    return [ellipsoid, box, polytope]


@pytest.mark.parametrize("doc", every_kind(), ids=["ellipsoid", "box", "polytope"])
def test_every_kind_round_trips(doc):
    scn = sw.SweepingScenario.from_doc(doc)
    back = sw.SweepingScenario.from_doc(json.loads(json.dumps(scn.to_doc())))
    assert back.to_doc() == scn.to_doc()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 2)
        t, lam = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        assert np.allclose(back.body.project(x), scn.body.project(x), atol=1e-14)
        assert np.array_equal(back.drift_at(t, lam), scn.drift_at(t, lam))
        assert np.array_equal(back.contraction_at(x, lam), scn.contraction_at(x, lam))
        assert np.array_equal(back.force_at(t, x, lam), scn.force_at(t, x, lam))
    assert (back.period, back.L1, back.L2, back.force.Lf) == (scn.period, scn.L1, scn.L2, scn.force.Lf)
