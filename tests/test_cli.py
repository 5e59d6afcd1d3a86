import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sweepsim as sw
from sweepsim import cli, errors
from sweepsim.cli import main, parse_scenario
from sweepsim.errors import AuditFailure, SchemaError
from sweepsim.presets import disk_scenario, forced_disk_scenario

from oracles import DimensionTooLarge


def minimal_disk_doc():
    return {
        "dimension": 2,
        "period": 1.0,
        "body": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "interior_point": [0.0, 0.0],
        "drift": {"type": "fourier", "cos_coeffs": [], "sin_coeffs": [],
                  "period": 1.0, "lambda_coupling": "constant"},
        "contraction": {"type": "zero"},
        "force": {"linear_part": [[1.0, 0.0], [0.0, 1.0]], "offset": [-2.0, 0.0]},
        "lipschitz": {"L1": 8.0, "L2": 1e-6, "Lf": 1.0},
    }


@pytest.fixture
def disk_path(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(minimal_disk_doc()))
    return str(path)


@pytest.fixture
def forced_path(tmp_path):
    path = tmp_path / "forced.json"
    path.write_text(json.dumps(forced_disk_scenario().to_doc()))
    return str(path)


# --- schema ------------------------------------------------------------------

def test_minimal_document_parses():
    scn = parse_scenario(json.dumps(minimal_disk_doc()))
    assert scn.dimension == 2
    assert isinstance(scn.body, sw.Ball)


def test_l2_out_of_range_names_the_field():
    doc = minimal_disk_doc()
    doc["lipschitz"]["L2"] = 1.5
    with pytest.raises(SchemaError, match=r"lipschitz\.L2"):
        parse_scenario(json.dumps(doc))


def test_missing_field_reports_path():
    doc = minimal_disk_doc()
    del doc["body"]["radius"]
    with pytest.raises(SchemaError, match=r"body\.radius"):
        parse_scenario(json.dumps(doc))


def test_audit_failure_on_underdeclared_l2():
    doc = minimal_disk_doc()
    doc["contraction"] = {"type": "affine",
                          "matrix": [[0.3, 0.0], [0.0, 0.3]],
                          "lambda_coupling": "constant"}
    doc["lipschitz"]["L2"] = 0.1
    with pytest.raises(AuditFailure, match=r"^lipschitz\.L2: declared 0\.1 is below the certified 0\.3$"):
        parse_scenario(json.dumps(doc))


def steep_tanh_doc():
    """disk.json with the force term tanh(100 x) (1, 0): Lf = 1 + 100^2."""
    doc = json.loads(pathlib.Path(SCENARIOS, "disk.json").read_text())
    doc["force"]["tanh_terms"] = [{"gain": 1, "direction": [100, 0], "center": [0, 0]}]
    doc["lipschitz"]["Lf"] = 1000
    return doc


@pytest.mark.parametrize("seed", range(6))
def test_understated_lf_exit_2_at_every_seed(tmp_path, capsys, seed):
    # a sampled audit accepted this document at some seeds; the certified
    # constant does not depend on the seed
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(steep_tanh_doc()))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--seed", str(seed)]) == 2
    assert capsys.readouterr().err == ("sweepsim simulate: AuditFailure: lipschitz.Lf: declared 1000 "
                                       "is below the certified 10001\n")
    assert not out.exists()


def test_audit_failure_names_every_understated_constant():
    doc = steep_tanh_doc()
    doc["contraction"] = {"type": "tanh_radial", "gain": 0.5, "center": [0.0, 0.0]}
    doc["lipschitz"]["L2"] = 0.25
    with pytest.raises(AuditFailure) as info:
        parse_scenario(json.dumps(doc))
    assert str(info.value) == ("lipschitz.L2: declared 0.25 is below the certified 0.5; "
                               "lipschitz.Lf: declared 1000 is below the certified 10001")


def test_round_trip_through_dict():
    for scn in (disk_scenario(), forced_disk_scenario()):
        doc = scn.to_doc()
        back = sw.SweepingScenario.from_doc(doc)
        assert np.allclose(back.interior_point, scn.interior_point)
        assert back.period == scn.period
        assert back.L2 == scn.L2
        x = np.array([0.4, -0.3])
        assert np.allclose(back.force_at(0.3, x, 0.7), scn.force_at(0.3, x, 0.7))


# --- simulate ------------------------------------------------------------------

def test_simulate_row_count_and_reproducibility(tmp_path, disk_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["simulate", "--scenario", disk_path, "--out", out1, "--n", "1024"]) == 0
    assert main(["simulate", "--scenario", disk_path, "--out", out2, "--n", "1024"]) == 0
    lines = pathlib.Path(out1).read_text().splitlines()
    assert len(lines) == 1026                  # header + n + 1 node rows
    assert lines[0].startswith("t,u_1,u_2,x_1,x_2,step_iters,step_bound")
    assert pathlib.Path(out1).read_bytes() == pathlib.Path(out2).read_bytes()
    # companion plot file
    plot = str(tmp_path / "a.plot.csv")
    assert os.path.exists(plot)
    assert pathlib.Path(plot).read_text().splitlines()[0].strip() == "t,x_1,x_2"


# --- periodic / equilibrium / degree ---------------------------------------------

def test_periodic_json_metadata(tmp_path, disk_path):
    out = str(tmp_path / "orbit.json")
    assert main(["periodic", "--scenario", disk_path, "--out", out,
                 "--tol", "1e-8", "--n", "512"]) == 0
    doc = json.loads(pathlib.Path(out).read_text())
    assert doc["version"] == sw.__version__
    assert len(doc["scenario_sha256"]) == 64
    assert doc["tolerances"]["tol"] == 1e-8
    assert doc["orbit"]["residual"] <= 1e-8
    assert doc["orbit"]["in_omega"] is True
    assert np.allclose(doc["orbit"]["q_star"], (1.0, 0.0), atol=1e-6)


def test_equilibrium_json(tmp_path, disk_path):
    out = str(tmp_path / "eq.json")
    assert main(["equilibrium", "--scenario", disk_path, "--out", out]) == 0
    doc = json.loads(pathlib.Path(out).read_text())
    eq = doc["equilibrium"]
    assert eq["verdict"] == "stable"
    assert eq["alpha"] == pytest.approx(-2.0, abs=1e-6)
    assert np.allclose(eq["x0"], (1.0, 0.0), atol=1e-8)


SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios")


def _body_doc(kind):
    if kind == "box":
        return {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    rows = [{"normal": [np.cos(a), np.sin(a)], "offset": 1.0} for a in np.arange(8) * np.pi / 4]
    return {"type": "polytope", "rows": rows, "bounding_radius": 2.0, "interior_point": [0.0, 0.0]}


@pytest.mark.parametrize("source, message", [
    ("periodic_fourier.json", "drift does not vanish"),
    ("box3d.json", "drift does not vanish"),
    ("box", "Box has no smooth boundary"),
    ("polytope", "HalfspacePolytope has no smooth boundary"),
])
def test_equilibrium_unanalyzable_scenario_exit_2(tmp_path, capsys, source, message):
    # not autonomous at lambda = 0 (a shipped scenario), or an autonomous
    # disk scenario on a body with corners
    if source.endswith(".json"):
        path = os.path.join(SCENARIOS, source)
    else:
        doc = minimal_disk_doc()
        doc["body"] = _body_doc(source)
        path = str(tmp_path / f"{source}.json")
        pathlib.Path(path).write_text(json.dumps(doc))
    out = str(tmp_path / "eq.json")
    assert main(["equilibrium", "--scenario", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sweepsim equilibrium: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(out)


THIRD_HARMONIC = {"cos_coeffs": [], "sin_coeffs": [[0, 0], [0, 0], [0.2, 0]],
                  "lambda_coupling": "constant"}


@pytest.mark.parametrize("part, message", [
    ("drift", "drift does not vanish"),
    ("forcing", "force is time-dependent"),
])
def test_equilibrium_third_harmonic_exit_2(tmp_path, capsys, part, message):
    # sin(6 pi t) vanishes at t = 0, 1/6, ..., 1: a probe on that grid saw an
    # autonomous scenario
    doc = json.loads(pathlib.Path(SCENARIOS, "disk.json").read_text())
    if part == "drift":
        doc["drift"] = dict(THIRD_HARMONIC, type="fourier", period=1.0)
    else:
        doc["force"]["forcing"] = dict(THIRD_HARMONIC)
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "eq.json"
    assert main(["equilibrium", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"sweepsim equilibrium: NotAutonomous: {message} at "
                                       "lambda=0; not autonomous\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["periodic"], ["continue", "--lambda-grid", "0:0.1:3"]],
                         ids=["periodic", "continue"])
def test_periodic_search_on_aperiodic_scenario_exit_2(tmp_path, capsys, command):
    # drag.json's drift is a ramp from 0 to (4, 0) over one period, so the
    # period-T return map has no fixed point to search for
    out = str(tmp_path / "orbit.json")
    path = os.path.join(SCENARIOS, "drag.json")
    assert main([*command, "--scenario", path, "--out", out]) == 2
    assert capsys.readouterr().err == (f"sweepsim {command[0]}: NotPeriodic: drift is not "
                                       "T-periodic; periodic search undefined\n")
    assert os.listdir(tmp_path) == []


def _equilibrium_doc(body, linear_part, Lf):
    doc = minimal_disk_doc()
    doc["body"] = body
    doc["force"] = {"linear_part": linear_part, "offset": [0.0, 0.0]}
    doc["lipschitz"]["Lf"] = Lf
    return doc


UNSOLVED_EQUILIBRIA = {
    # f(x) = -x is normal to the unit circle everywhere: two zero eigenvalues
    "AmbiguousZeroMode": _equilibrium_doc(
        {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}, [[-1.0, 0.0], [0.0, -1.0]], 1.0),
    # every seed's Newton solve lands on an outward-normal force
    "WrongSign": _equilibrium_doc(
        {"type": "ellipsoid", "center": [0.0, 0.0], "shape_matrix": [[1.5, 0.3], [0.3, 0.5]]},
        [[1.08, 1.28], [-0.54, 0.11]], 2.0),
}


@pytest.mark.parametrize("name", sorted(UNSOLVED_EQUILIBRIA))
def test_equilibrium_unsolved_analysis_exit_3(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(UNSOLVED_EQUILIBRIA[name]))
    out = str(tmp_path / "eq.json")
    assert main(["equilibrium", "--scenario", str(path), "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"sweepsim equilibrium: {name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(out)


FAMILIES = {errors.InvalidInput: 2, errors.NonConvergence: 3, errors.FieldVanishesOnBoundary: 4}
ERROR_CLASSES = list(dict.fromkeys(    # BudgetExhausted names NonConvergence again
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and obj.__module__ == errors.__name__ and obj is not errors.SweepsimError))
ERROR_CLASSES.append(DimensionTooLarge)     # the grid oracle's, an InvalidInput raised in tests


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_is_in_one_family_with_its_exit_code(disk_path, capsys, monkeypatch, cls):
    families = [family for family in FAMILIES if issubclass(cls, family)]
    assert len(families) == 1

    def cmd_validate(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_validate", cmd_validate)
    assert main(["validate", "--scenario", disk_path]) == FAMILIES[families[0]]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "boom" in err


@pytest.mark.parametrize("command", [["periodic"], ["continue", "--lambda-grid", "0:0.1:2"]],
                         ids=["periodic", "continue"])
def test_final_search_stage_runs_at_n(tmp_path, disk_path, command):
    out = str(tmp_path / "orbit.json")
    assert main([*command, "--scenario", disk_path, "--out", out, "--n", "20"]) == 0
    doc = json.loads(pathlib.Path(out).read_text())
    orbits = doc["orbits"] if "orbits" in doc else [doc["orbit"]]
    assert orbits and all(orbit["n_used"] == 20 for orbit in orbits)
    assert doc["tolerances"]["n_schedule"] == [20]


def test_search_schedule_ascends_to_n():
    for n in range(1, 4097):
        schedule = sw.periodic._schedule(n)
        assert list(schedule) == sorted(set(schedule)) and schedule[-1] == n


def test_default_schedule_is_the_schedule_of_its_final_count():
    assert sw.periodic.DEFAULT_N_SCHEDULE == sw.periodic._schedule(2048) == (128, 512, 2048)


def test_degree_command(tmp_path, disk_path):
    out = str(tmp_path / "deg.json")
    rc = main(["degree", "--scenario", disk_path, "--out", out, "--n", "128",
               "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1;0.9,0.1"])
    assert rc == 0
    doc = json.loads(pathlib.Path(out).read_text())
    assert doc["degree"]["degree"] == 1


def test_degree_exit_4_when_field_vanishes(tmp_path, disk_path):
    out = str(tmp_path / "deg.json")
    # polygon vertex sits exactly on the fixed point, so a mesh node hits it
    rc = main(["degree", "--scenario", disk_path, "--out", out, "--n", "128",
               "--polygon", "1.0,0.0;1.2,0.0;1.2,0.2"])
    assert rc == 4
    assert not os.path.exists(out)            # refused before writing


def test_degree_non_finite_polygon_exit_2(tmp_path, disk_path):
    out = str(tmp_path / "deg.json")
    with pytest.raises(SystemExit) as info:
        main(["degree", "--scenario", disk_path, "--out", out,
              "--polygon", "0.9,-0.1;nan,-0.1;1.1,0.1"])
    assert info.value.code == 2
    assert not os.path.exists(out)


def test_degree_non_planar_scenario_exit_2(tmp_path, capsys):
    doc = minimal_disk_doc()
    doc.update(dimension=3, interior_point=[0.0, 0.0, 0.0])
    doc["body"]["center"] = [0.0, 0.0, 0.0]
    doc["force"] = {"linear_part": np.eye(3).tolist(), "offset": [-2.0, 0.0, 0.0]}
    path = tmp_path / "ball3.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "deg.json")
    rc = main(["degree", "--scenario", str(path), "--out", out,
               "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"])
    assert rc == 2
    assert "dimension" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    doc = minimal_disk_doc()
    doc["lipschitz"]["L2"] = 1.5
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_scenario_exit_2(tmp_path, capsys, target):
    scenario = tmp_path / "missing.json" if target == "missing" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sweepsim simulate: SchemaError: cannot read scenario file: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


# --- continue ----------------------------------------------------------------------

def test_continue_json_and_plot(tmp_path, forced_path):
    out = str(tmp_path / "branch.json")
    rc = main(["continue", "--scenario", forced_path, "--out", out,
               "--lambda-grid", "0.05:0.15:2", "--tol", "1e-5", "--n", "512"])
    assert rc == 0
    doc = json.loads(pathlib.Path(out).read_text())
    assert doc["failures"] == []
    lams = [o["lambda"] for o in doc["orbits"]]
    assert lams == [0.05, 0.15]
    assert all(o["residual"] <= 1e-5 for o in doc["orbits"])
    plot = str(tmp_path / "branch.plot.csv")
    assert pathlib.Path(plot).read_text().splitlines()[0].strip() == "lambda,residual,seed_distance"


def test_continue_no_warm_start_matches(tmp_path, forced_path):
    out_a = str(tmp_path / "warm.json")
    out_b = str(tmp_path / "cold.json")
    args = ["continue", "--scenario", forced_path, "--tol", "1e-5", "--n", "256",
            "--lambda-grid", "0.05:0.1:2"]
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b, "--no-warm-start"]) == 0
    a = json.loads(pathlib.Path(out_a).read_text())
    b = json.loads(pathlib.Path(out_b).read_text())
    qa = np.array([o["q_star"] for o in a["orbits"]])
    qb = np.array([o["q_star"] for o in b["orbits"]])
    assert np.allclose(qa, qb, atol=2e-5)


# --- validate ------------------------------------------------------------------------

def test_validate_passes_on_disk(tmp_path, disk_path, capsys):
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--scenario", disk_path, "--out", out, "--n", "128"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "[PASS] projection-nonexpansive" in captured
    assert "[PASS] energy-inequality" in captured
    doc = json.loads(pathlib.Path(out).read_text())
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 6


SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
GAP_DETAILS = ["lhs 0.4531 > d_H 0.1940", "lhs 0.4531 <= 1.9391"]

# the detail strings of `validate --n 128 --seed 1`: the projection checks
# draw their 500 pairs in the order of a per-pair loop, so batching them
# leaves every string as it was
VALIDATE_DETAILS = {
    "disk.json": ["worst slack 0.00e+00", "worst slack 0.00e+00", *GAP_DETAILS,
                  "slack 3.033e-01 >= -2.379e-03", "128 steps within per-step bounds"],
    "forced_disk.json": ["worst slack 0.00e+00", "worst slack 0.00e+00", *GAP_DETAILS,
                         "slack 3.033e-01 >= -2.379e-03", "128 steps within per-step bounds"],
    "box3d.json": ["worst slack 0.00e+00", "worst slack 4.44e-16", *GAP_DETAILS,
                   "slack 1.147e-01 >= -2.448e-03", "128 steps within per-step bounds"],
}


@pytest.mark.parametrize("name", VALIDATE_DETAILS)
def test_validate_details_pinned(tmp_path, name):
    out = tmp_path / "val.json"
    rc = main(["validate", "--scenario", str(SCENARIO_DIR / name), "--out", str(out),
               "--n", "128", "--seed", "1"])
    assert rc == 0
    assert [c["detail"] for c in json.loads(out.read_text())["checks"]] == VALIDATE_DETAILS[name]


def test_validate_catches_a_projection_that_expands(tmp_path, monkeypatch):
    # 1.01x about the center stretches every pair by 1%: the batched check
    # must fail it
    monkeypatch.setattr(sw.Ball, "_project_cols",
                        lambda self, P: self.center[:, None] + 1.01 * (P - self.center[:, None]))
    out = tmp_path / "val.json"
    rc = main(["validate", "--scenario", str(SCENARIO_DIR / "disk.json"), "--out", str(out),
               "--n", "128", "--seed", "1"])
    assert rc == 3
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["projection-nonexpansive"]["passed"]
    assert checks["projection-nonexpansive"]["detail"] != "worst slack 0.00e+00"


def test_validate_draws_the_pairs_of_a_per_pair_loop(tmp_path, monkeypatch):
    # the batched checks project the u columns, the v columns and the u
    # columns moved back by the shifts that a loop drawing u, v, shift pair
    # by pair would draw
    path = SCENARIO_DIR / "box3d.json"
    stacks = []
    project_cols = sw.Box._project_cols
    monkeypatch.setattr(sw.Box, "_project_cols",
                        lambda self, P: stacks.append(P.T.copy()) or project_cols(self, P))
    assert main(["validate", "--scenario", str(path), "--out", str(tmp_path / "val.json"),
                 "--n", "128", "--seed", "1"]) == 0

    scn = parse_scenario(path.read_text(), seed=1)
    omega = sw.omega_region(scn, 0.0)
    rng = np.random.default_rng(1)
    U, V, S = [], [], []
    for _ in range(500):
        U.append(omega.center + 2.0 * omega.radius * rng.uniform(-1, 1, 3))
        V.append(omega.center + 2.0 * omega.radius * rng.uniform(-1, 1, 3))
        S.append(rng.normal(0.0, 1.0, 3))
    assert np.array_equal(stacks[0], U) and np.array_equal(stacks[1], V)
    assert np.array_equal(stacks[2], np.array(U) - np.array(S))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name, body", [("disk.json", sw.Ball), ("box3d.json", sw.Box)])
def test_validate_draws_a_per_pair_loop_on_every_body(tmp_path, monkeypatch, name, body, seed):
    # validate fills its stacks from random and standard_normal; a loop of
    # uniform(-1, 1) and normal(0, 1) pairs must give the same u, v and shift
    path = SCENARIO_DIR / name
    stacks = []
    project_cols = body._project_cols
    monkeypatch.setattr(body, "_project_cols",
                        lambda self, P: stacks.append(P.T.copy()) or project_cols(self, P))
    assert main(["validate", "--scenario", str(path), "--out", str(tmp_path / "val.json"),
                 "--n", "128", "--seed", str(seed)]) == 0

    scn = parse_scenario(path.read_text())
    omega, d = sw.omega_region(scn, 0.0), scn.dimension
    rng = np.random.default_rng(seed)
    U, V, S = [], [], []
    for _ in range(500):
        U.append(omega.center + 2.0 * omega.radius * rng.uniform(-1, 1, d))
        V.append(omega.center + 2.0 * omega.radius * rng.uniform(-1, 1, d))
        S.append(rng.normal(0.0, 1.0, d))
    assert np.array_equal(stacks[0], U) and np.array_equal(stacks[1], V)
    assert np.array_equal(stacks[2], np.array(U) - np.array(S))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_numpy_maps_uniform_and_normal_draws_as_validate_does(k):
    # validate's stacks rest on these identities of the installed NumPy:
    # uniform is low + (high - low) u and normal is loc + scale z, bit for bit
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert a.uniform(-1, 1, k).tobytes() == (-1.0 + 2.0 * b.random(k)).tobytes()
        assert a.normal(0.0, 1.0, k).tobytes() == (0.0 + 1.0 * b.standard_normal(k)).tobytes()
        assert a.random() == b.random()         # the same stream consumed


def test_cusp_drift_through_simulate_and_validate(tmp_path):
    # no shipped scenario drifts along a cusp, so the artifact comparison
    # never reaches SqrtCusp's variations; this runs both commands twice
    doc = minimal_disk_doc()
    doc["drift"] = {"type": "sqrt_cusp", "direction": [0.5, 0.0], "cusp_time": 0.4}
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(doc))
    outs = []
    for tag in ("a", "b"):
        csv, report = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert main(["simulate", "--scenario", str(path), "--out", str(csv), "--n", "64"]) == 0
        assert main(["validate", "--scenario", str(path), "--out", str(report), "--n", "64"]) == 0
        assert all(check["passed"] for check in json.loads(report.read_text())["checks"])
        outs.append([p.read_bytes() for p in (csv, tmp_path / f"{tag}.plot.csv", report)])
    assert outs[0] == outs[1]
    scn = parse_scenario(path.read_text())
    times = np.linspace(0.0, scn.period, 65)
    want = [(sw.drift_variation_bound(scn.drift, s, t) + scn.L1 * scn.period / 64) / (1.0 - scn.L2)
            for s, t in zip(times, times[1:])]
    rows = [line.split(",") for line in outs[0][0].decode().splitlines()[2:]]
    assert [float(row[-1]) for row in rows] == want


def test_json_outputs_reproducible(tmp_path, disk_path):
    out1 = str(tmp_path / "v1.json")
    out2 = str(tmp_path / "v2.json")
    for out in (out1, out2):
        assert main(["equilibrium", "--scenario", disk_path, "--out", out]) == 0
    assert pathlib.Path(out1).read_bytes() == pathlib.Path(out2).read_bytes()


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_exit_2(tmp_path, disk_path, capsys, target):
    out = tmp_path / "no" / "x.csv" if target == "missing_dir" else tmp_path
    assert main(["simulate", "--scenario", disk_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sweepsim simulate: InvalidInput: cannot write {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".sweepsim-")]
    assert not os.path.exists(cli._plot_path(str(out)))     # nor the companion


@pytest.mark.parametrize("stale", [False, True], ids=["new", "stale"])
@pytest.mark.parametrize("command, out", [
    (["simulate"], "x.csv"),
    (["continue", "--n", "32", "--lambda-grid", "0:0.1:1"], "x.json"),
], ids=["simulate", "continue"])
def test_failed_companion_write_leaves_the_main_artifact(tmp_path, disk_path, capsys,
                                                         command, out, stale):
    # the *.plot.csv companion is a directory, so only its write fails
    half = tmp_path / "half"
    (half / pathlib.Path(out).with_suffix(".plot.csv").name).mkdir(parents=True)
    main_path = half / out
    if stale:
        main_path.write_text("stale\n")
    assert main([*command, "--scenario", disk_path, "--out", str(main_path)]) == 2
    assert "InvalidInput: cannot write" in capsys.readouterr().err
    if stale:
        assert main_path.read_text() == "stale\n"
    else:
        assert not main_path.exists()
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".sweepsim-")]


def test_artifact_mode_follows_the_umask(tmp_path, disk_path):
    old = os.umask(0o022)
    try:
        assert main(["simulate", "--scenario", disk_path, "--out", str(tmp_path / "x.csv")]) == 0
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old)
    modes = [(tmp_path / name).stat().st_mode for name in ("x.csv", "x.plot.csv", "plain.csv")]
    assert modes == [modes[2]] * 3


# --- lambda range ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["simulate", "--lambda", "5"],
    ["simulate", "--lambda", "-0.1"],
    ["periodic", "--lambda", "1.01"],
    ["degree", "--lambda", "nan", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"],
    ["validate", "--lambda", "2"],
    ["continue", "--lambda-grid", "0.5:1.5:3"],
    ["continue", "--lambda-grid=-0.2:0.2:3"],
])
def test_lambda_outside_unit_interval_exit_2(tmp_path, disk_path, argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--scenario", disk_path, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "[0, 1]" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


# --- counts and tolerances ---------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "0"],
    ["simulate", "--n", "-3"],
    ["simulate", "--tol", "nan"],
    ["simulate", "--tol", "-1"],
    ["simulate", "--tol", "inf"],
    ["periodic", "--tol", "0"],
    ["equilibrium", "--tol", "nan"],
    ["continue", "--n", "0", "--lambda-grid", "0:0.1:2"],
    ["continue", "--lambda-grid", "0.2:0.1:3"],
    ["continue", "--lambda-grid", "0.1:0.1:3"],
    ["validate", "--n", "-3"],
    ["degree", "--mesh", "10", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"],
    ["degree", "--mesh", "4097", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"],
    ["degree", "--n", "0", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"],
    ["simulate", "--seed", "-1"],
    ["validate", "--seed", "-1"],
])
def test_bad_count_or_tolerance_exit_2(tmp_path, disk_path, argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--scenario", disk_path, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


# --- one home per rule ---------------------------------------------------------------
# Each refused option value prints the message that the package's own call
# gives for the same value: the command line restates no range rule.

SQUARE = [(0.9, -0.1), (1.1, -0.1), (1.1, 0.1), (0.9, 0.1)]
ONE_HOME = {
    "lambda-high": (["simulate", "--lambda", "1.5"],
                    lambda scn: sw.run(scn, 1.5, (0.5, 0.0), 8)),
    "lambda-nan": (["degree", "--lambda", "nan", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"],
                   lambda scn: sw.run(scn, float("nan"), (0.5, 0.0), 8)),
    "grid-high": (["continue", "--lambda-grid", "0.5:1.5:3"],
                  lambda scn: sw.continue_branch(scn, [0.5, 1.0, 1.5], (1.0, 0.0), 1e-6)),
    "grid-low": (["continue", "--lambda-grid=-0.2:0.2:3"],
                 lambda scn: sw.continue_branch(scn, [-0.2, 0.0, 0.2], (1.0, 0.0), 1e-6)),
    "grid-descending": (["continue", "--lambda-grid", "0.2:0.1:3"],
                        lambda scn: sw.continue_branch(scn, [0.2, 0.15, 0.1], (1.0, 0.0), 1e-6)),
    "grid-constant": (["continue", "--lambda-grid", "0.1:0.1:3"],
                      lambda scn: sw.continue_branch(scn, [0.1, 0.1, 0.1], (1.0, 0.0), 1e-6)),
    "tol-nan": (["simulate", "--tol", "nan"],
                lambda scn: sw.run(scn, 0.0, (0.5, 0.0), 8, step_tol=float("nan"))),
    "tol-zero": (["periodic", "--tol", "0"], lambda scn: sw.find_periodic(scn, 0.0, 0.0)),
    "tol-inf": (["equilibrium", "--tol", "inf"],
                lambda scn: sw.analyze_equilibrium(scn, tol=float("inf"))),
    "n-zero": (["simulate", "--n", "0"], lambda scn: sw.run(scn, 0.0, (0.5, 0.0), 0)),
    "n-negative": (["validate", "--n", "-3"], lambda scn: sw.run(scn, 0.0, (0.5, 0.0), -3)),
    "mesh-low": (["degree", "--mesh", "10", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"],
                 lambda scn: sw.degree_2d(scn, 0.0, 8, SQUARE, mesh=10)),
    "mesh-high": (["degree", "--mesh", "4097", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1"],
                  lambda scn: sw.degree_2d(scn, 0.0, 8, SQUARE, mesh=4097)),
    "polygon-non-finite": (["degree", "--polygon", "0.9,-0.1;nan,-0.1;1.1,0.1"],
                           lambda scn: sw.degree_2d(scn, 0.0, 8,
                                                    [(0.9, -0.1), (float("nan"), -0.1), (1.1, 0.1)])),
    "polygon-two-vertices": (["degree", "--polygon", "0.9,-0.1;1.1,0.1"],
                             lambda scn: sw.degree_2d(scn, 0.0, 8, [(0.9, -0.1), (1.1, 0.1)])),
}


@pytest.mark.parametrize("key", ONE_HOME)
def test_a_refused_option_prints_the_package_message(tmp_path, disk_path, capsys, key):
    argv, call = ONE_HOME[key]
    with pytest.raises(errors.OutOfRange) as refused:
        call(disk_scenario())
    with pytest.raises(SystemExit) as info:
        main(argv + ["--scenario", disk_path, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    option = argv[1].split("=")[0]
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {refused.value}\n")


def test_step_tolerance_whose_stop_threshold_rounds_to_0_exit_2(tmp_path):
    # 5e-324 * (1 - 0.6) rounds to 0: the batched kernel's budget was inf
    doc = json.loads(pathlib.Path(SCENARIOS, "box3d.json").read_text())
    doc["lipschitz"]["L2"] = 0.6
    path = tmp_path / "box3d.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "sweepsim", "simulate",
                           "--scenario", str(path), "--lambda", "1", "--n", "1024",
                           "--tol", "5e-324", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == ("sweepsim simulate: OutOfRange: step tolerance 5e-324 at L2=0.6"
                           " leaves a stop threshold of 0\n")
    assert not out.exists()


# --- CSV formatting ------------------------------------------------------------------

def _per_cell(x):
    return repr(float(x))


def per_cell_trajectory_csv(traj):
    """The trajectory CSV as a per-cell formatter of NumPy scalars writes it."""
    d = traj.x_nodes.shape[1]
    cols = ["t"] + [f"u_{k+1}" for k in range(d)] + [f"x_{k+1}" for k in range(d)] \
        + ["step_iters", "step_bound"]
    iters, bounds = [0] + traj.iters.tolist(), [0.0] + traj.bounds.tolist()
    lines = [",".join(cols)]
    for i in range(traj.n + 1):
        cells = [_per_cell(traj.times[i])] + [_per_cell(v) for v in traj.u_nodes[i]]
        cells += [_per_cell(v) for v in traj.x_nodes[i]]
        lines.append(",".join(cells + [str(iters[i]), _per_cell(bounds[i])]))
    return "\n".join(lines) + "\n"


def per_cell_plot_csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(_per_cell(v) for v in row) for row in rows]) + "\n"


# awkward cells: signed zero, the smallest subnormal, huge and integral
# values, and shortest-repr decimals
AWKWARD = np.array([-0.0, 5e-324, 1e300, -1e300, 3.0, -2.0, 0.1, 1 / 3, 2.0 ** 60, 1e-7])


def awkward_trajectory(d, n=12):
    """A trajectory whose u nodes (x nodes: the same, reversed) and bounds
    hold every AWKWARD value, the rest drawn from AWKWARD and normals; iters
    reach 1234."""
    rng = np.random.default_rng(d)
    pool = np.concatenate((AWKWARD, rng.normal(0.0, 10.0, 40)))
    u, bounds = rng.choice(pool, size=(n + 1, d)), rng.choice(pool, size=n)
    u.flat[:AWKWARD.size], bounds[:AWKWARD.size] = AWKWARD, AWKWARD
    iters = rng.permutation(np.resize([1, 2, 9, 10, 47, 1234], n))
    return sw.Trajectory(
        n=n, times=np.linspace(0.0, 3.0, n + 1), u_nodes=u, x_nodes=u[::-1].copy(),
        J_nodes=np.zeros((n + 1, d)), lam=0.0,
        iters=iters, increments=np.zeros(n), bounds=bounds)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trajectory_csv_matches_per_cell_formatting(tmp_path, d):
    traj = awkward_trajectory(d)
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(str(path), traj)
    text = path.read_text()
    assert text == per_cell_trajectory_csv(traj)
    assert "-0.0" in text and "5e-324" in text and "1e+300" in text and ",1234," in text


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simulate_plot_csv_matches_per_cell_formatting(tmp_path, d):
    # write_plot_csv, continue's writer, on one (n + 1, 1 + d) array: each
    # cell prints as the per-cell writer printed a NumPy scalar
    traj = awkward_trajectory(d)
    header = ["t"] + [f"x_{k+1}" for k in range(d)]
    rows = [[traj.times[i]] + list(traj.x_nodes[i]) for i in range(traj.n + 1)]
    path = tmp_path / "traj.plot.csv"
    cli.write_plot_csv(str(path), header, np.column_stack((traj.times, traj.x_nodes)))
    assert path.read_text() == per_cell_plot_csv(header, rows)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trajectory_csv_and_its_companion_share_per_cell_formatting(tmp_path, d):
    # simulate writes both files from one set of cells: each must keep the
    # per-cell bytes
    traj = awkward_trajectory(d)
    path, plot = tmp_path / "traj.csv", tmp_path / "traj.plot.csv"
    cli.write_trajectory_csv(str(path), traj, str(plot))
    assert path.read_text() == per_cell_trajectory_csv(traj)
    header = ["t"] + [f"x_{k+1}" for k in range(d)]
    rows = [[traj.times[i]] + list(traj.x_nodes[i]) for i in range(traj.n + 1)]
    text = plot.read_text()
    assert text == per_cell_plot_csv(header, rows)
    assert "-0.0" in text and "5e-324" in text and "1e+300" in text and "-1e+300" in text


def test_continue_plot_csv_matches_per_cell_formatting(tmp_path):
    header = ["lambda", "residual", "seed_distance"]
    rows = [[0.0, 5e-324, -0.0], [0.1, 1e300, 2.0], [1.0, 3.5e-9, 0.30000000000000004]]
    path = tmp_path / "branch.plot.csv"
    for written in (rows, []):
        cli.write_plot_csv(str(path), header, written)
        assert path.read_text() == per_cell_plot_csv(header, written)


@pytest.mark.parametrize("name", ["disk.json", "box3d.json"])
def test_simulate_csvs_match_per_cell_formatting(tmp_path, name):
    out = tmp_path / "sim.csv"
    path = str(SCENARIO_DIR / name)
    assert main(["simulate", "--scenario", path, "--out", str(out), "--n", "64"]) == 0
    scn = parse_scenario((SCENARIO_DIR / name).read_text())
    traj = sw.run(scn, 0.0, scn.interior_point, 64, step_tol=1e-10)
    assert out.read_text() == per_cell_trajectory_csv(traj)
    header = ["t"] + [f"x_{k+1}" for k in range(scn.dimension)]
    rows = [[traj.times[i]] + list(traj.x_nodes[i]) for i in range(traj.n + 1)]
    assert (tmp_path / "sim.plot.csv").read_text() == per_cell_plot_csv(header, rows)


# --- one parser per process ------------------------------------------------------------

def test_import_builds_no_parser():
    code = "import sweepsim.cli as c, sys; sys.exit(c._parser is not None)"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parent.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_reused_parser_writes_the_same_bytes(tmp_path, disk_path):
    out = tmp_path / "val.json"
    argv = ["validate", "--scenario", disk_path, "--out", str(out), "--n", "64", "--seed", "2"]
    assert main(argv) == 0
    first = out.read_bytes()
    assert cli._parser is not None
    parser = cli._parser
    out.unlink()
    # an argparse rejection between the two runs leaves nothing behind
    with pytest.raises(SystemExit) as info:
        main(["validate", "--scenario", disk_path, "--out", str(out), "--seed", "-1"])
    assert info.value.code == 2
    assert not out.exists()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert cli._parser is parser


def test_command_patched_after_parser_is_built_is_called(tmp_path, disk_path, monkeypatch):
    argv = ["validate", "--scenario", disk_path, "--n", "16"]
    assert main(argv) == 0          # the parser is built and cached by now
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: calls.append(args.command) or 7)
    assert main(argv) == 7
    assert calls == ["validate"]
