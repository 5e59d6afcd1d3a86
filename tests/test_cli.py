import json
import os

import numpy as np
import pytest

import sweepsim as sw
from sweepsim.cli import main, parse_scenario
from sweepsim.errors import AuditFailure, SchemaError
from sweepsim.presets import disk_scenario, forced_disk_scenario


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
    scn = parse_scenario(json.dumps(minimal_disk_doc()), audit=False)
    assert scn.dimension == 2
    assert isinstance(scn.body, sw.Ball)


def test_l2_out_of_range_names_the_field():
    doc = minimal_disk_doc()
    doc["lipschitz"]["L2"] = 1.5
    with pytest.raises(SchemaError, match=r"lipschitz\.L2"):
        parse_scenario(json.dumps(doc), audit=False)


def test_missing_field_reports_path():
    doc = minimal_disk_doc()
    del doc["body"]["radius"]
    with pytest.raises(SchemaError, match=r"body\.radius"):
        parse_scenario(json.dumps(doc), audit=False)


def test_audit_failure_on_underdeclared_l2():
    doc = minimal_disk_doc()
    doc["contraction"] = {"type": "affine",
                          "matrix": [[0.3, 0.0], [0.0, 0.3]],
                          "lambda_coupling": "constant"}
    doc["lipschitz"]["L2"] = 0.1
    with pytest.raises(AuditFailure):
        parse_scenario(json.dumps(doc))
    # same document is accepted with the audit disabled
    parse_scenario(json.dumps(doc), audit=False)


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
    lines = open(out1).read().splitlines()
    assert len(lines) == 1026                  # header + n + 1 node rows
    assert lines[0].startswith("t,u_1,u_2,x_1,x_2,step_iters,step_bound")
    assert open(out1, "rb").read() == open(out2, "rb").read()
    # companion plot file
    plot = str(tmp_path / "a.plot.csv")
    assert os.path.exists(plot)
    assert open(plot).readline().strip() == "t,x_1,x_2"


# --- periodic / equilibrium / degree ---------------------------------------------

def test_periodic_json_metadata(tmp_path, disk_path):
    out = str(tmp_path / "orbit.json")
    assert main(["periodic", "--scenario", disk_path, "--out", out,
                 "--tol", "1e-8", "--n", "512"]) == 0
    doc = json.loads(open(out).read())
    assert doc["version"] == sw.__version__
    assert len(doc["scenario_sha256"]) == 64
    assert doc["tolerances"]["tol"] == 1e-8
    assert doc["orbit"]["residual"] <= 1e-8
    assert doc["orbit"]["in_omega"] is True
    assert np.allclose(doc["orbit"]["q_star"], (1.0, 0.0), atol=1e-6)


def test_equilibrium_json(tmp_path, disk_path):
    out = str(tmp_path / "eq.json")
    assert main(["equilibrium", "--scenario", disk_path, "--out", out]) == 0
    doc = json.loads(open(out).read())
    eq = doc["equilibrium"]
    assert eq["verdict"] == "stable"
    assert eq["alpha"] == pytest.approx(-2.0, abs=1e-6)
    assert np.allclose(eq["x0"], (1.0, 0.0), atol=1e-8)


def test_degree_command(tmp_path, disk_path):
    out = str(tmp_path / "deg.json")
    rc = main(["degree", "--scenario", disk_path, "--out", out, "--n", "128",
               "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1;0.9,0.1"])
    assert rc == 0
    doc = json.loads(open(out).read())
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


# --- continue ----------------------------------------------------------------------

def test_continue_json_and_plot(tmp_path, forced_path):
    out = str(tmp_path / "branch.json")
    rc = main(["continue", "--scenario", forced_path, "--out", out,
               "--lambda-grid", "0.05:0.15:2", "--tol", "1e-5", "--n", "512"])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["failures"] == []
    lams = [o["lambda"] for o in doc["orbits"]]
    assert lams == [0.05, 0.15]
    assert all(o["residual"] <= 1e-5 for o in doc["orbits"])
    plot = str(tmp_path / "branch.plot.csv")
    assert open(plot).readline().strip() == "lambda,residual,seed_distance"


def test_continue_no_warm_start_matches(tmp_path, forced_path):
    out_a = str(tmp_path / "warm.json")
    out_b = str(tmp_path / "cold.json")
    args = ["continue", "--scenario", forced_path, "--tol", "1e-5", "--n", "256",
            "--lambda-grid", "0.05:0.1:2"]
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b, "--no-warm-start"]) == 0
    a = json.loads(open(out_a).read())
    b = json.loads(open(out_b).read())
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
    doc = json.loads(open(out).read())
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 6


def test_json_outputs_reproducible(tmp_path, disk_path):
    out1 = str(tmp_path / "v1.json")
    out2 = str(tmp_path / "v2.json")
    for out in (out1, out2):
        assert main(["equilibrium", "--scenario", disk_path, "--out", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


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
