"""The analyses load on first use: importing the package and the CLI loads
neither ``sweepsim.periodic`` nor ``sweepsim.equilibrium`` (nor ``logging``,
which only ``periodic`` needs), a CLI command loads only the analysis it
runs, and every exported name resolves, on the package and through
``from sweepsim import``, to the object its defining module holds.  Each
check runs in a fresh interpreter, where nothing has loaded yet."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import sweepsim as sw
from sweepsim import cli

SRC = pathlib.Path(sw.__file__).parent.parent
DISK = str(SRC.parent / "demos" / "scenarios" / "disk.json")
ANALYSES = ("sweepsim.periodic", "sweepsim.equilibrium", "logging")

# the exported names by defining module
DEFINED_IN = {
    "equilibrium": [
        "MARGINAL", "STABLE", "UNSTABLE", "BoundaryOracle", "EquilibriumReport",
        "StabilityVerdict", "analyze_equilibrium", "boundary_oracle",
        "find_switched_equilibrium", "sliding_field", "stability_verdict",
    ],
    "geometry": [
        "Ball", "Box", "ConvexBody", "CounterexampleInstance", "Ellipsoid", "HalfspacePolytope",
        "distance", "hausdorff", "normal_cone_residual", "projection_gap_search", "segment_body",
        "sphere_directions",
    ],
    "integrator": [
        "Trajectory", "implicit_step", "moreau_epsilon", "moreau_residual", "refine", "run",
        "run_batch", "step_variation_check",
    ],
    "periodic": [
        "DegreeResult", "PeriodicOrbit", "continue_branch", "degree_2d", "find_periodic",
        "poincare_map",
    ],
    "scenario": [
        "CONSTANT", "LINEAR", "AffineContraction", "AuditReport", "ForceSpec", "Fourier",
        "PiecewiseLinear", "SqrtCusp", "SweepingScenario", "TanhRadialContraction", "TanhTerm",
        "ZeroContraction", "contraction_fixed_point", "drift_variation_bound", "lipschitz_audit",
        "omega_region",
    ],
}


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; it leaves its result in ``out``,
    which comes back through JSON."""
    program = f"import json, sys\n{code}\nprint(json.dumps(out))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = f"out = sorted(m for m in {ANALYSES!r} if m in sys.modules)"


def test_import_loads_no_analysis():
    code = f"import sweepsim, sweepsim.cli, sweepsim.presets\n{LOADED}"
    assert fresh(code) == []


def test_dir_lists_every_name_before_it_loads():
    code = ("import sweepsim\n"
            "names = [n for n in dir(sweepsim) if not n.startswith('_')]\n"
            f"{LOADED}\n"
            "out = [names, out]")
    names, loaded = fresh(code)
    exported = sorted(name for names in DEFINED_IN.values() for name in names)
    assert len(exported) == 53
    assert sorted(set(names) - {"errors", "geometry", "integrator", "periodic", "equilibrium",
                                "scenario"}) == exported
    assert loaded == []


@pytest.mark.parametrize("argv, expected", [
    (["simulate", "--n", "64"], []),
    (["validate", "--n", "64", "--seed", "1"], []),
    (["equilibrium"], ["sweepsim.equilibrium"]),
    (["degree", "--n", "16", "--polygon", "0.9,-0.1;1.1,-0.1;1.1,0.1;0.9,0.1"],
     ["logging", "sweepsim.periodic"]),
], ids=["simulate", "validate", "equilibrium", "degree"])
def test_a_command_loads_only_its_analysis(tmp_path, argv, expected):
    argv = [argv[0], "--scenario", DISK, "--out", str(tmp_path / "artifact"), *argv[1:]]
    code = ("import contextlib, io\n"
            "from sweepsim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            f"{LOADED}")
    assert fresh(code) == expected


def test_every_name_resolves_to_its_defining_module():
    # each name is read from the package first: the first name of a lazy
    # module loads it, the rest resolve from the loaded module
    code = (
        "import importlib, sweepsim\n"
        "from sweepsim import cli\n"
        f"defined_in = {DEFINED_IN!r}\n"
        "out = []\n"
        "for module, names in defined_in.items():\n"
        "    for name in names:\n"
        "        via_attr = getattr(sweepsim, name)\n"
        "        scope = {}\n"
        "        exec(f'from sweepsim import {name}', scope)\n"
        "        home = getattr(importlib.import_module(f'sweepsim.{module}'), name)\n"
        "        if not (via_attr is home and scope[name] is home):\n"
        "            out.append(name)\n"
        "for module in ('periodic', 'equilibrium'):\n"
        "    if getattr(sweepsim, module) is not sys.modules[f'sweepsim.{module}']:\n"
        "        out.append(module)\n"
        "for name in ('find_periodic', 'degree_2d', 'continue_branch', 'analyze_equilibrium'):\n"
        "    if getattr(cli, name) is not getattr(sweepsim, name):\n"
        "        out.append(f'cli.{name}')\n"
    )
    assert fresh(code) == []


def test_star_import_binds_every_name():
    code = ("scope = {}\n"
            "exec('from sweepsim import *', scope)\n"
            "out = sorted(name for name in scope if name != '__builtins__')")
    exported = [name for names in DEFINED_IN.values() for name in names]
    assert fresh(code) == sorted(exported + list(DEFINED_IN) + ["errors"])


def test_submodule_attributes_and_unknown_names():
    assert sw.periodic.MESH_CAP == 4096
    assert sw.equilibrium.STABLE == "stable"
    for module in (sw, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


ENTRY_POINTS = {"find_periodic": "periodic", "degree_2d": "periodic",
                "continue_branch": "periodic", "analyze_equilibrium": "equilibrium"}


def test_the_tracer_restores_the_cli_entry_points():
    # the benchmark's tracer patches each entry point in its module before
    # it reads the cli name; cli must still resolve to the module's original
    tracer = SRC.parent / "bench" / "tracer.py"
    code = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracer', {str(tracer)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "from sweepsim import cli, equilibrium, periodic\n"
        "spans = tracer.Tracer()\n"
        "spans.install()\n"
        "spans.uninstall()\n"
        f"homes = {{'periodic': periodic, 'equilibrium': equilibrium}}\n"
        f"out = [name for name, module in {ENTRY_POINTS!r}.items()\n"
        "       if getattr(cli, name) is not getattr(homes[module], name)\n"
        "       or hasattr(getattr(cli, name), '__wrapped__')]\n"
    )
    assert fresh(code) == []


@pytest.mark.parametrize("load", ["import sweepsim.{module}", "from sweepsim import {module}"])
def test_a_rebinding_in_the_module_does_not_reach_the_package(load):
    # names read for the first time after the module's own binding was
    # replaced are still the objects the module defined
    code = (
        "import sweepsim, sweepsim.cli\n"
        f"entry_points = {ENTRY_POINTS!r}\n"
        "originals = {}\n"
        "for name, module in entry_points.items():\n"
        f"    exec({load!r}.format(module=module))\n"
        "    home = sys.modules[f'sweepsim.{module}']\n"
        "    originals[name] = getattr(home, name)\n"
        "    setattr(home, name, lambda *args, **kwargs: None)\n"
        "out = [name for name, original in originals.items()\n"
        "       if getattr(sweepsim, name) is not original\n"
        "       or getattr(sweepsim.cli, name) is not original]\n"
    )
    assert fresh(code) == []
