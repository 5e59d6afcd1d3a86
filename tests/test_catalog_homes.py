"""Each catalog class is the one home of what differs between its types: the
analyses and the CLI ask a body or a drift for its facts (``_level_set``,
``repeats_every``) and never for its type."""

import ast
import inspect
import pathlib

import pytest

import sweepsim
from sweepsim import scenario
from sweepsim.geometry import BODY_TYPES
from sweepsim.scenario import CONTRACTION_TYPES, DRIFT_TYPES

SOURCE = pathlib.Path(sweepsim.__file__).parent
CATALOG = {cls.__name__ for types in (BODY_TYPES, DRIFT_TYPES, CONTRACTION_TYPES)
           for cls in types.values()}
TYPE_MAPS = {"BODY_TYPES", "DRIFT_TYPES", "CONTRACTION_TYPES"}


def _names(node):
    """Every name a subtree spells: variables, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _is_type_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type")


def _type_test_operands(tree):
    """The class operand of every isinstance or issubclass call, and every
    operand compared with a ``type(...)`` call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")):
            yield from node.args[1:]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_type_call, operands)):
                yield from (op for op in operands if not _is_type_call(op))


def test_the_catalog_is_read_from_the_type_maps():
    assert {"Ball", "Ellipsoid", "Fourier", "PiecewiseLinear", "ZeroContraction"} <= CATALOG


def _tested(tree):
    """The names spelled in the class operands of a tree's type tests."""
    return {name for operand in _type_test_operands(tree) for name in _names(operand)}


@pytest.mark.parametrize("method", ["resolve", "_planar"])
def test_resolving_a_scenario_tests_no_part_type(method):
    # each part builds its own planar form, so the scenario takes the form
    # without asking the part's type
    tree = ast.parse(inspect.getsource(getattr(scenario.SweepingScenario, method)).strip())
    assert sorted(_tested(tree) & (CATALOG | {"ForceSpec", "TanhTerm"})) == []


@pytest.mark.parametrize("module", ["periodic", "equilibrium", "integrator", "cli"])
def test_analysis_module_names_no_catalog_class(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    # imported or not, no catalog class is spelled here
    assert sorted(set(_names(tree)) & CATALOG) == []
    assert sorted(_tested(tree) & (CATALOG | TYPE_MAPS)) == []
