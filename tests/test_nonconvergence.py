"""One non-convergence error: ``BudgetExhausted`` is ``NonConvergence``,
``NoConvergence``, a stalled periodic search, is the subclass that
``continue_branch`` forgives and nothing else does, and the searches that
exhaust a budget raise it with their residual and budget."""

import json
import warnings

import numpy as np
import pytest

import sweepsim as sw

from sweepsim import cli, equilibrium, geometry, periodic
from sweepsim.errors import BudgetExhausted, MeshExhausted, NoConvergence, NonConvergence, NotFound
from sweepsim.presets import disk_scenario


def test_one_error_family():
    assert BudgetExhausted is NonConvergence
    assert issubclass(NoConvergence, NonConvergence)
    assert NoConvergence is not NonConvergence
    err = NoConvergence("stalled", residual=0.5)
    assert (err.residual, err.budget) == (0.5, None)


def test_newton_carries_its_residual_and_budget(monkeypatch):
    monkeypatch.setattr(equilibrium, "NEWTON_BUDGET", 1)
    with pytest.raises(NotFound) as info:
        sw.find_switched_equilibrium(disk_scenario(), (0.6, 0.8))
    assert info.value.residual > 1e-10 and info.value.budget == 1


def test_degree_mesh_carries_its_last_angle_step_and_cap(monkeypatch):
    # the left edge passes 1e-6 from the fixed point (1, 0): the field turns
    # by about pi between two mesh points there
    monkeypatch.setattr(periodic, "MESH_CAP", 64)
    square = [(1 + 1e-6, -0.1), (1.2, -0.1), (1.2, 0.11), (1 + 1e-6, 0.11)]
    with pytest.raises(MeshExhausted) as info:
        sw.degree_2d(disk_scenario(), 0.0, 16, square)
    assert np.pi / 2 <= info.value.residual <= np.pi and info.value.budget == 64


def test_gap_search_carries_its_trial_budget(monkeypatch):
    monkeypatch.setattr(geometry, "_segment_hausdorff", lambda *segments: 0.0)   # no candidate
    with pytest.raises(NotFound) as info:
        sw.projection_gap_search(0, 1000)
    assert info.value.budget == 1000


def failing_at(monkeypatch, error, bad_lam):
    """Make ``find_periodic`` raise ``error`` at ``bad_lam`` only."""
    real = periodic.find_periodic

    def find(scn, lam, *args, **kwargs):
        if lam == bad_lam:
            raise error(f"failed at lambda={lam}", residual=1.0)
        return real(scn, lam, *args, **kwargs)

    monkeypatch.setattr(periodic, "find_periodic", find)


def test_continue_branch_skips_a_stalled_search(monkeypatch):
    failing_at(monkeypatch, NoConvergence, 0.5)
    orbits = periodic.continue_branch(disk_scenario(), [0.0, 0.5, 1.0], (0.9, 0.0), 1e-6,
                                      n_schedule=(32, 64))
    assert [o.lam for o in orbits] == [0.0, 1.0]


def test_continue_branch_propagates_other_nonconvergence(monkeypatch):
    failing_at(monkeypatch, NonConvergence, 0.5)
    with pytest.raises(NonConvergence) as info:
        periodic.continue_branch(disk_scenario(), [0.0, 0.5, 1.0], (0.9, 0.0), 1e-6,
                                 n_schedule=(32, 64))
    assert type(info.value) is NonConvergence


@pytest.mark.parametrize("error", [NonConvergence, NoConvergence, BudgetExhausted])
def test_cli_exit_3(tmp_path, monkeypatch, capsys, error):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(disk_scenario().to_doc()))

    def stalled(*args, **kwargs):
        raise error("stalled", residual=1.0)

    monkeypatch.setattr(cli, "find_periodic", stalled)
    assert cli.main(["periodic", "--scenario", str(path), "--out", str(tmp_path / "p.json")]) == 3
    assert "stalled" in capsys.readouterr().err


def overflowing(d, contraction=None):
    """A ball with the force 1e300 x, and no contraction unless one is given:
    the states reach inf within a few steps."""
    return sw.SweepingScenario(d, sw.Ball(np.zeros(d), 1.0), np.zeros(d),
                               sw.Fourier(np.zeros((0, d)), np.zeros((0, d)), 1.0),
                               contraction or sw.ZeroContraction(),
                               sw.ForceSpec(1e300 * np.eye(d), np.zeros(d)), 1.0, 1.0)


# the affine contraction depends on the state at lam = 0, so the planar
# kernel's steps take the Picard branch rather than the one projection
@pytest.mark.parametrize("scn", [
    overflowing(2),
    overflowing(3),
    overflowing(2, sw.AffineContraction([[0.3, 0.1], [-0.1, 0.2]], (0.05, -0.1))),
], ids=["2", "3", "2-affine"])
@pytest.mark.parametrize("call", [
    lambda scn: sw.run(scn, 0.0, np.full(scn.dimension, 0.5), 8),
    lambda scn: sw.run_batch(scn, 0.0, np.full((2, scn.dimension), 0.5), 8),
], ids=["run", "run_batch"])
def test_non_finite_first_move_raises(scn, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # no RuntimeWarning on the way
        with pytest.raises(NonConvergence, match="first move is inf") as info:
            call(scn)
    assert info.value.residual == np.inf
