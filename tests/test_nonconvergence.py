"""One non-convergence error: ``BudgetExhausted`` is ``NonConvergence``, and
``NoConvergence``, a stalled periodic search, is the subclass that
``continue_branch`` forgives and nothing else does."""

import json

import pytest

from sweepsim import cli, periodic
from sweepsim.errors import BudgetExhausted, NoConvergence, NonConvergence
from sweepsim.presets import disk_scenario


def test_one_error_family():
    assert BudgetExhausted is NonConvergence
    assert issubclass(NoConvergence, NonConvergence)
    assert NoConvergence is not NonConvergence
    err = NoConvergence("stalled", residual=0.5)
    assert (err.residual, err.budget) == (0.5, None)


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
    assert cli.main(["periodic", "--scenario", str(path), "--out", str(tmp_path / "p.json"),
                     "--no-audit"]) == 3
    assert "stalled" in capsys.readouterr().err
