"""``run`` and ``run_batch`` keep the last resolved uniform grids on the
scenario: a warm scenario must give the results of a cold one bit for bit,
each (lam, n) is resolved once while it stays in the memo, the memo stays
bounded, and the shared arrays are read-only."""

import dataclasses

import numpy as np
import pytest

import sweepsim as sw
from sweepsim import integrator, periodic
from sweepsim.integrator import GRID_MEMO
from sweepsim.presets import (
    disk_scenario,
    drag_scenario,
    forced_disk_scenario,
    fourier_contraction_scenario,
)
from sweepsim.scenario import SweepingScenario


def counting_resolve(monkeypatch):
    """Patch ``SweepingScenario.resolve`` to record the (lam, n) of every call."""
    calls = []
    real = SweepingScenario.resolve

    def resolve(self, lam, times):
        calls.append((float(lam), len(times) - 1))
        return real(self, lam, times)

    monkeypatch.setattr(SweepingScenario, "resolve", resolve)
    return calls


def orbit_bytes(orbit):
    traj = orbit.trajectory
    check = orbit.degree_check
    return (orbit.q_star.tobytes(), traj.x_nodes.tobytes(), traj.u_nodes.tobytes(),
            traj.J_nodes.tobytes(), traj.iters.tobytes(), traj.bounds.tobytes(),
            repr(orbit.residual), check.degree, repr(check.multipliers), repr(check.sigma_min),
            repr(check.h))


@pytest.mark.parametrize("make, lam", [(fourier_contraction_scenario, 1.0),
                                       (forced_disk_scenario, 0.1)])
def test_warm_scenario_matches_cold(make, lam):
    warm = make()
    sw.find_periodic(warm, lam, 1e-6, n_schedule=(8, 32), q0=(0.3, 0.1))
    assert len(warm._grids) == 2
    again = sw.find_periodic(warm, lam, 1e-6, n_schedule=(8, 32))
    cold = sw.find_periodic(make(), lam, 1e-6, n_schedule=(8, 32))
    assert orbit_bytes(again) == orbit_bytes(cold)


def test_find_periodic_resolves_once_per_grid(monkeypatch):
    calls = counting_resolve(monkeypatch)
    maps = []
    real_run = periodic.run

    def run(scn, lam, q, n, *args):
        maps.append(n)
        return real_run(scn, lam, q, n, *args)

    monkeypatch.setattr(periodic, "run", run)
    orbit = sw.find_periodic(fourier_contraction_scenario(), 1.0, 1e-6, n_schedule=(8, 32))
    assert orbit.degree_check is not None      # its stencil reuses the n = 32 grid
    assert sorted(calls) == [(1.0, 8), (1.0, 32)]
    assert maps.count(8) > 1 and maps.count(32) > 1


def test_memo_is_bounded_and_least_recently_used_goes_first(monkeypatch):
    scn = forced_disk_scenario()
    keys = [(lam, n) for lam in (0.0, 0.3) for n in (4, 8, 16)]
    for lam, n in keys:
        sw.run(scn, lam, (0.5, 0.5), n)
        assert len(scn._grids) <= GRID_MEMO
    assert list(scn._grids) == keys[-GRID_MEMO:]
    calls = counting_resolve(monkeypatch)
    oldest = keys[-GRID_MEMO]
    sw.run_batch(scn, oldest[0], np.zeros((2, 2)), oldest[1])    # a hit moves to the end
    sw.run(scn, keys[0][0], (0.5, 0.5), keys[0][1])              # a miss evicts the oldest
    assert calls == [keys[0]]
    assert list(scn._grids) == keys[-GRID_MEMO + 2:] + [oldest, keys[0]]


def test_evicted_grid_gives_the_same_run():
    scn = forced_disk_scenario()
    first = sw.run(scn, 0.2, (0.5, 0.5), 16)
    for n in range(17, 17 + GRID_MEMO):
        sw.run(scn, 0.2, (0.5, 0.5), n)
    assert (0.2, 16) not in scn._grids
    again = sw.run(scn, 0.2, (0.5, 0.5), 16)
    assert again.times is not first.times
    assert np.array_equal(again.x_nodes, first.x_nodes)
    assert np.array_equal(again.iters, first.iters)


def test_shared_grid_arrays_are_read_only():
    scn = forced_disk_scenario()
    traj = sw.run(scn, 0.2, (0.5, 0.5), 8)
    assert sw.run(scn, 0.2, (0.1, 0.0), 8).times is traj.times
    with pytest.raises(ValueError, match="read-only"):
        traj.times[1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        traj.bounds[0] = 0.0
    _, res, _ = integrator._uniform_grid(scn, 0.2, 8)
    with pytest.raises(ValueError, match="read-only"):
        res.drift[0, 0] = 1.0
    with pytest.raises(TypeError):
        res.planar.drift[0] = 1.0
    # the nodes belong to the caller
    traj.x_nodes[0] = 0.0


@pytest.mark.parametrize("make", [disk_scenario, drag_scenario, forced_disk_scenario,
                                  fourier_contraction_scenario])
@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_moreau_residual_reads_the_run_grid(monkeypatch, make, lam):
    # the slack from the memoized grid is the slack of a fresh resolve, and
    # reading the memo leaves its keys and their order as they were
    scn = make()
    traj = sw.run(scn, lam, (0.5, 0.5), 64)
    sw.run(scn, 0.3, (0.5, 0.5), 16)      # another grid, now the newest
    keys = list(scn._grids)
    calls = counting_resolve(monkeypatch)
    slack = sw.moreau_residual(traj, scn, lam)
    assert calls == []
    assert list(scn._grids) == keys
    copied = dataclasses.replace(traj, times=traj.times.copy())
    assert repr(sw.moreau_residual(copied, scn, lam)) == repr(slack)
    assert calls == [(lam, 64)]
    assert list(scn._grids) == keys


def test_moreau_residual_of_an_evicted_grid_resolves(monkeypatch):
    scn = forced_disk_scenario()
    traj = sw.run(scn, 0.2, (0.5, 0.5), 16)
    slack = sw.moreau_residual(traj, scn, 0.2)
    for n in range(17, 17 + GRID_MEMO):
        sw.run(scn, 0.2, (0.5, 0.5), n)
    sw.run(scn, 0.2, (0.5, 0.5), 16)          # (0.2, 16) again, on a new grid
    keys = list(scn._grids)
    calls = counting_resolve(monkeypatch)
    assert repr(sw.moreau_residual(traj, scn, 0.2)) == repr(slack)
    assert calls == [(0.2, 16)]
    assert list(scn._grids) == keys


@pytest.mark.parametrize("n", [8.0, "8", None])
def test_step_count_must_be_an_integer(n):
    scn = forced_disk_scenario()
    sw.run(scn, 0.2, (0.5, 0.5), 8)       # a cached grid must not accept 8.0
    with pytest.raises(TypeError):
        sw.run(scn, 0.2, (0.5, 0.5), n)
    with pytest.raises(TypeError):
        sw.run_batch(scn, 0.2, np.zeros((1, 2)), n)
