"""Ready-made scenarios used across the demos and the test suite."""

from __future__ import annotations

import numpy as np

from .geometry import Ball
from .scenario import (
    CONSTANT,
    LINEAR,
    AffineContraction,
    ForceSpec,
    Fourier,
    PiecewiseLinear,
    SweepingScenario,
    ZeroContraction,
)


def _zero_drift(dim: int, period: float) -> Fourier:
    return Fourier(np.zeros((0, dim)), np.zeros((0, dim)), period, CONSTANT)


def disk_scenario(period: float = 1.0, target=(2.0, 0.0)) -> SweepingScenario:
    """Unit disk, no drift, force ``f(x) = x - target`` with the target
    outside the disk: the flow pins the state to the boundary point facing
    the target, a switched equilibrium."""
    return SweepingScenario(
        dimension=2,
        body=Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=_zero_drift(2, period),
        contraction=ZeroContraction(),
        force=ForceSpec(np.eye(2), -np.asarray(target, dtype=float)),
        period=period,
        L1=8.0,
    )


def drag_scenario() -> SweepingScenario:
    """Unit disk dragged right at speed 2 over [0, 2]; no force, no
    contraction.  Starting on the right edge at (1, 0) the exact solution is
    the scalar play relation x1(t) = max(1, 2t - 1)."""
    return SweepingScenario(
        dimension=2,
        body=Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=PiecewiseLinear([0.0, 2.0], [[0.0, 0.0], [4.0, 0.0]], CONSTANT),
        contraction=ZeroContraction(),
        force=ForceSpec(np.zeros((2, 2)), np.zeros(2)),
        period=2.0,
        L1=0.0,
    )


def forced_disk_scenario() -> SweepingScenario:
    """Disk scenario plus a lambda-scaled circular forcing
    ``lam * (cos 2 pi t, sin 2 pi t)``; at lam = 0 it reduces to the
    autonomous disk scenario exactly."""
    forcing = Fourier([[1.0, 0.0]], [[0.0, 1.0]], 1.0, LINEAR)
    return SweepingScenario(
        dimension=2,
        body=Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=_zero_drift(2, 1.0),
        contraction=ZeroContraction(),
        force=ForceSpec(np.eye(2), [-2.0, 0.0], forcing=forcing),
        period=1.0,
        L1=10.0,
    )


def fourier_contraction_scenario() -> SweepingScenario:
    """Periodically swept disk with an active state contraction: Fourier
    drift of amplitude 0.3, affine 0.3-contraction, and a force pulling
    toward an exterior target so the orbit rides the moving boundary.
    Used for the global periodic-existence experiments."""
    drift = Fourier([[0.3, 0.0]], [[0.0, 0.3]], 1.0, CONSTANT)
    return SweepingScenario(
        dimension=2,
        body=Ball((0.0, 0.0), 1.0),
        interior_point=(0.0, 0.0),
        drift=drift,
        contraction=AffineContraction(0.3 * np.eye(2), np.zeros(2)),
        force=ForceSpec(np.eye(2), [-2.0, 0.0]),
        period=1.0,
        L1=8.0,
    )
