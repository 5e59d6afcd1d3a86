"""sweepsim: simulation and certification toolkit for perturbed sweeping
processes with moving convex constraints.

``errors``, ``geometry``, ``integrator`` and ``scenario`` load with the
package.  The analyses load on first use: ``sweepsim.periodic`` (T-periodic
points, degree, continuation) and ``sweepsim.equilibrium`` (switched boundary
equilibria) are imported by the first access to one of their names here, or
to the submodule itself, so a process that only integrates never loads them.
Their names are bound here the moment the submodule has loaded, however it
was imported, so they are the objects it defined even if a caller rebinds
them in the submodule later.  ``dir(sweepsim)`` lists every public name
before any of them has loaded.
"""

import importlib as _importlib
import sys as _sys
from types import ModuleType as _ModuleType

from . import errors
from .geometry import (
    Ball,
    Box,
    ConvexBody,
    CounterexampleInstance,
    Ellipsoid,
    HalfspacePolytope,
    distance,
    hausdorff,
    normal_cone_residual,
    projection_gap_search,
    segment_body,
    sphere_directions,
)
from .integrator import (
    Trajectory,
    implicit_step,
    moreau_epsilon,
    moreau_residual,
    refine,
    run,
    run_batch,
    step_variation_check,
)
from .scenario import (
    CONSTANT,
    LINEAR,
    AffineContraction,
    AuditReport,
    ForceSpec,
    Fourier,
    PiecewiseLinear,
    SqrtCusp,
    SweepingScenario,
    TanhRadialContraction,
    TanhTerm,
    ZeroContraction,
    contraction_fixed_point,
    drift_variation_bound,
    lipschitz_audit,
    omega_region,
)

__version__ = "0.1.0"

# the names exported from a submodule that loads on first use
_LAZY = {
    **dict.fromkeys((
        "MARGINAL", "STABLE", "UNSTABLE", "BoundaryOracle", "EquilibriumReport",
        "StabilityVerdict", "analyze_equilibrium", "boundary_oracle",
        "find_switched_equilibrium", "sliding_field", "stability_verdict",
    ), "equilibrium"),
    **dict.fromkeys((
        "DegreeResult", "PeriodicOrbit", "continue_branch", "degree_2d", "find_periodic",
        "poincare_map",
    ), "periodic"),
}
_SUBMODULES = ("equilibrium", "periodic")


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # The import system binds a submodule here once its code has run, so
        # its names are taken now, before any caller can rebind them there:
        # the package keeps the objects the submodule defined, as an eager
        # import would.
        first = name in _SUBMODULES and name not in vars(self)
        super().__setattr__(name, value)
        if first:
            for lazy, home in _LAZY.items():
                if home == name:
                    super().__setattr__(lazy, getattr(value, lazy))


_sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _SUBMODULES or name in _LAZY:
        _importlib.import_module(f"{__name__}.{_LAZY.get(name, name)}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_SUBMODULES))


# what ``from sweepsim import *`` binds: every public name and submodule,
# the ones that load on first use included
__all__ = [name for name in __dir__() if not name.startswith("_")]
