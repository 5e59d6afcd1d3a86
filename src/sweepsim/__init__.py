"""sweepsim: simulation and certification toolkit for perturbed sweeping
processes with moving convex constraints."""

from . import errors
from .equilibrium import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    BoundaryOracle,
    EquilibriumReport,
    StabilityVerdict,
    analyze_equilibrium,
    boundary_oracle,
    find_switched_equilibrium,
    sliding_field,
    stability_verdict,
)
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
from .periodic import (
    DegreeResult,
    PeriodicOrbit,
    continue_branch,
    degree_2d,
    find_periodic,
    poincare_map,
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
