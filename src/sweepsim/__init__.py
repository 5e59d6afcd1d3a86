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
    autonomous_field,
    boundary_oracle,
    find_switched_equilibrium,
    sliding_field,
    sliding_jacobian,
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
    project,
    project_oracle,
    projection_gap_search,
    segment_body,
    sphere_directions,
    support,
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
    generalized_ic,
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
    eval_contraction,
    eval_drift,
    eval_force,
    lipschitz_audit,
    omega_region,
)

__version__ = "0.1.0"
