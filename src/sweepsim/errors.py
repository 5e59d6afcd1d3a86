"""Exception hierarchy shared by all sweepsim modules.

Every error is a ``SweepsimError`` in exactly one of three families, each one
exit code of the command line: ``InvalidInput`` (2), the input lies outside
what the computation covers; ``NonConvergence`` (3), a solve or a search used
up its budget; ``FieldVanishesOnBoundary`` (4), a planar degree is undefined.
``InvalidInput`` is not a ``ValueError``: the catalog re-raises a constructor's
``ValueError`` as a ``SchemaError`` naming its path, and would wrap it twice.
"""


class SweepsimError(Exception):
    """Base class for all package-specific errors."""


# --- InvalidInput: exit 2 -----------------------------------------------------

class InvalidInput(SweepsimError):
    """The input lies outside what the requested computation covers."""


class SchemaError(InvalidInput):
    """Scenario document violates the schema; message carries the field path."""


class AuditFailure(InvalidInput):
    """Empirical Lipschitz/variation estimates exceed declared constants."""


class NotAutonomous(InvalidInput, ValueError):
    """The scenario at lambda = 0 is not an autonomous constant-constraint
    process: its drift, contraction or time dependence does not vanish."""


class NotPeriodic(InvalidInput, ValueError):
    """The drift or the forcing is not T-periodic, so the period-T return
    map has no fixed point to search for."""


class NonSmoothBody(InvalidInput):
    """Boundary oracle requested for a body without a smooth boundary."""


class ZeroDirection(InvalidInput):
    """A support-function direction with zero norm was supplied."""


class DimensionTooLarge(InvalidInput):
    """Brute-force oracle requested in dimension above its limit."""


class PointOutsideBody(InvalidInput):
    """Normal-cone query at a point not in the body (the cone is empty there)."""


class TimeOutOfRange(InvalidInput):
    """Time argument outside the interval a signal is defined on."""


# --- NonConvergence: exit 3 ---------------------------------------------------

class NonConvergence(SweepsimError):
    """An iterative solve exhausted its budget before meeting tolerance.

    Carries ``residual`` (last measured gap) and ``budget`` (the iteration
    count it was allowed) when available.
    """

    def __init__(self, message, residual=None, budget=None):
        super().__init__(message)
        self.residual = residual
        self.budget = budget


# grid refinement (``refine``) reached its cap without meeting the target
BudgetExhausted = NonConvergence


class NoConvergence(NonConvergence):
    """Periodic-point iteration stalled; carries the best residual seen.
    ``continue_branch`` skips such a lambda, and no other NonConvergence."""


class NotFound(NonConvergence):
    """A search exhausted its trial or Newton budget without a hit."""


class WrongSign(NotFound):
    """Equilibrium solve converged but the multiplier has the wrong sign."""


class MeshExhausted(NonConvergence):
    """Boundary mesh refinement hit its cap before the angle criterion held;
    carries the last largest angle step and the per-edge cap."""


class AmbiguousZeroMode(NonConvergence):
    """Could not isolate exactly one structural zero eigenvalue."""


class DegenerateGradient(NonConvergence):
    """Boundary gradient vanished where a nonzero normal is required."""


# --- FieldVanishesOnBoundary: exit 4 ------------------------------------------

class FieldVanishesOnBoundary(SweepsimError):
    """Displacement field vanishes on the polygon boundary; degree undefined."""
