"""Exception hierarchy shared by all sweepsim modules."""


class SweepsimError(Exception):
    """Base class for all package-specific errors."""


# --- geometry ---------------------------------------------------------------

class NonConvergence(SweepsimError):
    """An iterative solve exhausted its budget before meeting tolerance.

    Carries ``residual`` (last measured gap) and ``budget`` (the iteration
    count it was allowed) when available.
    """

    def __init__(self, message, residual=None, budget=None):
        super().__init__(message)
        self.residual = residual
        self.budget = budget


class ZeroDirection(SweepsimError):
    """A support-function direction with zero norm was supplied."""


class DimensionTooLarge(SweepsimError):
    """Brute-force oracle requested in dimension above its limit."""


class PointOutsideBody(SweepsimError):
    """Normal-cone query at a point not in the body (the cone is empty there)."""


class NotFound(SweepsimError):
    """A randomized search exhausted its trial budget without a hit."""


# --- scenario / integrator --------------------------------------------------

class TimeOutOfRange(SweepsimError):
    """Time argument outside the interval a signal is defined on."""


# grid refinement (``refine``) reached its cap without meeting the target
BudgetExhausted = NonConvergence


# --- periodic orbits --------------------------------------------------------

class NoConvergence(NonConvergence):
    """Periodic-point iteration stalled; carries the best residual seen.
    ``continue_branch`` skips such a lambda, and no other NonConvergence."""


class FieldVanishesOnBoundary(SweepsimError):
    """Displacement field vanishes on the polygon boundary; degree undefined."""


class MeshExhausted(SweepsimError):
    """Boundary mesh refinement hit its cap before the angle criterion held."""


# --- equilibria ---------------------------------------------------------------

class NonSmoothBody(SweepsimError):
    """Boundary oracle requested for a body without a smooth boundary."""


class DegenerateGradient(SweepsimError):
    """Boundary gradient vanished where a nonzero normal is required."""


class WrongSign(SweepsimError):
    """Equilibrium solve converged but the multiplier has the wrong sign."""


class AmbiguousZeroMode(SweepsimError):
    """Could not isolate exactly one structural zero eigenvalue."""


# --- cli ----------------------------------------------------------------------

class SchemaError(SweepsimError):
    """Scenario document violates the schema; message carries the field path."""


class AuditFailure(SweepsimError):
    """Empirical Lipschitz/variation estimates exceed declared constants."""
