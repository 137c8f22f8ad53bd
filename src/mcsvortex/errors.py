"""Exception hierarchy and number predicates shared by all solver modules."""

import math
from numbers import Real


class MCSVortexError(Exception):
    """Base class for all package errors."""


class GridMismatch(MCSVortexError):
    """Two fields that must share a grid were built on different grids."""


class PreconditionViolated(MCSVortexError):
    """An operation was called outside its admissible parameter range."""


class SolveFailure(MCSVortexError):
    """A solve that ran but gave no admissible solution.  status names the
    outcome in a sweep table's row, exit_code the command line's exit code:
    2 for an invariant failure, 3 for a solver failure.  iterations counts
    the passes the failed iteration ran (NoConvergence), 0 for the others."""

    status: str
    exit_code: int
    iterations = 0


class NoConvergence(SolveFailure):
    """An iterative solve stalled before reaching its tolerance."""

    status = "no_convergence"
    exit_code = 3

    def __init__(self, iterations: int, residual: float, what: str = "iteration"):
        self.iterations = iterations
        self.residual = residual
        self.what = what
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class SigmaTooSmall(MCSVortexError):
    """Mollification width below the 2h resolvability floor."""


class NegativeArgument(MCSVortexError):
    """Nonlinearity evaluated at a negative argument."""


class OutOfRange(MCSVortexError):
    """Inverse nonlinearity queried outside [f(0), f(T))."""


class QTooSmall(SolveFailure):
    """Coupling q fell at or below the sup norm of the zeroth-order coefficient."""

    status = "q_too_small"
    exit_code = 3


class BoundsViolation(SolveFailure):
    """A converged state broke the pointwise bounds by more than the fixed
    slack ProblemSpec.bound_tol, 1e-6 + 10*sigma^2.

    Signals a discretization failure (e.g. under-resolved mollification),
    not a solver bug.
    """

    status = "bounds_violation"
    exit_code = 2


class ConfigError(MCSVortexError):
    """Malformed or inconsistent run configuration."""


class SnapshotError(MCSVortexError):
    """Unreadable, corrupt, or grid-mismatched field snapshot."""


def _number(value) -> bool:
    """Whether value is a real number, not a bool (a Real too) or a string:
    the package's one type test of a number, made before float() or int()."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _finite(value) -> bool:
    """_number, and finite as a float (an integer beyond float64 is not)."""
    try:
        return _number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _require_positive(name: str, value) -> float:
    """value as a float; ValueError naming it unless positive and finite."""
    if not (_finite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _require_whole(name: str, value, least: int = 1) -> int:
    """value as an int; ValueError naming it unless a whole number >= least."""
    if not (_number(value) and least <= value < math.inf and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)
