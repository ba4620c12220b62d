"""Exception types shared across the package."""


class KdvrmtError(Exception):
    """Base class for all package errors."""


class DomainError(KdvrmtError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(KdvrmtError, RuntimeError):
    """An iterative solver failed to converge.

    Carries the last iterate in ``last_iterate`` so callers can inspect
    or restart from it.
    """

    def __init__(self, message, last_iterate=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class SingularJacobianError(ConvergenceError):
    """Newton hit a (numerically) singular Jacobian."""


class AccuracyError(KdvrmtError, RuntimeError):
    """A quadrature or discretization failed to reach its tolerance."""


class AmbiguityError(KdvrmtError, ValueError):
    """A root problem has several branches; carries all of them."""

    def __init__(self, message, branches=()):
        super().__init__(message)
        self.branches = list(branches)


class GenericityError(KdvrmtError, ValueError):
    """A genericity assumption (nondegeneracy of a critical point) fails."""


class ResolutionError(KdvrmtError, RuntimeError):
    """A spectral grid is too coarse for the requested regime."""


class StabilityError(KdvrmtError, RuntimeError):
    """Time integration blew up or drifted past its conservation budget."""


class PrecisionError(KdvrmtError, RuntimeError):
    """A recurrence computation lost orthogonality."""

    def __init__(self, message, failing_index=None):
        super().__init__(message)
        self.failing_index = failing_index


class BranchError(KdvrmtError, RuntimeError):
    """A boundary-value solve converged to the wrong solution branch."""


class NotOneCutError(KdvrmtError, ValueError):
    """An external field is not one-cut where a one-cut ansatz was used."""


class CatastropheError(KdvrmtError, RuntimeError):
    """A hodograph/characteristic solve hit a gradient catastrophe."""
