"""Exception types shared across the package.

The split mirrors the CLI exit-code contract: configuration/domain/shape
problems are user errors (exit 2), numerical failures are runtime errors
(exit 3).
"""

from __future__ import annotations


class ShapeError(ValueError):
    """Dimension or shape mismatch between matrix/vector arguments."""


class DomainError(ValueError):
    """A parameter or argument lies outside its mathematical domain."""


class ConfigError(ValueError):
    """Invalid model descriptor or experiment configuration."""


class DegenerateMarginError(ValueError):
    """A data column is constant, so its ranks carry no information."""


class SingularityError(RuntimeError):
    """A matrix that must be positive definite is not.

    Attributes
    ----------
    eigenvalue : float or None
        The matrix's smallest eigenvalue.
    cond : float or None
        Its condition number max|lam| / min|lam|, inf where min|lam| = 0.
    """

    def __init__(self, message, eigenvalue=None, cond=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.cond = cond


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Attributes
    ----------
    trace : list
        Per-iteration records (theta, residual norm) for diagnostics.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class McExperimentError(RuntimeError):
    """Too many Monte Carlo replications failed to estimate."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures if failures is not None else {}
