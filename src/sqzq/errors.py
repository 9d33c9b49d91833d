"""Exception types shared across the package."""

__all__ = [
    "SqzqError",
    "NonConvergent",
    "DegenerateSqueezing",
    "NonFiniteState",
    "TruncationTooSmall",
    "GrowthViolation",
    "OutsideBox",
    "ConfigError",
]


class SqzqError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergent(SqzqError):
    """A closed-form or iterative evaluation has no convergent value
    (e.g. a Gaussian integral whose quadratic form is not positive definite)."""


class DegenerateSqueezing(SqzqError):
    """|tau| too close to 1: Gaussian widths blow up and formulas degenerate."""


class NonFiniteState(SqzqError):
    """A state or an output value left the finite floating-point range."""


class TruncationTooSmall(SqzqError):
    """Fock-space truncation too small for the requested check."""


class GrowthViolation(SqzqError):
    """A classical function grew faster than its declared growth class."""


class OutsideBox(SqzqError):
    """Initial data outside the classically allowed rectangle."""


class ConfigError(SqzqError):
    """Invalid or inconsistent run configuration."""
