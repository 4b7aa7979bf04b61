"""Exception types shared across the package."""

__all__ = [
    "ParameterError",
    "UnsupportedError",
    "PrecisionError",
    "IterationCapError",
    "TableError",
    "InsufficientDataError",
]


class ParameterError(ValueError):
    """A parameter violates its documented domain."""


class UnsupportedError(ValueError):
    """The requested operation is not defined for this family."""


class PrecisionError(ArithmeticError):
    """A certified error bound exceeds the requested tolerance."""


class IterationCapError(RuntimeError):
    """A citation draw exceeded the float64 maximum, the value cap of ``samplers.author_citations_rvs``."""


class TableError(ValueError):
    """A probability mass table is unfit for sampling."""


class InsufficientDataError(ValueError):
    """Too few samples for the requested estimator."""
