"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter violates its documented domain."""


class UnsupportedError(ValueError):
    """The requested operation is not defined for this family."""


class PrecisionError(ArithmeticError):
    """A certified error bound exceeds the requested tolerance."""


class IterationCapError(RuntimeError):
    """A sampling loop hit its hard iteration cap."""


class TableError(ValueError):
    """A probability mass table is unfit for sampling."""


class InsufficientDataError(ValueError):
    """Too few samples for the requested estimator."""
