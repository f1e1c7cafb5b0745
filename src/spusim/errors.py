"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class SpuSimError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(SpuSimError):
    """Operands disagree on dimension or shape."""


class MatrixFormatError(SpuSimError):
    """A matrix (file or array) violates the expected format."""


class NotPositiveDefiniteError(SpuSimError):
    """A matrix required to be positive definite is not.

    Carries the offending minimum eigenvalue when it is known.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class DeadCellError(SpuSimError):
    """A cell produced no usable signal where one was required."""


class NonFiniteStateError(SpuSimError, RuntimeError):
    """A simulated state overflowed to NaN or infinity.

    Also a ``RuntimeError``, so callers may catch either class.
    """


class QuantizationError(SpuSimError):
    """No realizable hardware configuration could be found."""
