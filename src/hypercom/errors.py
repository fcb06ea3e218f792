"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "NumericalError", "ValidationError"]


class ValidationError(ValueError):
    """Rejected input: off-model point, nonpositive mass, malformed file."""


class NumericalError(ArithmeticError):
    """A computation left the regime where its accuracy is guaranteed."""


class ConvergenceError(NumericalError):
    """An iteration hit its cap before reaching tolerance.

    Carries the best iterate, the gradient norm it reached and the
    number of steps taken, so callers can inspect how close the run got.
    """

    def __init__(
        self, message, last_iterate=None, gradient_norm=None, iterations=None
    ):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.gradient_norm = gradient_norm
        self.iterations = iterations
