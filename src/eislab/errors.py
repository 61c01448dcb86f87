"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or numerically on top of) a pole."""


class ToleranceError(RuntimeError):
    """Quadrature could not meet the requested tolerance.

    Carries the best value obtained and its error estimate so callers can
    decide whether to accept it anyway.
    """

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class DegenerateParameterError(ValueError):
    """Closed form degenerates at these parameters; a limit formula applies."""


class ValidationError(ValueError):
    """Ingested data failed a structural or arithmetic consistency check."""


class MissingEigenvalueError(KeyError):
    """A Hecke eigenvalue needed by the computation is not available."""


class ConvergenceError(RuntimeError):
    """A truncated series or contour integral did not converge as required."""


class InvariantError(RuntimeError):
    """An identity the mathematics guarantees (a realness, a proven bound)
    failed numerically: the inputs to the computation are corrupt."""
