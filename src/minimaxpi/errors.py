"""Exception types shared across the solver library."""


class MinimaxPIError(Exception):
    """Base class for all library errors."""


class MaxItersExceeded(MinimaxPIError):
    """An iterative solve did not reach its tolerance within the sweep budget."""


class MaxStepsExceeded(MinimaxPIError):
    """The asynchronous run exhausted its step budget before the stopping rule fired.

    Carries the last state and trace so callers can still inspect the run.
    """

    def __init__(self, message, state=None, trace=None):
        super().__init__(message)
        self.state = state
        self.trace = trace


class LPNumericalFailure(MinimaxPIError):
    """An LP answer failed its certificate, enumeration found no vertex, or
    a game's two LP values disagree."""


class InvalidBeta(MinimaxPIError):
    """A two-stage scaling factor violates beta > 1 or alpha * beta < 1."""


class ParseError(MinimaxPIError):
    """A problem file could not be parsed."""


class ValidationError(MinimaxPIError):
    """A problem file parsed but violated a schema or model invariant."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class NonContractive(MinimaxPIError):
    """A terminating game failed the contraction screen at load time."""


class InputFieldError(MinimaxPIError, ValueError):
    """A model or aggregation input is malformed; ``field`` names it, down
    to the first bad entry where there is one (``payoffs[0][1][0]``,
    ``next1[2][0]``, ``outcomes[0][0][1]``, ``reps1``, ``phi2``).  The
    message starts with the field unless ``prefix`` is false."""

    def __init__(self, field, message, prefix=True):
        super().__init__(f"{field} {message}" if prefix else message)
        self.field = field


class MissingAggregationRow(MinimaxPIError):
    """A reachable state has no aggregation-probability row."""

