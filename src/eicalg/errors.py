"""Exception types shared across the package, each with the exit code the
command line returns for it."""


class EicalgError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2  # usage or expression error


class UsageError(EicalgError, ValueError):
    """A setting, argument or input outside what the package accepts."""


class SpaceMismatchError(EicalgError, ValueError):
    """A random variable was combined with a space it does not live on."""


class NormalizationError(EicalgError, ValueError):
    """A functional cannot be brought to normal form (e.g. reciprocal of zero)."""


class ExactModeError(EicalgError, ValueError):
    """An operation requiring exact rational arithmetic met a float-only node."""


class EvaluationError(EicalgError, ValueError):
    """Evaluation failed: unbound variable, reciprocal of zero, domain error."""

    exit_code = 3  # data error


class ParseError(EicalgError, ValueError):
    """Surface-syntax error, with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class DataError(EicalgError, ValueError):
    """Malformed delimited data input."""

    exit_code = 3
