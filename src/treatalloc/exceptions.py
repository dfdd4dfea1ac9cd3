"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, data/config
validation problems exit 2, numeric and infeasibility problems exit 3.
"""


class TreatallocError(Exception):
    """Base class for all package errors."""


class ParseError(TreatallocError):
    """A file could not be parsed; message carries the file and the 1-based
    line number (``<path>: line N: ...``)."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(TreatallocError):
    """An invariant on input data or arguments is violated."""


class ConfigError(TreatallocError):
    """A configuration value is missing, malformed, or out of range."""


class InfeasibleError(TreatallocError):
    """No allocation satisfies the budget; carries the achievable floor cost."""

    def __init__(self, message: str, floor_cost: float | None = None):
        super().__init__(message)
        self.floor_cost = floor_cost


class NumericError(TreatallocError):
    """A computation produced non-finite values."""
