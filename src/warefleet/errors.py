"""Exception types shared across the simulator, and the type checks of a
count, of a number and of a list."""

from collections.abc import Iterable
from numbers import Real


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(SimulatorError, ValueError):
    """An argument, parameter set or layout request is invalid."""


def require_integers(**counts: object) -> None:
    """Reject a value that is not an int, such as 10.5 or NaN, naming its field."""
    _require(int, "an integer", counts)


def require_numbers(**values: object) -> None:
    """Reject a value that is not a real number, such as the text "0.5", naming its field."""
    _require(Real, "a number", values)


def require_iterables(**lists: object) -> None:
    """Reject a list of cells that cannot be iterated, such as 5, naming its field."""
    _require(Iterable, "iterable", lists)


def _require(kind, noun: str, values: dict[str, object]) -> None:
    for name, value in values.items():
        if not isinstance(value, kind):
            raise ConfigurationError(f"{name.replace('_', ' ')} must be {noun}, got {value!r}")


class LoadError(SimulatorError, ValueError):
    """A document (layout or scenario file) could not be parsed.

    Carries the 1-based line/column of the first offending character when
    the failure is positional.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
        self.column = column
