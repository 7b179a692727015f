"""Exception hierarchy shared across the toolkit, and the wording of
numpy.loadtxt errors that the CSV readers pass on.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

import re


class CaladError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CaladError):
    """Invalid or conflicting configuration."""

    exit_code = 1


class DataError(CaladError):
    """Unreadable, malformed, or degenerate input data."""

    exit_code = 2


class NumericalError(CaladError):
    """A numerical contract was violated at runtime."""

    exit_code = 3


# numpy.loadtxt numbers the row of a cell it cannot convert from 0, though
# its other messages number data rows from 1
_UNCONVERTED_CELL = re.compile(
    r"(could not convert string .* at row )(\d+)(, column \d+\.)$", re.DOTALL)


def loadtxt_message(exc: Exception) -> str:
    """numpy.loadtxt's error text, every row numbered from 1 among the
    data rows (blank and comment lines skipped), as calad counts them."""
    return _UNCONVERTED_CELL.sub(lambda m: f"{m[1]}{int(m[2]) + 1}{m[3]}", str(exc))
