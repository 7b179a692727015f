"""Exception hierarchy shared across the toolkit, and ``loadtxt``, the
one numeric CSV reader, which maps every failure to read to a DataError.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

import re
import warnings


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


_UNCONVERTED_CELL = re.compile(
    r"(could not convert string .* at row )(\d+)(, column \d+\.)$", re.DOTALL)


def loadtxt(path, what: str, **kwargs):
    """numpy.loadtxt(path, delimiter=",", ndmin=2, **kwargs), no rows for
    an empty file. A file it cannot open or parse is a DataError "cannot
    read <what> <path>: <reason>" that numbers rows from 1 among the data
    rows, as calad counts them; numpy numbers an unconvertible cell's from 0."""
    # numpy loads here, not at the top: the package imports this module
    # before the CLI sets OPENBLAS_NUM_THREADS
    import numpy as np

    try:
        with warnings.catch_warnings():
            # an empty file warns and returns no rows, which callers reject
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, delimiter=",", ndmin=2, **kwargs)
    except (OSError, ValueError) as exc:
        reason = _UNCONVERTED_CELL.sub(lambda m: f"{m[1]}{int(m[2]) + 1}{m[3]}", str(exc))
        raise DataError(f"cannot read {what} {path}: {reason}") from exc
