"""Error type shared across the package.

Every failure mode carries a stable short code (e.g. ``"NOT_STATIONARY"``)
so callers and the command line driver can dispatch on it without parsing
messages.
"""

from __future__ import annotations


class EmaError(Exception):
    """Exception with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


# Codes that indicate bad inputs / specification problems (CLI exit 2).
VALIDATION_CODES = frozenset(
    {
        "INVALID_MODEL",
        "INVALID_SCHEDULE",
        "EMPTY_SCHEDULE",
        "SCHEDULE_MODE_MISMATCH",
        "PARTICLES_TOO_FEW",
        "NO_FREE_PARAMS",
        "LIKELIHOOD_MODE_MISMATCH",
        "MISSING_WAKE_TIMES",
        "UNKNOWN_FIGURE",
        "UNKNOWN_KEY",
        "BAD_PARAMETER_MAP",
        "BAD_SCENARIO",
        "NO_OBSERVATIONS",
    }
)

# Codes raised by numerical procedures (CLI exit 3).
NUMERICAL_CODES = frozenset(
    {
        "NON_FINITE",
        "NO_PRINCIPAL_LOG",
        "NOT_STATIONARY",
        "NEGATIVE_RATE",
        "SINGULAR_INNOVATION",
        "DEGENERATE_WEIGHTS",
        "NONFINITE_LIKELIHOOD",
        "CALIBRATION_FAILED",
        "NOT_PSD",
    }
)

# Codes raised while reading or writing files (CLI exit 4).
IO_CODES = frozenset(
    {
        "PARSE_ERROR",
        "NON_MONOTONE_TIME",
        "NA_IN_U",
        "FILE_NOT_FOUND",
    }
)
