"""Exception types shared across the package, and the integer and finite-value checks.

The CLI maps ValidationError to exit code 1 and NumericalError to exit
code 2.
"""

import numbers

import numpy as np


class StableVarError(Exception):
    """Base class for package errors."""


class ValidationError(StableVarError):
    """Invalid inputs: bad parameters, malformed files, too-short series."""


class NumericalError(StableVarError):
    """Numerical failure: singular or ill-conditioned systems, failed fits."""


def _check_int(value, name: str, minimum: int) -> int:
    """``value`` as an int; ValidationError unless it is an integer >= ``minimum`` (no bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _check_finite(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` unchanged; ValidationError if any entry is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} contains non-finite values")
    return values
