"""Fractional lower-order covariance: the dependence measure replacing
covariance when second moments do not exist.

The cross-FLOC of two trajectories at lag k averages
x_i[n] |x_j[n-k]|^B sign(x_j[n-k]) over the n for which both indices are
in range; the normalizer is the window length N - |k|. The first exponent
is 1, as the FLOC moment equations are linear in the VAR coefficients only
then; with B = 1 this is the plain lagged cross-moment.

Every lag moment goes through ``_floc_moments``: with V = X^<B> formed
once, lag k >= 0 is the matrix product X[k:]^T V[:N-k] / (N - k)
(``_kernels.cross_floc_sum``), for one series or a stack of them.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import ValidationError, _check_int
from .series import SeriesMatrix

__all__ = [
    "signed_power",
    "cross_floc",
    "lag_matrix_set",
]


def _check_b(b, name: str = "B") -> float:
    """Exponent ``name`` as a float; ValidationError unless a finite real >= 0 (no bool)."""
    if isinstance(b, bool) or not isinstance(b, numbers.Real) or not 0.0 <= b < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {b!r}")
    return float(b)


def signed_power(x, a: float):
    """|x|^a sign(x), with 0^<0> = 0 so exact zeros never contribute."""
    a = _check_b(a, "exponent")
    x = np.asarray(x, dtype=float)
    out = np.abs(x) ** a * np.sign(x)
    return float(out) if out.ndim == 0 else out


def _as_column(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=float).ravel()
    if arr.shape[0] < 1:
        raise ValidationError(f"{name} is empty")
    return arr


def _floc_moments(x, y, lags: Iterable[int], b: float) -> np.ndarray:
    """Entry [..., l, i, j]: cross-FLOC of x[..., :, i] against y[..., :, j] at lag lags[l].

    ``x`` and ``y`` are float arrays (..., N, r) and (..., N, s), one series per
    leading index; callers check ``b`` and every |k| < N.
    """
    lags = np.asarray(lags, dtype=int)
    sums = _kernels.cross_floc_sum(x, signed_power(y, b), lags)
    return sums / (x.shape[-2] - np.abs(lags))[:, None, None]


def cross_floc(xi, xj, k, b: float):
    """Sample cross-FLOC of ``xi`` against ``xj`` lagged by ``k``, exponent ``b``.

    Averages xi[n] * signed_power(xj[n-k], b) over the valid window, which
    has exactly N - |k| terms. An int ``k`` gives a float; an array of ints
    gives an array of its shape, one value per lag. Float and bool lags are
    refused.
    """
    b = _check_b(b)
    xi = _as_column(xi, "xi")
    xj = _as_column(xj, "xj")
    if xi.shape[0] != xj.shape[0]:
        raise ValidationError(
            f"trajectories must share a length, got {xi.shape[0]} and {xj.shape[0]}"
        )
    n = xi.shape[0]
    lags = np.asarray(k)
    if lags.size == 0:
        raise ValidationError("no lags given")
    if not np.issubdtype(lags.dtype, np.integer):  # bool is not an integer dtype
        raise ValidationError(f"lags must be integers, got {k!r}")
    bad = lags[np.abs(lags) >= n]
    if bad.size:
        raise ValidationError(f"lag {bad[0]} out of range for length {n}: empty window")
    values = _floc_moments(xi[:, None], xj[:, None], lags.ravel(), b)[:, 0, 0].reshape(lags.shape)
    return float(values) if lags.ndim == 0 else values


def lag_matrix_set(series, p: int, b: float) -> np.ndarray:
    """Cross-FLOC matrices (..., 2p, r, r) of the order-p block system: entry [p - 1 + k]
    holds (i, j) = cross_floc(column i, column j, k, b), k = -(p-1)..p.

    ``series`` is a SeriesMatrix or a stack (..., n, r) of series, one per
    leading index; each series gets the bits it gets alone.
    """
    b = _check_b(b)
    _check_int(p, "order", 1)
    values = series.values if isinstance(series, SeriesMatrix) else np.asarray(series, dtype=float)
    if values.ndim < 2 or values.shape[-2] <= 2 * p:
        raise ValidationError(f"series of shape {values.shape} too short for order {p}")
    return _floc_moments(values, values, np.arange(1 - p, p + 1), b)
