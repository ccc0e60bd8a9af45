"""Fractional lower-order covariance: the dependence measure replacing
covariance when second moments do not exist.

The cross-FLOC of two trajectories at lag k averages
|x_i[n]|^A |x_j[n-k]|^B sign(x_i[n] x_j[n-k]) over the n for which both
indices are in range; the normalizer is the window length N - |k|. With
A = B = 1 this is the plain lagged cross-moment.

Every lag moment goes through ``_floc_moments``: with U = X^<A> and V = X^<B>
formed once, lag k >= 0 is the matrix product U[k:]^T V[:N-k] / (N - k)
(``_kernels.cross_floc_sum``), for one series or a stack of them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import ValidationError, _check_int
from .series import SeriesMatrix

__all__ = [
    "FlocConfig",
    "signed_power",
    "cross_floc",
    "lag_matrix_set",
]


@dataclass(frozen=True)
class FlocConfig:
    """Exponent pair (A, B); ``warn_if_invalid_for`` checks A + B < alpha."""

    exp_a: float = 1.0
    exp_b: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN fails too: NaN < 0 is False
        if not (0.0 <= self.exp_a < math.inf and 0.0 <= self.exp_b < math.inf):
            raise ValidationError(
                f"exponents must be finite and >= 0, got A={self.exp_a}, B={self.exp_b}"
            )

    def warn_if_invalid_for(self, alpha: float) -> None:
        """Warn (not fail) when A + B >= an after-the-fact alpha estimate."""
        if self.exp_a + self.exp_b >= alpha:
            warnings.warn(
                f"A + B = {self.exp_a + self.exp_b:.3f} >= estimated alpha "
                f"{alpha:.3f}; the fractional moment may not exist",
                stacklevel=2,
            )


def signed_power(x, a: float):
    """|x|^a sign(x), with 0^<0> = 0 so exact zeros never contribute."""
    if a < 0.0:
        raise ValidationError(f"exponent must be >= 0, got {a}")
    x = np.asarray(x, dtype=float)
    out = np.abs(x) ** a * np.sign(x)
    return float(out) if out.ndim == 0 else out


def _as_column(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=float).ravel()
    if arr.shape[0] < 1:
        raise ValidationError(f"{name} is empty")
    return arr


def _floc_moments(x, y, lags: Iterable[int], cfg: FlocConfig) -> np.ndarray:
    """Entry [..., l, i, j]: cross-FLOC of x[..., :, i] against y[..., :, j] at lag lags[l].

    ``x`` and ``y`` are (..., N, r) and (..., N, s), one series per leading
    index; callers check every |k| < N.
    """
    lags = np.asarray(lags, dtype=int)
    sums = _kernels.cross_floc_sum(signed_power(x, cfg.exp_a), signed_power(y, cfg.exp_b), lags)
    return sums / (x.shape[-2] - np.abs(lags))[:, None, None]


def cross_floc(xi, xj, k, cfg: FlocConfig):
    """Sample cross-FLOC of ``xi`` against ``xj`` lagged by ``k``.

    Averages signed_power(xi[n], A) * signed_power(xj[n-k], B) over the
    valid window, which has exactly N - |k| terms. An int ``k`` gives a
    float; an array of ints gives an array of its shape, one value per lag.
    Float and bool lags are refused.
    """
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
    values = _floc_moments(xi[:, None], xj[:, None], lags.ravel(), cfg)[:, 0, 0].reshape(lags.shape)
    return float(values) if lags.ndim == 0 else values


def lag_matrix_set(series, p: int, cfg: FlocConfig) -> np.ndarray:
    """Cross-FLOC matrices (..., 2p, r, r) of the order-p block system: entry [p - 1 + k]
    holds (i, j) = cross_floc(column i, column j, k), k = -(p-1)..p.

    ``series`` is a SeriesMatrix or a stack (..., n, r) of series, one per
    leading index; each series gets the bits it gets alone.
    """
    _check_int(p, "order", 1)
    values = series.values if isinstance(series, SeriesMatrix) else np.asarray(series, dtype=float)
    if values.ndim < 2 or values.shape[-2] <= 2 * p:
        raise ValidationError(f"series of shape {values.shape} too short for order {p}")
    return _floc_moments(values, values, np.arange(1 - p, p + 1), cfg)
