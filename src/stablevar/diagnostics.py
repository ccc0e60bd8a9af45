"""Residual diagnostics for fitted models.

Three checks that the residual columns behave like independent stable
noise: the auto-FLOC function (dependence surrogate, with a Monte Carlo
null band so "flat" is a mechanical judgement), QQ data against the
fitted stable law, and a Kolmogorov-Smirnov test whose null distribution
is simulated by a parametric bootstrap that re-fits the parameters in
every repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .errors import ValidationError, _check_finite, _check_int
from .floc import _as_column, _check_b, _floc_moments, cross_floc
from .seeding import substream_blocks
from .series import _write_csv
from .stable_dist import _cdf_stack, stable_cdf_bulk, stable_quantile
from .stable_noise import StableParams, _fit_stack, _standardize, fit_stable_params, sample_stable

__all__ = [
    "AutoFlocSeries",
    "KsTestResult",
    "QqData",
    "auto_floc",
    "auto_floc_null_band",
    "ks_statistic",
    "ks_test_stable",
    "qq_data",
    "write_auto_floc_csv",
    "write_qq_csv",
    "ks_summary_line",
]


@dataclass(frozen=True, eq=False)
class AutoFlocSeries:
    """Auto-FLOC values of one column at lags 0..L, at FLOC exponent ``b``."""

    values: np.ndarray
    b: float

    @property
    def lags(self) -> np.ndarray:
        return np.arange(len(self.values))


@dataclass(frozen=True)
class KsTestResult:
    statistic: float
    p_value: float
    repetitions: int
    fitted: StableParams


class QqData(NamedTuple):
    levels: np.ndarray
    empirical: np.ndarray
    fitted: np.ndarray


def auto_floc(residual_column, max_lag: int, b: float) -> AutoFlocSeries:
    """Auto-FLOC value cross_floc(column, column, k, b) for k = 0..max_lag."""
    b = _check_b(b)
    col = _check_finite(_as_column(residual_column, "column"), "column")
    if _check_int(max_lag, "max_lag", 0) >= col.shape[0]:
        raise ValidationError(f"max_lag must be in [0, {col.shape[0] - 1}], got {max_lag}")
    if not np.any(col != 0.0):
        raise ValidationError("degenerate all-zero column")
    return AutoFlocSeries(values=cross_floc(col, col, np.arange(max_lag + 1), b), b=b)


# percentile of each side of the null band, the central 95% of the replicates
_BAND_TAIL = 100.0 * (1.0 - 0.95) / 2.0


def _replicate_blocks(fitted: StableParams, n: int, count: int, rng_seed: int):
    """``count`` replicates of ``n`` draws of the fitted law, as (reps, n) blocks of
    ``substream_blocks``; replicate r comes from substream r of ``rng_seed``."""
    for _, generators in substream_blocks(rng_seed, count, n):
        yield np.stack([sample_stable(fitted, n, g) for g in generators])


def auto_floc_null_band(
    fitted: StableParams,
    n: int,
    max_lag: int,
    b: float,
    replicates: int = 200,
    rng_seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pointwise 95% null band of the auto-FLOC under i.i.d. noise.

    Simulates ``replicates`` independent samples of length ``n`` from the
    fitted law, one substream each, and takes the 2.5th and 97.5th per-lag
    percentiles of their auto-FLOC at exponent ``b``, so an observed auto-FLOC
    can be judged against pure noise.
    """
    b = _check_b(b)
    _check_int(n, "n", 1)
    if _check_int(max_lag, "max_lag", 0) >= n:
        raise ValidationError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    _check_int(replicates, "replicates", 2)
    # the batch rule gives each replicate its own cross_floc bits, whatever the block
    sims = np.concatenate([
        _floc_moments(block[..., None], block[..., None], range(max_lag + 1), b)[..., 0, 0]
        for block in _replicate_blocks(fitted, n, replicates, rng_seed)
    ])
    return tuple(np.percentile(sims, [_BAND_TAIL, 100.0 - _BAND_TAIL], axis=0))


def _ks_distance(cdf: np.ndarray) -> np.ndarray:
    """sup-distance between the empirical CDF of each row of sorted points and its fitted
    CDF values ``cdf`` (..., n)."""
    n = cdf.shape[-1]
    steps = np.arange(1, n + 1) / n
    return np.maximum(np.max(steps - cdf, axis=-1), np.max(cdf - (steps - 1.0 / n), axis=-1))


def ks_statistic(column, fitted: StableParams) -> float:
    """sup-distance between the empirical CDF and the fitted stable CDF."""
    x = np.sort(_check_finite(_as_column(column, "column"), "column"))
    return float(_ks_distance(stable_cdf_bulk(x, fitted)))


def ks_test_stable(residual_column, repetitions: int = 100, rng_seed: int = 0) -> KsTestResult:
    """Goodness-of-fit of a stable law with bootstrap-calibrated p-value.

    Fits the stable parameters, computes the KS statistic against the
    fitted CDF, then simulates ``repetitions`` same-length samples from the
    fitted law (replicate r from substream r of ``rng_seed``), re-fitting
    and recomputing the statistic each time. The p-value is the Monte Carlo
    p-value (k + 1) / (repetitions + 1), k the simulated statistics at least as
    large as the observed one: it holds the test's level and is never 0. Each
    block of ``seeding.substream_blocks`` is fitted, sorted and standardized as
    a stack and its CDF values come from one ``_cdf_stack`` pass, each
    replicate with the bits of its own ``ks_statistic(sim, fit_stable_params(sim))``.
    """
    col = np.asarray(residual_column, dtype=float).ravel()
    _check_int(repetitions, "repetitions", 100)
    fitted = fit_stable_params(col)
    d_obs = ks_statistic(col, fitted)
    exceed = 0
    for sims in _replicate_blocks(fitted, col.shape[0], repetitions, rng_seed):
        fits = _fit_stack(sims)
        z = np.stack([_standardize(x, StableParams(*map(float, fit)))
                      for x, fit in zip(np.sort(sims, axis=1), zip(*fits))])
        exceed += int(np.sum(_ks_distance(_cdf_stack(z, *fits[:2])) >= d_obs))
    return KsTestResult(
        statistic=d_obs,
        p_value=(exceed + 1) / (repetitions + 1),
        repetitions=repetitions,
        fitted=fitted,
    )


def qq_data(residual_column, fitted: StableParams, grid: int = 99) -> QqData:
    """(empirical quantile, fitted quantile) pairs at mid-grid levels."""
    _check_int(grid, "grid", 2)
    col = _check_finite(_as_column(residual_column, "column"), "column")
    levels = (np.arange(grid) + 0.5) / grid
    empirical = np.quantile(col, levels)
    fitted_q = stable_quantile(levels, fitted)
    return QqData(levels=levels, empirical=empirical, fitted=fitted_q)


def write_auto_floc_csv(path, series: AutoFlocSeries, band: Tuple[np.ndarray, np.ndarray]) -> None:
    _write_csv(path, "lag,value,band_lo,band_hi", zip(series.lags, series.values, *band))


def write_qq_csv(path, qq: QqData) -> None:
    _write_csv(path, "level,empirical,fitted", zip(qq.levels, qq.empirical, qq.fitted))


def ks_summary_line(result: KsTestResult) -> str:
    f = result.fitted
    return (
        f"ks statistic={result.statistic:.6g} p_value={result.p_value:.6g} "
        f"repetitions={result.repetitions} fitted alpha={f.alpha:.6g} "
        f"beta={f.beta:.6g} sigma={f.sigma:.6g} delta={f.delta:.6g}"
    )
