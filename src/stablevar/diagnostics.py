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
from .floc import FlocConfig, _as_column, _floc_moments, cross_floc
from .seeding import substream
from .series import _write_csv
from .stable_dist import stable_cdf_bulk, stable_quantile
from .stable_noise import StableParams, _fit_stack, fit_stable_params, sample_stable

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


@dataclass(frozen=True)
class AutoFlocSeries:
    """Auto-FLOC values of one column at lags 0..L."""

    values: np.ndarray
    cfg: FlocConfig

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


def auto_floc(residual_column, max_lag: int, cfg: FlocConfig) -> AutoFlocSeries:
    """Auto-FLOC value cross_floc(column, column, k) for k = 0..max_lag."""
    col = _check_finite(_as_column(residual_column, "column"), "column")
    if _check_int(max_lag, "max_lag", 0) >= col.shape[0]:
        raise ValidationError(f"max_lag must be in [0, {col.shape[0] - 1}], got {max_lag}")
    if not np.any(col != 0.0):
        raise ValidationError("degenerate all-zero column")
    return AutoFlocSeries(values=cross_floc(col, col, np.arange(max_lag + 1), cfg), cfg=cfg)


# percentile of each side of the null band, the central 95% of the replicates
_BAND_TAIL = 100.0 * (1.0 - 0.95) / 2.0
# Draws per block of replicates (8 MB of float64): a 100-repetition KS test or a
# 200-replicate null band is one block up to n = 10,485 or 5,242, and longer columns
# keep the transients bounded (one stack of 100 x 100,000 draws peaked at 500 MB).
_STACK_DRAWS = 1 << 20


def _replicate_blocks(fitted: StableParams, n: int, count: int, rng_seed: int):
    """``count`` replicates of ``n`` draws of the fitted law, as (reps, n) blocks of up to
    ``_STACK_DRAWS`` draws; replicate r comes from substream r of ``rng_seed``."""
    stack = max(1, _STACK_DRAWS // n)
    for lo in range(0, count, stack):
        reps = range(lo, min(lo + stack, count))
        yield np.stack([sample_stable(fitted, n, substream(rng_seed, r)) for r in reps])


def auto_floc_null_band(
    fitted: StableParams,
    n: int,
    max_lag: int,
    cfg: FlocConfig,
    replicates: int = 200,
    rng_seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pointwise 95% null band of the auto-FLOC under i.i.d. noise.

    Simulates ``replicates`` independent samples of length ``n`` from the
    fitted law, one substream each, and takes the 2.5th and 97.5th per-lag
    percentiles of their auto-FLOC, so an observed auto-FLOC can be judged
    against pure noise.
    """
    if _check_int(max_lag, "max_lag", 0) >= n:
        raise ValidationError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    _check_int(replicates, "replicates", 2)
    # the batch rule gives each replicate its own cross_floc bits, whatever the block
    sims = np.concatenate([
        _floc_moments(block[..., None], block[..., None], range(max_lag + 1), cfg)[..., 0, 0]
        for block in _replicate_blocks(fitted, n, replicates, rng_seed)
    ])
    return tuple(np.percentile(sims, [_BAND_TAIL, 100.0 - _BAND_TAIL], axis=0))


def ks_statistic(column, fitted: StableParams) -> float:
    """sup-distance between the empirical CDF and the fitted stable CDF."""
    x = np.sort(_check_finite(_as_column(column, "column"), "column"))
    n = x.shape[0]
    cdf = stable_cdf_bulk(x, fitted)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n))))


def ks_test_stable(residual_column, repetitions: int = 100, rng_seed: int = 0) -> KsTestResult:
    """Goodness-of-fit of a stable law with bootstrap-calibrated p-value.

    Fits the stable parameters, computes the KS statistic against the
    fitted CDF, then simulates ``repetitions`` same-length samples from the
    fitted law (replicate r from substream r of ``rng_seed``), re-fitting
    and recomputing the statistic each time. The p-value is the fraction of
    simulated statistics at least as large as the observed one. The
    replicates are fitted in blocks of up to 2^20 draws, each with the bits
    of its own ``fit_stable_params`` call.
    """
    col = np.asarray(residual_column, dtype=float).ravel()
    _check_int(repetitions, "repetitions", 100)
    fitted = fit_stable_params(col)
    d_obs = ks_statistic(col, fitted)
    exceed = 0
    for sims in _replicate_blocks(fitted, col.shape[0], repetitions, rng_seed):
        fits = zip(*_fit_stack(sims))
        exceed += sum(
            ks_statistic(sim, StableParams(*map(float, fit))) >= d_obs for sim, fit in zip(sims, fits)
        )
    return KsTestResult(
        statistic=d_obs,
        p_value=exceed / repetitions,
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
