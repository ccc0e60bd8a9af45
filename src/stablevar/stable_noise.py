"""Symmetric alpha-stable noise: sampling and fitting.

Sampling uses the Chambers-Mallows-Stuck construction (uniform angle plus
exponential variate); parameter fitting standardizes the sample by
Fama-Roll quantile estimates of scale and location, then regresses the
empirical characteristic function in the spirit of Kogon & Williams (1998).
The fit is an approximation chosen for robustness
and speed, not a replica of any particular published hybrid estimator.

The ECF at u = 0.1, 0.2, ..., 1.0 is taken as running powers of one
exponential, exp(0.1j z). One fit core runs over a stack of samples (R, n),
so the KS bootstrap fits all its replicates at once. Batch rule: every
reduction runs along a sample's own row, so a sample gets the same bits
alone (``fit_stable_params``) as in any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ValidationError, _check_finite, _check_int
from .seeding import Seed, as_generator
from .series import SeriesMatrix

__all__ = [
    "StableParams",
    "SymmetricStableNoiseSpec",
    "sample_stable",
    "sample_noise_matrix",
    "fit_stable_params",
]


@dataclass(frozen=True)
class StableParams:
    """Parameter quadruple of a univariate stable law.

    ``alpha`` is the stability index in (0, 2], ``beta`` the skewness in
    [-1, 1], ``sigma`` the scale (positive, finite) and ``delta`` the shift. The
    characteristic function convention is
    exp{-(sigma|t|)^alpha [1 - i beta sign(t) tan(pi alpha/2)] + i delta t}
    for alpha != 1, with the usual logarithmic skewness term at alpha = 1.
    """

    alpha: float
    beta: float = 0.0
    sigma: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 2.0):
            raise ValidationError(f"alpha must be in (0, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValidationError(f"beta must be in [-1, 1], got {self.beta}")
        if not (0.0 < self.sigma < math.inf):
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.delta):
            raise ValidationError(f"delta must be finite, got {self.delta}")

    @property
    def is_symmetric(self) -> bool:
        return self.beta == 0.0 and self.delta == 0.0

    @classmethod
    def symmetric(cls, alpha: float, sigma: float = 1.0) -> "StableParams":
        """Symmetric law: beta and delta pinned to zero."""
        return cls(alpha=alpha, beta=0.0, sigma=sigma, delta=0.0)


def _standardize(x: np.ndarray, params: StableParams) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - params.delta) / params.sigma
    if params.alpha == 1.0:
        z = z - (2.0 / math.pi) * params.beta * math.log(params.sigma)
    return z


def _destandardize(z, params: StableParams):
    if params.alpha == 1.0:
        z = z + (2.0 / math.pi) * params.beta * math.log(params.sigma)
    return params.delta + params.sigma * z


@dataclass(frozen=True)
class SymmetricStableNoiseSpec:
    """Independent-component symmetric stable noise vector."""

    components: tuple

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if len(components) < 1:
            raise ValidationError("noise spec needs at least one component")
        for j, comp in enumerate(components):
            if not isinstance(comp, StableParams):
                raise ValidationError(f"component {j} is not StableParams")
            if not comp.is_symmetric:
                raise ValidationError(
                    f"component {j} must be symmetric (beta = delta = 0)"
                )
        object.__setattr__(self, "components", components)

    @property
    def dim(self) -> int:
        return len(self.components)

    @classmethod
    def iid(cls, dim: int, alpha: float, sigma: float = 1.0) -> "SymmetricStableNoiseSpec":
        return cls(tuple(StableParams.symmetric(alpha, sigma) for _ in range(dim)))


def sample_stable(params: StableParams, count: int, rng_seed: Seed) -> np.ndarray:
    """``count`` draws of a stable law (CMS construction): the package's one
    sampler, for the symmetric noise of simulation and the skewed laws of
    the residual-diagnostics bootstrap alike."""
    _check_int(count, "count", 1)
    rng = as_generator(rng_seed)
    if params.alpha == 2.0:
        # exp{-(sigma t)^2} is a Gaussian with variance 2 sigma^2
        return rng.normal(0.0, params.sigma * math.sqrt(2.0), count) + params.delta
    phi = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, count)
    w = rng.standard_exponential(count)
    return _destandardize(_kernels.stable_transform(phi, w, params.alpha, params.beta), params)


def sample_noise_matrix(
    spec: SymmetricStableNoiseSpec, n: int, rng_seed: Seed
) -> SeriesMatrix:
    """n i.i.d. noise vectors; column j follows spec.components[j]."""
    _check_int(n, "n", 1)
    rng = as_generator(rng_seed)
    cols = [sample_stable(comp, n, rng) for comp in spec.components]
    return SeriesMatrix(np.column_stack(cols))


_U = np.arange(0.1, 1.01, 0.1)  # ECF frequencies u_k = k * u_1, k = 1..10
_LOG_U = np.log(_U)
_LOG_U_C = _LOG_U - _LOG_U.mean()  # centred, for the closed-form slope


def _fit_stack(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stable fit of each row of a stack (R, n): the (R,) arrays alpha, beta, sigma, delta.

    Sums run over a row's last axis and the SVD is one per row (the batch rule).
    """
    if x.shape[-1] < 100:
        raise ValidationError(f"need at least 100 observations, got {x.shape[-1]}")
    _check_finite(x, "sample")
    q = np.quantile(x, [0.28, 0.50, 0.72], axis=-1)
    if np.any(q[2] - q[0] <= 0.0):
        raise ValidationError("degenerate sample: the 28%-72% quantile spread is zero")
    # Fama-Roll 28%/72% spread; nearly alpha-free scale for symmetric laws
    sigma0, delta0 = (q[2] - q[0]) / 1.654, q[1]
    # ECF at u_k = k u_1 as running powers of e1 = exp(1j u_1 z): one complex exponential
    # per point, and no more than two complex arrays of x's shape alive at once
    e1 = np.exp(1j * (_U[0] * ((x - delta0[:, None]) / sigma0[:, None])))
    power = e1.copy()
    ecf = [power.mean(axis=-1)]
    for _ in _U[1:]:
        power *= e1
        ecf.append(power.mean(axis=-1))
    ecf = np.stack(ecf, axis=-1)

    # log(-log|ecf|) = alpha log u + alpha log sigma_rel: least-squares line on log u
    y = np.log(-np.log(np.clip(np.abs(ecf), 1e-12, 1.0 - 1e-12)))
    slope = (y * _LOG_U_C).sum(axis=-1) / (_LOG_U_C * _LOG_U_C).sum()
    alpha = np.clip(slope, 0.1, 2.0)
    sigma_rel = np.exp((y.mean(axis=-1) - slope * _LOG_U.mean()) / alpha)

    # phase = delta_rel u + beta skew(u): least squares with lstsq's rank cutoff,
    # which drops the skew column where it vanishes (tan(pi alpha / 2) ~ 1e-16 at alpha 2)
    near_one = np.abs(alpha - 1.0) <= 0.02
    a, s = alpha[:, None], sigma_rel[:, None]
    skew = np.where(
        near_one[:, None],
        -(2.0 / np.pi) * s * _U * _LOG_U,
        # (s u)^a as exp(a log(s u)): ``**`` squares a lone exponent of 2 exactly but
        # calls pow inside a stack, which broke the batch rule at alpha = 2
        np.tan(0.5 * np.pi * a) * np.exp(a * np.log(s * _U)),
    )
    # the design's transpose [u; skew] (R, 2, 10) = V diag(sv) U^T keeps each sum on a last axis
    design_t = np.stack([np.broadcast_to(_U, skew.shape), skew], axis=1)
    v, sv, u_t = np.linalg.svd(design_t, full_matrices=False)
    w = (u_t * np.unwrap(np.angle(ecf), axis=-1)[:, None, :]).sum(axis=-1)
    keep = sv > np.finfo(float).eps * _U.shape[0] * sv[:, :1]
    w = np.divide(w, sv, out=np.zeros_like(w), where=keep)
    delta_rel = v[:, 0, 0] * w[:, 0] + v[:, 0, 1] * w[:, 1]
    beta = np.clip(v[:, 1, 0] * w[:, 0] + v[:, 1, 1] * w[:, 1], -1.0, 1.0)

    sigma = sigma_rel * sigma0
    delta = delta0 + sigma0 * delta_rel
    # alpha = 1 scaling carries an extra logarithmic shift
    delta = np.where(near_one, delta + (2.0 / np.pi) * beta * sigma * np.log(sigma0), delta)
    return alpha, beta, sigma, delta


def fit_stable_params(sample: Sequence[float]) -> StableParams:
    """Fit (alpha, beta, sigma, delta) to a univariate sample.

    Sample quantiles give starting scale and location, which standardize
    the sample; alpha, beta and the relative scale and shift then come from
    regressing the log modulus and the phase of the empirical
    characteristic function at u = 0.1, 0.2, ..., 1.0, the ECF taken as
    running powers of exp(0.1j z). This is the stack of one of the fit that
    ``ks_test_stable`` runs over its bootstrap replicates, with the same bits.
    """
    x = np.asarray(sample, dtype=float).ravel()
    return StableParams(*(float(v[0]) for v in _fit_stack(x[None])))
