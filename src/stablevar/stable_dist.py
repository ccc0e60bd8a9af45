"""Stable distribution function and quantiles by inverting the
characteristic function.

``stable_cdf`` runs adaptive quadrature of the Gil-Pelaez integral at each
point within +-``_QUAD_TAIL_Z`` and the power-law tail expansion beyond: the
reference path, and the path for alpha <= 1. For alpha > 1,
``stable_cdf_bulk`` and ``stable_quantile`` share ``_cdf_grid``: on fixed
Simpson nodes the integral is a Fourier sum in z, so one chirp-z transform
(``_kernels.gil_pelaez_cdf``) gives the CDF and two derivatives on a grid
of step ``_GRID_DZ`` (Mittnik, Doganoglu and Chenyao, 1999), read by quintic
Hermite interpolation; the bulk CDF takes the tail beyond ``_BULK_TAIL_Z``.
Quantiles follow one rule for every alpha: the tail inverse in closed form
past the CDF at +-``_QUAD_TAIL_Z``, inversion on that engine within.

Only the quadrature path uses scipy (``integrate.quad``, and
``optimize.brentq`` for quantiles at alpha <= 1). It is imported in the
functions that call it and looked up on its module at call time: ``import
stablevar``, simulation, estimation and the alpha > 1 grid never pay for
importing it, and a rebinding on the scipy module reaches here.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import ValidationError
from .stable_noise import StableParams

__all__ = ["stable_cdf", "stable_cdf_bulk", "stable_quantile"]

# exp(-T^alpha) ~ 1e-17 truncates the inversion integral
_LOG_CUTOFF = 39.1
# beyond this standardized point the bulk path switches to the tail expansion
_BULK_TAIL_Z = 45.0
# quadrature is pointless this far out even for the reference path
_QUAD_TAIL_Z = 100.0
# grid spacing: quintic Hermite stays within 1e-11 of the node sum
_GRID_DZ = 0.04


def _standardize(x: np.ndarray, params: StableParams) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - params.delta) / params.sigma
    if params.alpha == 1.0:
        z = z - (2.0 / math.pi) * params.beta * math.log(params.sigma)
    return z


def _destandardize(z, params: StableParams):
    if params.alpha == 1.0:
        z = z + (2.0 / math.pi) * params.beta * math.log(params.sigma)
    return params.delta + params.sigma * z


def _tail_prob(z, alpha: float, beta: float):
    """Leading-order P(Z > z) for the standard law, z > 0 large."""
    if alpha == 2.0:
        return 0.0
    c = math.gamma(alpha) * math.sin(0.5 * math.pi * alpha) / math.pi
    return c * (1.0 + beta) * z ** (-alpha)


def _std_cdf_quad(z: float, alpha: float, beta: float) -> float:
    """Adaptive-quadrature CDF of the standard law at one point."""
    if z > _QUAD_TAIL_Z:
        return 1.0 - _tail_prob(z, alpha, beta)
    if z < -_QUAD_TAIL_Z:
        return _tail_prob(-z, alpha, -beta)
    if alpha == 1.0:
        two_over_pi = 2.0 / math.pi

        def integrand(t):
            return math.exp(-t) * math.sin(-beta * two_over_pi * t * math.log(t) - t * z) / t

        upper = _LOG_CUTOFF
    elif alpha > 1.0:
        eta = beta * math.tan(0.5 * math.pi * alpha)

        def integrand(t):
            return math.exp(-(t**alpha)) * math.sin(eta * t**alpha - t * z) / t

        upper = _LOG_CUTOFF ** (1.0 / alpha)
    else:
        # substitute s = t^alpha so the t -> 0 behaviour is integrable smoothly
        eta = beta * math.tan(0.5 * math.pi * alpha)
        inv_alpha = 1.0 / alpha

        def integrand(s):
            return math.exp(-s) * math.sin(eta * s - s**inv_alpha * z) / (alpha * s)

        upper = _LOG_CUTOFF
    from scipy import integrate
    val, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-10, epsrel=1e-10, limit=800)
    return float(np.clip(0.5 - val / math.pi, 0.0, 1.0))


def stable_cdf(x, params: StableParams):
    """Distribution function of the stable law at scalar or array ``x``."""
    z = _standardize(x, params)
    if z.ndim == 0:
        return _std_cdf_quad(float(z), params.alpha, params.beta)
    return np.array([_std_cdf_quad(float(v), params.alpha, params.beta) for v in z.ravel()]).reshape(z.shape)


def _bulk_grid(alpha: float, beta: float, zmax: float):
    upper = _LOG_CUTOFF ** (1.0 / alpha)
    h = min(0.16 / max(zmax, 4.0), upper / 400.0)
    n = int(math.ceil(upper / h))
    if n % 2 == 1:
        n += 1
    t = np.linspace(0.0, upper, n + 1)
    w = np.empty(n + 1)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (upper / n) / 3.0
    tt = t[1:]
    decay = np.exp(-(tt**alpha))
    amp = decay * w[1:] / tt
    eta = beta * math.tan(0.5 * math.pi * alpha)
    ph = eta * tt**alpha
    # the eta * t^(alpha-1) part of the integrand is not C^4 at t = 0, which
    # wrecks Simpson's order; integrate it in closed form and subtract its
    # grid approximation (a z-independent constant)
    exact = (eta / alpha) * (1.0 - math.exp(-(upper**alpha)))
    on_grid = float(np.sum(w[1:] * decay * eta * tt ** (alpha - 1.0)))
    return tt, amp, ph, w[0], exact - on_grid


def _cdf_grid(alpha: float, beta: float, zmax: float):
    """(z0, _GRID_DZ, f): f[d] is the d-th z-derivative of the standard CDF
    at z0 + k _GRID_DZ, on a grid symmetric about 0 covering [-zmax, zmax]."""
    t, amp, ph, w0, correction = _bulk_grid(alpha, beta, zmax)
    m = int(zmax / _GRID_DZ) + 2
    z = _GRID_DZ * np.arange(-m, m + 1)
    f = _kernels.gil_pelaez_cdf(z, t, amp, ph, w0)
    f[0] -= correction / math.pi
    return z[0], _GRID_DZ, f


def _grid_cdf(grid, z: np.ndarray) -> np.ndarray:
    """Quintic Hermite interpolation of a ``_cdf_grid`` at ``z``."""
    z0, dz, f = grid
    u = (z - z0) / dz
    k = np.clip(u.astype(int), 0, f.shape[1] - 2)
    s = u - k
    r = 1.0 - s
    s3 = s * s * s
    g = s3 * (10.0 - 15.0 * s + 6.0 * s * s)
    return (
        f[0, k]
        + g * (f[0, k + 1] - f[0, k])
        + dz * (s * r**3 * (1.0 + 3.0 * s) * f[1, k] - s3 * r * (4.0 - 3.0 * s) * f[1, k + 1])
        + 0.5 * dz * dz * (s * s * r**3 * f[2, k] + s3 * r * r * f[2, k + 1])
    )


def stable_cdf_bulk(x: np.ndarray, params: StableParams) -> np.ndarray:
    """CDF at many points in one pass: the chirp-z grid for alpha > 1, else ``stable_cdf``."""
    x = np.asarray(x, dtype=float)
    if params.alpha <= 1.0:
        return np.asarray(stable_cdf(x, params))
    z = _standardize(x, params)
    out = np.empty(z.shape[0])
    inner = np.abs(z) <= _BULK_TAIL_Z
    if np.any(inner):
        grid = _cdf_grid(params.alpha, params.beta, float(np.max(np.abs(z[inner]))))
        out[inner] = np.clip(_grid_cdf(grid, z[inner]), 0.0, 1.0)
    hi, lo = z > _BULK_TAIL_Z, z < -_BULK_TAIL_Z
    out[hi] = 1.0 - _tail_prob(z[hi], params.alpha, params.beta)
    out[lo] = _tail_prob(-z[lo], params.alpha, -params.beta)
    return out


def _grid_inverse(p: np.ndarray, grid) -> np.ndarray:
    """Standard quantiles at levels ``p``: bisection in cells of a ``_cdf_grid``."""
    z0, dz, f = grid
    # rounding noise can dent the grid where the CDF is flat; the running
    # maximum is sorted, and its cell k still has f[0, k] <= p < f[0, k + 1]
    k = np.searchsorted(np.maximum.accumulate(f[0]), p, side="right") - 1
    a = z0 + np.clip(k, 0, f.shape[1] - 2) * dz
    b = a + dz
    for _ in range(50):
        c = 0.5 * (a + b)
        below = _grid_cdf(grid, c) < p
        a, b = np.where(below, c, a), np.where(below, b, c)
    return 0.5 * (a + b)


def stable_quantile(p, params: StableParams):
    """Quantile(s) of the stable law, inverting ``stable_cdf``.

    One rule for every alpha: levels outside [cdf(-_QUAD_TAIL_Z),
    cdf(_QUAD_TAIL_Z)] (standardized) invert the leading tail term in closed
    form, as ``stable_cdf`` switches there, and levels in the jump at the
    switch map to the switch point. Levels inside are inverted on the engine
    of ``stable_cdf`` there: one chirp-z grid for alpha > 1 (within 1e-6 in
    probability); for alpha <= 1 one ``brentq`` on quadrature per level,
    between the adjacent nodes of -+2, -+4, ... that hold it.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValidationError("quantile levels must lie strictly inside (0, 1)")
    p = arr.ravel()
    alpha, beta = params.alpha, params.beta
    if alpha > 1.0:
        grid = _cdf_grid(alpha, beta, _QUAD_TAIL_Z)
        lo_edge, hi_edge = _grid_cdf(grid, np.array([-_QUAD_TAIL_Z, _QUAD_TAIL_Z]))
    else:
        def cdf(v):
            return _std_cdf_quad(v, alpha, beta)

        # each side doubles its node from 2 while a level lies past it, up to
        # the cap, so only at the cap can a level lie past the outer nodes
        node, b, lo_edge, hi_edge = {}, 1.0, 1.0, 0.0
        while b < _QUAD_TAIL_Z and np.any((p < lo_edge) | (p > hi_edge)):
            b = min(2.0 * b, _QUAD_TAIL_Z)
            if np.any(p < lo_edge):
                lo_edge = node[-b] = cdf(-b)
            if np.any(p > hi_edge):
                hi_edge = node[b] = cdf(b)
    z = np.empty(p.shape)
    lo, hi = p < lo_edge, p > hi_edge
    # _tail_prob(1, ...) is the constant C of P(Z > z) ~ C z^(-alpha)
    z[lo] = -np.maximum(_QUAD_TAIL_Z, (_tail_prob(1.0, alpha, -beta) / p[lo]) ** (1 / alpha))
    z[hi] = np.maximum(_QUAD_TAIL_Z, (_tail_prob(1.0, alpha, beta) / (1 - p[hi])) ** (1 / alpha))
    mid = ~(lo | hi)
    if alpha > 1.0:
        z[mid] = _grid_inverse(p[mid], grid)
    else:
        from scipy import optimize
        zs = sorted(node)
        k = np.clip(np.searchsorted([node[v] for v in zs], p[mid]), 1, len(zs) - 1)
        z[mid] = [
            optimize.brentq(lambda v: cdf(v) - u, zs[j - 1], zs[j], xtol=1e-12, rtol=8.9e-16)
            for u, j in zip(p[mid], k)
        ]
    q = _destandardize(z, params).reshape(arr.shape)
    return float(q) if arr.ndim == 0 else q
