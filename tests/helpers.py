"""Shared test fixtures: reference models and independent brute-force oracles."""

import math

import numpy as np
from scipy import integrate

import stablevar as sv
from stablevar.stable_dist import _LOG_CUTOFF
from stablevar.stable_noise import _standardize

A1 = np.array([[0.1, 0.3], [0.2, 0.1]])
A2 = np.array([[0.2, 0.2], [0.05, 0.1]])
A2_COMPARISON = np.array([[0.3, 0.2], [0.4, 0.1]])


def var2_model(alpha: float, sigma: float = 1.0) -> sv.VarModel:
    """The 2-dim VAR(2) simulation model used throughout."""
    return sv.VarModel(
        coeffs=(A1, A2), noise=sv.SymmetricStableNoiseSpec.iid(2, alpha, sigma)
    )


def comparison_model(alpha: float) -> sv.VarModel:
    return sv.VarModel(
        coeffs=(A1, A2_COMPARISON), noise=sv.SymmetricStableNoiseSpec.iid(2, alpha)
    )


def sign0(v: float) -> int:
    # plain ints: numpy 2.x refuses to subtract the numpy bools of np.float64 compares
    return int(v > 0) - int(v < 0)


def brute_var_recursion(coeffs: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Loop oracle of ``_kernels.var_recursion`` for one (m, r) noise matrix:
    x[t] = noise[t] + sum_k coeffs[k-1] @ x[t-k] from zero states."""
    p = coeffs.shape[0]
    m = noise.shape[0]
    out = noise.copy()
    for t in range(m):
        kmax = min(p, t)
        for k in range(1, kmax + 1):
            out[t] += coeffs[k - 1] @ out[t - k]
    return out


def brute_psi(model: sv.VarModel, count: int) -> list:
    """Convolution oracle of ``psi_matrices``: Psi_0 = I and
    Psi_j = sum_{k=1}^{min(j,p)} A_k Psi_{j-k}, one matrix product per term."""
    psi = [np.eye(model.dim)]
    for j in range(1, count + 1):
        psi.append(sum(model.coeffs[k - 1] @ psi[j - k] for k in range(1, min(j, model.order) + 1)))
    return psi


def brute_cross_floc(xi, xj, k, a, b):
    """Independent double-loop oracle. Returns (value, term count, terms)."""
    n = len(xi)
    lo, hi = max(0, k), min(n, n + k)
    terms = []
    for m in range(lo, hi):
        u, v = xi[m], xj[m - k]
        terms.append(abs(u) ** a * abs(v) ** b * sign0(u) * sign0(v))
    return sum(terms) / len(terms), len(terms), terms


def brute_lag_moment_matrix(values: np.ndarray, lag: int):
    """Naive lagged cross-moment matrix (A = B = 1 case), window-normalized."""
    n, r = values.shape
    out = np.zeros((r, r))
    lo, hi = max(0, lag), min(n, n + lag)
    for i in range(r):
        for j in range(r):
            s = 0.0
            for m in range(lo, hi):
                s += values[m, i] * values[m - lag, j]
            out[i, j] = s / (hi - lo)
    return out


def brute_gil_pelaez_cdf(z, t, amp, ph, w0):
    """Dense node sum of the Gil-Pelaez inversion: one sin and one cos per
    (point, node). Rows: the CDF and its first and second z-derivatives.

    ``t``, ``amp``, ``ph`` and ``w0`` are the trapezoid nodes, combined
    exp(-t^alpha) * weight / t factors, skewness phases and t = 0 weight of
    ``stable_dist._bulk_grid``; the caller adds the trapezoid's correction.
    """
    z = np.asarray(z, dtype=float)
    arg = ph[None, :] - t[None, :] * z[:, None]
    sin, cos = np.sin(arg), np.cos(arg)
    s0, s1, s2 = sin @ amp, -(cos @ (amp * t)), -(sin @ (amp * t * t))
    return np.stack([0.5 - (s0 - w0 * z) / np.pi, (w0 - s1) / np.pi, -s2 / np.pi])


def _quad_std_cdf(z: float, alpha: float, beta: float) -> float:
    """Adaptive quadrature of the Gil-Pelaez integral at one standard point;
    from alpha 1.5 up it meets the tail series to 3e-11 at |z| = 150."""
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
    val, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-10, epsrel=1e-10, limit=800)
    return float(np.clip(0.5 - val / math.pi, 0.0, 1.0))


def quad_cdf(x, params: sv.StableParams) -> np.ndarray:
    """Quadrature oracle of ``stable_cdf``: one adaptive ``quad`` per point.
    It agrees with ``scipy.stats.levy_stable`` only from alpha 0.5 up, and
    near alpha 1, where ``levy_stable`` is off, it is the reference."""
    z = _standardize(x, params)
    values = [_quad_std_cdf(float(v), params.alpha, params.beta) for v in z.ravel()]
    return np.array(values).reshape(z.shape)


def brute_fit_stable_params(sample) -> sv.StableParams:
    """Oracle of ``fit_stable_params``, one sample at a time: the ECF by one
    complex exponential per frequency, the alpha line by ``np.polyfit`` and
    the phase by ``np.linalg.lstsq`` (default rank cutoff)."""
    x = np.asarray(sample, dtype=float).ravel()
    q = np.quantile(x, [0.25, 0.28, 0.50, 0.72, 0.75])
    sigma0, delta0 = (q[3] - q[1]) / 1.654, q[2]
    z = (x - delta0) / sigma0
    u = np.arange(0.1, 1.01, 0.1)
    ecf = np.array([np.exp(1j * (uk * z)).mean() for uk in u])
    mod = np.clip(np.abs(ecf), 1e-12, 1.0 - 1e-12)
    slope, intercept = np.polyfit(np.log(u), np.log(-np.log(mod)), 1)
    alpha = float(np.clip(slope, 0.1, 2.0))
    sigma_rel = float(np.exp(intercept / alpha))
    near_one = abs(alpha - 1.0) <= 0.02
    if near_one:
        skew = -(2.0 / math.pi) * sigma_rel * u * np.log(u)
    else:
        skew = math.tan(0.5 * math.pi * alpha) * sigma_rel**alpha * u**alpha
    coef, *_ = np.linalg.lstsq(np.column_stack([u, skew]), np.unwrap(np.angle(ecf)), rcond=None)
    delta_rel, beta = float(coef[0]), float(np.clip(coef[1], -1.0, 1.0))
    sigma = sigma_rel * sigma0
    delta = delta0 + sigma0 * delta_rel
    if near_one:
        delta += (2.0 / math.pi) * beta * sigma * math.log(sigma0)
    return sv.StableParams(alpha=alpha, beta=beta, sigma=sigma, delta=delta)
