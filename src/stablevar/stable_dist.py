"""Stable distribution function and quantiles: one rule on the standardized z,
set by ``_standard_cdf``. Past the switch at +-``_TAIL_Z`` s_ab, where
s_ab = (1 + zeta^2)^(1/(2 alpha)) and zeta = beta tan(pi alpha / 2), one tail series
serves (Zolotarev's expansion; Nolan 2020, *Univariate Stable Distributions*,
ch. 3); within it Zolotarev's integral form (Nolan 1997, *Numerical calculation
of stable densities and distribution functions*, Theorem 1), or for alpha > 1 and
|zeta| <= 32 in ``stable_cdf_bulk`` and ``stable_quantile`` a grid out to the switch
or twice ``_TAIL_Z``: one chirp-z transform of the Gil-Pelaez trapezoid sum (Mittnik,
Doganoglu and Chenyao, 1999) plus a polynomial in z for its error at the t^alpha branch
point (Navot 1961, *J. Math. Phys.* 40), within 1e-9 of Zolotarev's form between its
points. At alpha = 1 zeta is undefined and there is no switch. ``stable_quantile``
inverts the rule over one node table at every alpha; a grid only evaluates it there.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _kernels
from .errors import ValidationError
from .stable_noise import StableParams, _destandardize, _standardize

__all__ = ["stable_cdf", "stable_cdf_bulk", "stable_quantile"]

# the trapezoid stops at T = _LOG_CUTOFF^(1/alpha), where exp(-T^alpha) = 1e-17
_LOG_CUTOFF = 39.1
# the tail switch in units of s_ab; the series terms meet Zolotarev's form to 5.5e-15 there
_TAIL_Z, _TAIL_TERMS = 45.0, 20
# grid spacing: quintic Hermite between the grid's points adds at most 1.6e-10
_GRID_DZ = 0.08
# the trapezoid's correction sums k = 1.._SERIES and l = 0.._SERIES; the node spacing h
# keeps |c| h^alpha <= _SERIES_RATIO, c = 1 - i zeta, so the k series falls fast near alpha 1
_SERIES, _SERIES_RATIO = 10, 0.3
# _riemann_zeta: _ZETA_TERMS terms, then Euler-Maclaurin's tail with B_2j / (2j)!, j = 1..5
_ZETA_TERMS, _EM_B = 6, np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160])
# the grid's largest |zeta|: past it the phase zeta t^alpha outruns the grid's nodes
_GRID_ZETA = 32.0
# exp(-g) is 1 in double precision below the first cut and under 2e-24 above
# the last; the logit runs over +-_S_MAX, whose ends hold 4e-18 of the range
_LOG_G_CUTS = np.array([-37.0, 0.0, 4.0])
_NODES, _CUT_STEPS, _S_MAX = 128, 20, 40.0
# points per pass of the Zolotarev engine, which bounds its temporaries
_CHUNK = 1024
# regula falsi steps per quantile; nodes: even integers for the bulk, powers of two
# to the edge at 0 of |beta| = 1 (2^-50 lies below 7.6e-15, the level-1e-12 quantile at alpha
# 0.1); past +-_TAIL_Z they double out to 2e299, past the level-1e-30 quantile at alpha 0.1
_INVERT_STEPS = 14
_NEAR_Z = np.concatenate([np.ldexp(1.0, np.arange(-50, 1)), np.arange(2.0, _TAIL_Z, 2.0)])
_NEAR_Z = np.concatenate([-_NEAR_Z[::-1], [0.0], _NEAR_Z])
_FAR_Z = _TAIL_Z * np.exp2(np.arange(990.0))


def _tail_prob(z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """P(Z > z) past the switch (1-d z > 0): (1/pi) sum_k (-1)^(k+1) Gamma(alpha k) / k!
    Im(w^k), w = (s_ab / z)^alpha e^(i theta), theta = pi alpha / 2 + atan(zeta). Im(w) is
    sin(pi alpha / 2) (1 + beta) z^-alpha, so at beta = -1 every term is 0, as at alpha = 2."""
    half, zeta = 0.5 * math.pi * alpha, _skew(alpha, beta)[0]
    im = 0.0 if alpha == 2.0 else math.sin(half) * (1.0 + beta)
    w = z[:, None] ** -alpha * complex(math.cos(half) - zeta * math.sin(half), im)
    coef = [(-1) ** (k + 1) * math.gamma(alpha * k) / (math.factorial(k) * math.pi)
            for k in range(1, _TAIL_TERMS + 1)]
    # row sums, not a matrix product: each point keeps its bits whatever the batch
    return (np.cumprod(np.repeat(w, _TAIL_TERMS, axis=1), axis=1).imag * coef).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    """Nodes and weights on [0, 1], built on first use."""
    t, w = np.polynomial.legendre.leggauss(_NODES)
    return 0.5 * (t + 1.0), 0.5 * w


def _angle_integral(x: np.ndarray, alpha: float, beta: np.ndarray) -> np.ndarray:
    """(1/pi) * integral of exp(-g(theta)) over Zolotarev's angle range, per point:
    g = x^(alpha/(alpha-1)) V(theta) on (-theta0, pi/2), x > 0, or for alpha = 1
    g = exp(-pi x / (2 beta)) V(theta) on (-pi/2, pi/2), beta > 0. V takes the distances
    of theta from the ends, so no factor cancels near one; nodes sit in the logit of
    theta's share of the range, which smooths the power laws of g at both ends."""
    x, beta = x[:, None], beta[:, None]
    if alpha == 1.0:
        width = np.full_like(x, np.pi)
        lead = -0.5 * np.pi * x / beta + math.log(2.0 / np.pi)
    else:
        theta0 = np.arctan(beta * math.tan(0.5 * np.pi * alpha)) / alpha
        width = 0.5 * np.pi + theta0
        lead = (alpha * np.log(x) + np.log(np.cos(alpha * theta0))) / (alpha - 1.0)
    rest, rest_a = np.maximum(np.pi - width, 0.0), np.maximum(np.pi - alpha * width, 0.0)

    def ends(s):  # distances of theta from the ends where g is smallest and largest
        return width / (1.0 + np.exp(-s)), width / (1.0 + np.exp(s))

    def log_g(near, far):
        d_lo, d_hi = (far, near) if alpha > 1.0 else (near, far)
        cos_theta = np.sin(np.minimum(d_hi, rest + d_lo))
        if alpha == 1.0:
            b = 0.5 * np.pi * (1.0 - beta) + beta * d_lo
            return lead + np.log(b / cos_theta) - b * np.cos(d_lo) / (beta * cos_theta)
        sin_lo = np.sin(np.minimum(alpha * d_lo, rest_a + alpha * d_hi))
        a = rest + (1.0 - alpha) * d_lo if alpha < 1.0 else rest_a + (alpha - 1.0) * d_hi
        cos_mix = np.sin(np.minimum(a, d_hi + alpha * d_lo))
        return lead + (np.log(cos_theta) - alpha * np.log(sin_lo)) / (alpha - 1.0) + np.log(cos_mix)

    lo = np.full((x.shape[0], _LOG_G_CUTS.size), -_S_MAX)
    hi = np.full_like(lo, _S_MAX)
    for _ in range(_CUT_STEPS):
        mid = 0.5 * (lo + hi)
        below = log_g(*ends(mid)) < _LOG_G_CUTS
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    # the outer ends lie past the first and last cut whatever the step count
    edges = np.stack([lo[:, 0], 0.5 * (lo[:, 1] + hi[:, 1]), hi[:, 2]], axis=1)
    t, w = _gauss_legendre()
    span = np.diff(edges)[:, :, None]
    near, far = ends((edges[:, :-1, None] + span * t).reshape(-1, 2 * t.size))
    # d theta = near * far / width ds; exp(-g) is 0 where g would overflow;
    # row sums keep each point's bits whatever the batch
    terms = np.exp(-np.exp(np.minimum(log_g(near, far), 700.0))) * near * far / width
    inner = (terms * (span * w).reshape(-1, 2 * t.size)).sum(axis=1)
    return (ends(edges[:, :1])[0][:, 0] + inner) / np.pi


def _zolotarev_cdf(z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Standard CDF at points z (1-d) by Zolotarev's integral form."""
    if alpha == 1.0 and beta == 0.0:
        return 0.5 + np.arctan(z) / np.pi
    if z.size > _CHUNK:
        chunks = np.split(z, range(_CHUNK, z.size, _CHUNK))
        return np.concatenate([_zolotarev_cdf(c, alpha, beta) for c in chunks])
    if alpha == 1.0:
        j = _angle_integral(math.copysign(1.0, beta) * z, 1.0, np.full(z.shape, abs(beta)))
        return j if beta > 0.0 else 1.0 - j
    # P(Z > |z|), of the law mirrored when z < 0, is the integral (alpha > 1) or the range's share
    # less it (alpha < 1); the range is empty for alpha < 1 and beta -1 there: no mass past 0
    side = np.where(z < 0.0, -1.0, 1.0)
    share = 0.5 + np.arctan(side * _skew(alpha, beta)[0]) / (alpha * np.pi)
    live = (z != 0.0) & (share > 0.0)
    upper = np.zeros(z.shape)
    upper[live] = _angle_integral(np.abs(z[live]), alpha, side[live] * beta)
    upper = np.where(live, share - upper if alpha < 1.0 else upper, share)
    return np.where(side > 0.0, 1.0 - upper, upper)


def _skew(alpha: float, beta: float) -> tuple[float, float, float]:
    """(zeta, tail switch, grid reach) in standard z; at alpha = 1 zeta is undefined and
    there is no switch. The grid's node count grows with its reach, which stops at 90; the
    reach is 0, no grid, unless alpha > 1 and |zeta| <= _GRID_ZETA."""
    zeta = 0.0 if alpha == 1.0 else beta * math.tan(0.5 * math.pi * alpha)
    switch = math.inf if alpha == 1.0 else _TAIL_Z * math.hypot(1.0, zeta) ** (1.0 / alpha)
    gridded = alpha > 1.0 and abs(zeta) <= _GRID_ZETA
    return zeta, switch, min(switch, 2.0 * _TAIL_Z) if gridded else 0.0


def _standard_cdf(z: np.ndarray, alpha: float, beta: float, grid=None) -> np.ndarray:
    """Standard CDF at points z (1-d), and the one place its tail rule is set: the
    chirp-z ``grid`` over its span when one is given, Zolotarev's form on to the
    tail switch, the tail series past it."""
    switch = _skew(alpha, beta)[1]
    upper, lower = z > switch, z < -switch
    near = np.abs(z) <= -grid[0] if grid is not None else np.zeros(z.shape, dtype=bool)
    out = np.empty(z.shape)
    for part, cdf in (
        (near, lambda v: _grid_cdf(grid, v)),
        (~(near | upper | lower), lambda v: _zolotarev_cdf(v, alpha, beta)),
        (upper, lambda v: 1.0 - _tail_prob(v, alpha, beta)),
        (lower, lambda v: _tail_prob(-v, alpha, -beta)),
    ):
        if part.any():
            out[part] = cdf(z[part])
    return np.clip(out, 0.0, 1.0)


def stable_cdf(x, params: StableParams):
    """Distribution function of the stable law at scalar or array ``x``."""
    z = _standardize(x, params)
    out = _standard_cdf(z.ravel(), params.alpha, params.beta)
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _riemann_zeta(x: np.ndarray) -> np.ndarray:
    """Riemann's zeta at x > 1, within 2e-12 relative on (1, 40]: n - 1 = _ZETA_TERMS terms, the
    tail's integral and Euler-Maclaurin's terms B_2j / (2j)! x (x+1) ... (x+2j-2) n^(1-x-2j)."""
    n = _ZETA_TERMS + 1.0
    head = np.power.outer(np.arange(1.0, n), -x).sum(axis=0)
    rise = np.cumprod((x[..., None] + np.arange(2.0 * _EM_B.size - 1)) / n, axis=-1)[..., ::2]
    return head + n**-x * (n / (x - 1.0) + 0.5 + rise @ _EM_B)


def _trapezoid_correction(alpha: float, beta: float, h: float) -> np.ndarray:
    """Coefficients b of P(z) = sum_l b_l u^l, u = h z / (2 pi), the trapezoid sum's error at t = 0
    (Navot 1961). Im[phi(t) e^(-itz)] / t sums Im[(-c)^k (-i)^l] z^l t^s / (k! l!), c = 1 - i zeta,
    s = k alpha + l - 1; the k = 0 terms need only the t = 0 node, and each k >= 1 term leaves
    R(-s) h^(s+1) = 2 (h / 2 pi)^(s+1) cos(pi (s+1) / 2) Gamma(s+1) R(s+1), R Riemann's zeta."""
    k, l = np.arange(1, _SERIES + 1)[:, None], np.arange(_SERIES + 1)
    x = alpha * k + l
    # Gamma(x) (h / 2 pi)^(k alpha) / (k! l!) by rising factorials in l
    lead = [math.gamma(alpha * j) / math.factorial(j) * (h / (2.0 * math.pi)) ** (alpha * j)
            for j in range(1, _SERIES + 1)]
    g = np.cumprod(np.column_stack([lead, x[:, :-1] / l[1:]]), axis=1)
    im = ((complex(-1.0, _skew(alpha, beta)[0]) ** k) * (-1j) ** l).imag
    return (2.0 * im * np.cos(0.5 * math.pi * x) * _riemann_zeta(x) * g).sum(axis=0)


def _bulk_grid(alpha: float, beta: float, zmax: float):
    """``_kernels.gil_pelaez_cdf``'s (t, amp, ph, w0) on the trapezoid nodes t_j = j h, j >= 1;
    h zmax <= 1 keeps u = h z / (2 pi) small and the trapezoid's aliases 2 pi / h away."""
    upper, zeta = _LOG_CUTOFF ** (1.0 / alpha), _skew(alpha, beta)[0]
    h = min(1.0 / max(zmax, 4.0), (_SERIES_RATIO / math.hypot(1.0, zeta)) ** (1.0 / alpha))
    t = h * np.arange(1, math.ceil(upper / h) + 1)
    return t, np.exp(-(t**alpha)) * h / t, zeta * t**alpha, 0.5 * h


def _cdf_grid(alpha: float, beta: float, zmax: float):
    """(z0, _GRID_DZ, f): f[d] is the d-th z-derivative of the standard CDF
    at z0 + k _GRID_DZ, on a grid symmetric about 0 covering [-zmax, zmax]."""
    t, amp, ph, w0 = _bulk_grid(alpha, beta, zmax)
    m = int(zmax / _GRID_DZ) + 2
    z = _GRID_DZ * np.arange(-m, m + 1)
    # the trapezoid sum plus P / pi and its z-derivatives: rows against the powers u^l
    scale, l = t[0] / (2.0 * math.pi), np.arange(_SERIES + 1)
    b = _trapezoid_correction(alpha, beta, t[0]) / math.pi
    rows, u = np.zeros((3, l.size)), np.ones((l.size, z.size))
    rows[0], rows[1, :-1], rows[2, :-2] = b, scale * (l * b)[1:], scale**2 * (l * (l - 1) * b)[2:]
    for j in l[1:]:
        u[j] = u[j - 1] * (scale * z)
    return z[0], _GRID_DZ, _kernels.gil_pelaez_cdf(z, t, amp, ph, w0) + rows @ u


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
    """CDF at many points in one pass: one chirp-z grid serves out to the largest
    point within its reach (``_skew``), ``stable_cdf``'s rule the rest."""
    z = _standardize(x, params)
    reach = _skew(params.alpha, params.beta)[2]
    near = np.abs(z)[np.abs(z) <= reach]
    grid = None
    if reach > 0.0 and near.size:
        grid = _cdf_grid(params.alpha, params.beta, float(np.max(near)))
    return _standard_cdf(z, params.alpha, params.beta, grid)


def _logit(f):
    f = np.clip(f, 1e-300, 1.0 - 2.0**-53)  # 0 and 1 stay finite
    return np.log(f) - np.log1p(-f)


def _invert(p: np.ndarray, z: np.ndarray, f: np.ndarray, cdf) -> np.ndarray:
    """Standard quantiles at levels ``p`` from a node table ``f`` = cdf(``z``):
    regula falsi with the Illinois step on logit(cdf) - logit(p), started on
    the cell holding each level."""
    # rounding noise can dent a table where the CDF is flat; the running
    # maximum is sorted, and its cell k still has f[k] <= p < f[k + 1]
    f = np.maximum.accumulate(f)
    k = np.clip(np.searchsorted(f, p, side="right") - 1, 0, z.size - 2)
    target = _logit(p)
    a, b, fa, fb = z[k], z[k + 1], _logit(f[k]) - target, _logit(f[k + 1]) - target
    for _ in range(_INVERT_STEPS):
        # fa and fb never share a sign, so they are equal only when both are 0
        c = b - fb * (b - a) / np.where(fb == fa, 1.0, fb - fa)
        fc = _logit(cdf(c)) - target
        crossed = fc * fb < 0.0
        a, fa = np.where(crossed, b, a), np.where(crossed, fb, 0.5 * fa)
        b, fb = c, fc
    return b


def stable_quantile(p, params: StableParams):
    """Quantile(s) of the stable law by ``_invert`` on ``stable_cdf_bulk``'s rule, the
    chirp-z grid evaluating it where it has a reach (within 1e-9 in probability): one
    node table at every alpha, ``_NEAR_Z`` and ``_FAR_Z`` past +-_TAIL_Z, over the switch."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # written so that NaN fails too
        raise ValidationError("quantile levels must lie strictly inside (0, 1)")
    alpha, beta = params.alpha, params.beta
    zeta, _, reach = _skew(alpha, beta)
    grid = _cdf_grid(alpha, beta, reach) if reach > 0.0 else None
    # near alpha 1 the skew shift carries the bulk out past +-_TAIL_Z
    shifted = zeta + _NEAR_Z
    nodes = np.unique(np.concatenate([-_FAR_Z, _NEAR_Z, _FAR_Z, shifted[np.abs(shifted) > _TAIL_Z]]))
    cdf = functools.partial(_standard_cdf, alpha=alpha, beta=beta, grid=grid)
    z = _invert(arr.ravel(), nodes, cdf(nodes), cdf)
    q = _destandardize(z, params).reshape(arr.shape)
    return float(q) if arr.ndim == 0 else q
