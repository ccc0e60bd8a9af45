"""Stable distribution function and quantiles: one rule on the standardized z,
set by ``_standard_cdf`` for a stack of laws, one per row. Past the switch at
+-``_TAIL_Z`` = 15 s_ab, where s_ab = (1 + zeta^2)^(1/(2 alpha)) and
zeta = beta tan(pi alpha / 2), one tail series serves (Zolotarev's expansion; Nolan 2020,
*Univariate Stable Distributions*, ch. 3), for all of a stack's tail points in one pass;
within it Zolotarev's integral form (Nolan 1997, *Numerical calculation of stable
densities and distribution functions*, Theorem 1), or for alpha > 1 and |zeta| <= 32 in
``stable_cdf_bulk`` and ``stable_quantile`` a grid over the law's reach, the switch or
``_GRID_CAP`` if nearer: one chirp-z transform of the Gil-Pelaez trapezoid sum (Mittnik,
Doganoglu and Chenyao, 1999) plus a polynomial in z for its error at the t^alpha branch
point (Navot 1961, *J. Math. Phys.* 40), within 1e-9 of Zolotarev's form between its
points. ``_law`` gives a law's zeta, switch and grid from the law alone, so a stack's laws
fall into a few grid shapes and ``_grid_stack`` builds each shape's grids in one transform.
The one-law functions are the stack of one, and each law of a stack gets the bits of its
one-law call. ``stable_quantile`` inverts the rule over one node table at every alpha; a grid
only evaluates it there.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from . import _kernels
from .errors import ValidationError
from .stable_noise import StableParams, _destandardize, _standardize

__all__ = ["stable_cdf", "stable_cdf_bulk", "stable_quantile"]

# the trapezoid stops at T = _LOG_CUTOFF^(1/alpha), where exp(-T^alpha) = 1e-17
_LOG_CUTOFF = 39.1
# the tail switch in units of s_ab: over alpha 0.1-1.999 the series meets Zolotarev's form
# there to 6.8e-15 absolute and, on the heavy side, 3.7e-12 relative (2.8e-7 at 10 s_ab)
_TAIL_Z, _TAIL_TERMS = 15.0, 20
# the grid's reach stops here: its node count grows with the reach
_GRID_CAP = 90.0
# grid spacing: quintic Hermite between the grid's points adds at most 1.6e-10
_GRID_DZ = 0.08
# the trapezoid's correction sums k = 1.._SERIES and l = 0.._SERIES; the node spacing h
# keeps |c| h^alpha <= _SERIES_RATIO, c = 1 - i zeta, so the k series falls fast near alpha 1
_SERIES, _SERIES_RATIO = 10, 0.3
# _riemann_zeta: _ZETA_TERMS terms, then Euler-Maclaurin's tail with B_2j / (2j)!, j = 1..5
_ZETA_TERMS, _EM_B = 6, np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160])
# the grid's largest |zeta|: past it the phase zeta t^alpha outruns the grid's nodes
_GRID_ZETA = 32.0
# 2^a 3^b 5^c: all of them up to 2^15, since 3^10 and 5^7 lie past it
_FAST_LENS = sorted(2**a * 3**b * 5**c for a in range(16) for b in range(10) for c in range(7))
# values per pass of the stacked CDF, which bounds its temporaries: a chirp-z pass of
# ``_grid_stack`` takes as many laws as fit with their FFT lengths, a point pass of
# ``_cdf_stack`` as many rows as fit with their points (at least one either way)
_PASS_VALUES = 8192
# exp(-g) is 1 in double precision below the first cut and under 2e-24 above
# the last; the logit runs over +-_S_MAX, whose ends hold 4e-18 of the range
_LOG_G_CUTS = np.array([-37.0, 0.0, 4.0])
_NODES, _CUT_STEPS, _S_MAX = 128, 20, 40.0
# points per pass of the Zolotarev engine, which bounds its temporaries
_CHUNK = 1024
# regula falsi steps per quantile; nodes: even integers for the bulk, powers of two
# to the edge at 0 of |beta| = 1 (2^-50 lies below 7.6e-15, the level-1e-12 quantile at alpha
# 0.1); past +-_TAIL_Z they double out past 2e299, the level-1e-30 quantile at alpha 0.1
_INVERT_STEPS = 14
_NEAR_Z = np.concatenate([np.ldexp(1.0, np.arange(-50, 1)), np.arange(2.0, _TAIL_Z, 2.0)])
_NEAR_Z = np.concatenate([-_NEAR_Z[::-1], [0.0], _NEAR_Z])
_FAR_Z = _TAIL_Z * np.exp2(np.arange(math.ceil(math.log2(2e299 / _TAIL_Z)) + 1.0))


def _tail_prob(z: np.ndarray, alpha, beta) -> np.ndarray:
    """P(Z > z) past the switch, each point of z (1-d, > 0) under its own law: ``alpha`` and
    ``beta`` are scalars or of z's shape. (1/pi) sum_k (-1)^(k+1) Gamma(alpha k) / k! Im(w^k),
    w = (s_ab / z)^alpha e^(i theta), theta = pi alpha / 2 + atan(zeta). Im(w) is
    sin(pi alpha / 2) (1 + beta) z^-alpha, so at beta = -1 every term is 0, as at alpha = 2."""
    alpha, beta = np.broadcast_to(alpha, z.shape), np.broadcast_to(beta, z.shape)
    laws, law = np.unique(alpha + 1j * beta, return_inverse=True)  # one complex key per law
    base, coef = [], []
    for a, b in zip(laws.real.tolist(), laws.imag.tolist()):
        half, zeta = 0.5 * math.pi * a, _law(a, b)[0]
        base.append(complex(math.cos(half) - zeta * math.sin(half),
                            0.0 if a == 2.0 else math.sin(half) * (1.0 + b)))
        coef.append([(-1) ** (k + 1) * math.gamma(a * k) / (math.factorial(k) * math.pi)
                     for k in range(1, _TAIL_TERMS + 1)])
    # z^-alpha as exp(-alpha log z) and row sums, not a matrix product: each point keeps
    # its bits whatever the stack
    w = (np.exp(-alpha * np.log(z)) * np.array(base)[law])[:, None]
    terms = np.cumprod(np.repeat(w, _TAIL_TERMS, axis=1), axis=1).imag * np.array(coef)[law]
    return terms.sum(axis=1)


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
    share = 0.5 + np.arctan(side * _law(alpha, beta)[0]) / (alpha * np.pi)
    live = (z != 0.0) & (share > 0.0)
    upper = np.zeros(z.shape)
    upper[live] = _angle_integral(np.abs(z[live]), alpha, side[live] * beta)
    upper = np.where(live, share - upper if alpha < 1.0 else upper, share)
    return np.where(side > 0.0, 1.0 - upper, upper)


def _standard_cdf(z: np.ndarray, alpha: np.ndarray, beta: np.ndarray, grid=None) -> np.ndarray:
    """Standard CDF of law i (``alpha[i]``, ``beta[i]``) at row i of z (L, n), and the one
    place its tail rule is set: the ``_grid_stack`` ``grid`` over its span where the law has
    one, Zolotarev's form on to the tail switch, the tail series past it (one pass)."""
    laws = list(zip(alpha.tolist(), beta.tolist()))
    switch = np.array([_law(a, b)[1] for a, b in laws])[:, None]
    sign = np.where(z > switch, 1.0, 0.0) - np.where(z < -switch, 1.0, 0.0)
    tail = sign != 0.0
    out = np.empty(z.shape)
    if tail.any():
        rows, side = np.nonzero(tail)[0], sign[tail]
        p = _tail_prob(side * z[tail], alpha[rows], side * beta[rows])
        out[tail] = np.where(side > 0.0, 1.0 - p, p)
    near = np.zeros(z.shape, dtype=bool)
    if grid is not None:
        m = grid[0][:, None]
        near = (m > 0) & (np.abs(z) <= _GRID_DZ * m) & ~tail
        out[near] = _grid_cdf(grid, np.nonzero(near)[0], z[near])
    rest = ~(near | tail)
    for i in np.flatnonzero(rest.any(axis=1)):
        out[i, rest[i]] = _zolotarev_cdf(z[i, rest[i]], *laws[i])
    return np.clip(out, 0.0, 1.0)


def stable_cdf(x, params: StableParams):
    """Distribution function of the stable law at scalar or array ``x``."""
    z = _standardize(x, params)
    out = _standard_cdf(z.reshape(1, -1), np.array([params.alpha]), np.array([params.beta]))
    return float(out[0, 0]) if z.ndim == 0 else out.reshape(z.shape)


def _riemann_zeta(x: np.ndarray) -> np.ndarray:
    """Riemann's zeta at x > 1, within 2e-12 relative on (1, 40]: n - 1 = _ZETA_TERMS terms, the
    tail's integral and Euler-Maclaurin's terms B_2j / (2j)! x (x+1) ... (x+2j-2) n^(1-x-2j)."""
    n = _ZETA_TERMS + 1.0
    head = np.power.outer(np.arange(1.0, n), -x).sum(axis=0)
    rise = np.cumprod((x[..., None] + np.arange(2.0 * _EM_B.size - 1)) / n, axis=-1)[..., ::2]
    return head + n**-x * (n / (x - 1.0) + 0.5 + (rise * _EM_B).sum(axis=-1))


def _trapezoid_correction(alpha: np.ndarray, zeta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coefficients b (L, _SERIES + 1) of P(z) = sum_l b_l u^l, u = h z / (2 pi), the trapezoid
    sum's error at t = 0 (Navot 1961), for a stack of laws and their node spacings (L,).
    Im[phi(t) e^(-itz)] / t sums Im[(-c)^k (-i)^l] z^l t^s / (k! l!), c = 1 - i zeta,
    s = k alpha + l - 1; the k = 0 terms need only the t = 0 node, and each k >= 1 term leaves
    R(-s) h^(s+1) = 2 (h / 2 pi)^(s+1) cos(pi (s+1) / 2) Gamma(s+1) R(s+1), R Riemann's zeta."""
    k, l = np.arange(1, _SERIES + 1)[:, None], np.arange(_SERIES + 1)
    x = alpha[:, None, None] * k + l
    # Gamma(x) (h / 2 pi)^(k alpha) / (k! l!) by rising factorials in l
    lead = np.array([[math.gamma(a * j) / math.factorial(j) * (s / (2.0 * math.pi)) ** (a * j)
                      for j in range(1, _SERIES + 1)] for a, s in zip(alpha.tolist(), h.tolist())])
    g = np.cumprod(np.concatenate([lead[..., None], x[..., :-1] / l[1:]], axis=-1), axis=-1)
    c = np.array([complex(-1.0, v) for v in zeta.tolist()])[:, None, None]
    im = ((c**k) * (-1j) ** l).imag
    return (2.0 * im * np.cos(0.5 * math.pi * x) * _riemann_zeta(x) * g).sum(axis=1)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT runs on small radices: exact up to 2^15
    (a grid needs at most 6,200), and one such length past it."""
    return _FAST_LENS[bisect.bisect_left(_FAST_LENS, n)]


def _law(alpha: float, beta: float) -> tuple[float, float, float, float, int, int]:
    """(zeta, tail switch, grid reach, h, m, size) in standard z: no switch at alpha = 1, where
    zeta is undefined, and no grid (the last four 0) unless alpha > 1 and |zeta| <= _GRID_ZETA. A
    grid reaches the nearer of the switch and _GRID_CAP: points k _GRID_DZ, k = -m..m, and nodes
    t_j = j h, j = 1..size - 2m - 1, filling the FFT length ``size`` past _LOG_CUTOFF^(1/alpha)
    (amplitudes below 1e-17); h reach <= 1 keeps u = h z / (2 pi) small, aliases 2 pi / h away."""
    zeta = 0.0 if alpha == 1.0 else beta * math.tan(0.5 * math.pi * alpha)
    switch = math.inf if alpha == 1.0 else _TAIL_Z * math.hypot(1.0, zeta) ** (1.0 / alpha)
    if not (alpha > 1.0 and abs(zeta) <= _GRID_ZETA):
        return zeta, switch, 0.0, 0.0, 0, 0
    reach = min(switch, _GRID_CAP)
    h = min(1.0 / reach, (_SERIES_RATIO / math.hypot(1.0, zeta)) ** (1.0 / alpha))
    m = int(reach / _GRID_DZ) + 2
    size = _fast_len(math.ceil(_LOG_CUTOFF ** (1.0 / alpha) / h) + 2 * m + 1)
    return zeta, switch, reach, h, m, size


def _bulk_grid(alpha: np.ndarray, zeta: np.ndarray, h: np.ndarray, nodes: int):
    """``_kernels.gil_pelaez_cdf``'s (t, amp, ph, w0) for a stack of laws (L,) and their node
    spacings h: the trapezoid nodes t_j = j h, j = 1..nodes, one row per law."""
    t = h[:, None] * np.arange(1, nodes + 1)
    # t^alpha as exp(alpha log t): ``**`` squares a lone exponent of 2 but calls pow in a stack
    t_alpha = np.exp(alpha[:, None] * np.log(t))
    return t, np.exp(-t_alpha) * h[:, None] / t, zeta[:, None] * t_alpha, 0.5 * h


def _cdf_grid(alpha: np.ndarray, zeta: np.ndarray, h: np.ndarray, m: int, size: int) -> np.ndarray:
    """f (L, 3, 2m + 1) for a stack of laws (L,) of one grid shape (``_law``'s m and size):
    f[i, d] is the d-th z-derivative of law i's standard CDF at k _GRID_DZ, k = -m..m."""
    z = _GRID_DZ * np.arange(-m, m + 1)
    f = _kernels.gil_pelaez_cdf(z, *_bulk_grid(alpha, zeta, h, size - 2 * m - 1))
    # plus P / pi and its z-derivatives, summed term by term in the powers u^l
    scale, l = (h / (2.0 * math.pi))[:, None], np.arange(_SERIES + 1)
    b = _trapezoid_correction(alpha, zeta, h) / math.pi
    rows = np.zeros((alpha.size, 3, l.size))
    rows[:, 0], rows[:, 1, :-1] = b, scale * (l * b)[:, 1:]
    rows[:, 2, :-2] = scale**2 * (l * (l - 1) * b)[:, 2:]
    u = np.ones((alpha.size, 1, z.size))
    poly = rows[:, :, :1] * u
    for j in l[1:]:
        u = u * (scale[:, :, None] * z)
        poly += rows[:, :, j : j + 1] * u
    return f + poly


def _grid_stack(alpha: np.ndarray, beta: np.ndarray):
    """(m, f) of a stack of laws (L,): law i's ``_cdf_grid`` in f[i, :, : 2 m[i] + 1], and
    m[i] = 0 for a law without a reach. One ``_cdf_grid`` per grid shape and pass."""
    zeta, _, _, h, m, size = (np.array(v) for v in zip(*map(_law, alpha.tolist(), beta.tolist())))
    f = np.zeros((m.size, 3, 2 * m.max() + 1))
    for shape in sorted(set(zip(m.tolist(), size.tolist())) - {(0, 0)}):
        same = np.flatnonzero((m == shape[0]) & (size == shape[1]))
        laws_per_pass = max(1, _PASS_VALUES // shape[1])
        for part in np.split(same, range(laws_per_pass, same.size, laws_per_pass)):
            f[part, :, : 2 * shape[0] + 1] = _cdf_grid(alpha[part], zeta[part], h[part], *shape)
    return m, f


def _grid_cdf(grid, law: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Quintic Hermite interpolation of a ``_grid_stack``: point z[j] (1-d) on law[j]'s grid."""
    m, f = grid
    dz, half, width = _GRID_DZ, m[law], f.shape[2]
    u = (z + dz * half) / dz
    k = np.clip(u.astype(int), 0, 2 * half - 1)
    s = u - k
    r = 1.0 - s
    s3, r2 = s * s * s, r * r
    g = s3 * (10.0 - 15.0 * s + 6.0 * s * s)
    flat, at = f.ravel(), law * (3 * width) + k  # f[law, d, k] is flat[at + d * width]
    f0, f1, d0, d1, c0, c1 = (flat[at + d * width + j] for d in range(3) for j in (0, 1))
    return (
        f0
        + g * (f1 - f0)
        + dz * (s * r2 * r * (1.0 + 3.0 * s) * d0 - s3 * r * (4.0 - 3.0 * s) * d1)
        + 0.5 * dz * dz * (s * s * r2 * r * c0 + s3 * r2 * c1)
    )


def _cdf_stack(z: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Standard CDF of law i at row i of z (L, n): one ``_grid_stack`` over all the laws,
    then ``_standard_cdf`` a pass of rows at a time."""
    m, f = _grid_stack(alpha, beta)
    rows = max(1, _PASS_VALUES // max(z.shape[1], 1))
    out = np.empty(z.shape)
    for lo in range(0, z.shape[0], rows):
        part = slice(lo, lo + rows)
        out[part] = _standard_cdf(z[part], alpha[part], beta[part], (m[part], f[part]))
    return out


def stable_cdf_bulk(x: np.ndarray, params: StableParams) -> np.ndarray:
    """CDF at many points in one pass: the stack of one of ``_cdf_stack``, whose chirp-z
    grid serves within the law's reach (``_law``) and ``stable_cdf``'s rule the rest."""
    z = _standardize(x, params)
    out = _cdf_stack(z.reshape(1, -1), np.array([params.alpha]), np.array([params.beta]))
    return out.reshape(z.shape)


def _logit(f):
    f = np.clip(f, 1e-300, 1.0 - 2.0**-53)  # 0 and 1 stay finite
    return np.log(f) - np.log1p(-f)


def _invert(p: np.ndarray, z: np.ndarray, f: np.ndarray, cdf) -> np.ndarray:
    """Standard quantiles at levels ``p`` from a node table ``f`` = cdf(``z``):
    regula falsi with the Illinois step on logit(cdf) - logit(p), started on
    the cell holding each level, then the running maximum in the levels' order."""
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
    # where the CDF lies below its own accuracy the roots wander; keep them in order
    order = np.argsort(p, kind="stable")
    b[order] = np.maximum.accumulate(b[order])
    return b


def stable_quantile(p, params: StableParams):
    """Quantile(s) of the stable law by ``_invert`` on ``stable_cdf_bulk``'s rule, the
    chirp-z grid evaluating it where it has a reach (within 1e-9 in probability): one
    node table at every alpha, ``_NEAR_Z`` and ``_FAR_Z`` past +-_TAIL_Z, over the switch.

    A level has a meaningful quantile only where the CDF exceeds its own accuracy, about
    1e-16: in a light tail (alpha = 2, or alpha > 1 on the short side of |beta| = 1), where
    the CDF falls to 1e-17 and below within the switch and is 0 past it, the quantiles of
    levels below about 1e-16 are finite and nondecreasing in the level, and nothing more."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # written so that NaN fails too
        raise ValidationError("quantile levels must lie strictly inside (0, 1)")
    law = np.array([params.alpha]), np.array([params.beta])
    grid = _grid_stack(*law)
    # near alpha 1 the skew shift carries the bulk out past +-_TAIL_Z
    shifted = _law(params.alpha, params.beta)[0] + _NEAR_Z
    nodes = np.unique(np.concatenate([-_FAR_Z, _NEAR_Z, _FAR_Z, shifted[np.abs(shifted) > _TAIL_Z]]))

    def cdf(v):
        return _standard_cdf(v[None], *law, grid)[0]

    z = _invert(arr.ravel(), nodes, cdf(nodes), cdf)
    q = _destandardize(z, params).reshape(arr.shape)
    return float(q) if arr.ndim == 0 else q
