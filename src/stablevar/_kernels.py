"""Hot numeric kernels in plain numpy: the CMS transform, the VAR
recursion, the cross-FLOC window sum and the bulk Gil-Pelaez CDF.

Callers reach them as attributes of this module (``_kernels.var_recursion``
and so on), so each kernel has one implementation under one name.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "stable_transform",
    "var_recursion",
    "cross_floc_sum",
    "gil_pelaez_cdf",
]


def stable_transform(phi: np.ndarray, w: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of a uniform angle and an exponential.

    ``phi`` is uniform on (-pi/2, pi/2), ``w`` standard exponential. Returns
    draws from the standard stable law with unit scale and zero shift in the
    parametrization whose characteristic function is
    exp{-|t|^a [1 - i b sign(t) tan(pi a/2)]} for alpha != 1. The alpha = 2
    short-circuit lives in the caller.
    """
    if alpha == 1.0:
        bphi = 0.5 * np.pi + beta * phi
        x = (2.0 / np.pi) * (
            bphi * np.tan(phi) - beta * np.log((0.5 * np.pi * w * np.cos(phi)) / bphi)
        )
        return x
    if beta == 0.0:
        return (np.sin(alpha * phi) / np.cos(phi) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * phi) / w
        ) ** ((1.0 - alpha) / alpha)
    zeta = beta * math.tan(0.5 * math.pi * alpha)
    b_ab = math.atan(zeta) / alpha
    s_ab = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    return (
        s_ab
        * (np.sin(alpha * (phi + b_ab)) / np.cos(phi) ** (1.0 / alpha))
        * (np.cos(phi - alpha * (phi + b_ab)) / w) ** ((1.0 - alpha) / alpha)
    )


def var_recursion(coeffs: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Drive x[t] = sum_k coeffs[k-1] @ x[t-k] + noise[t] from zero states.

    ``coeffs`` has shape (p, r, r), ``noise`` shape (m, r); returns (m, r).
    """
    p = coeffs.shape[0]
    m = noise.shape[0]
    out = noise.copy()
    for t in range(m):
        kmax = min(p, t)
        for k in range(1, kmax + 1):
            out[t] += coeffs[k - 1] @ out[t - k]
    return out


def cross_floc_sum(xi: np.ndarray, xj: np.ndarray, k: int, a: float, b: float) -> float:
    """Window sum of |xi[n]|^a |xj[n-k]|^b sign(xi[n] xj[n-k]), unnormalized.

    Valid window: n in [max(0, k), min(n, n+k)) so neither series is indexed
    out of range; the caller divides by the window length n - |k|.
    np.sum keeps the accumulation pairwise.
    """
    n = xi.shape[0]
    lo = max(0, k)
    hi = min(n, n + k)
    u = xi[lo:hi]
    v = xj[lo - k : hi - k]
    terms = np.abs(u) ** a * np.abs(v) ** b * np.sign(u) * np.sign(v)
    return float(np.sum(terms))


def gil_pelaez_cdf(
    z: np.ndarray,
    t: np.ndarray,
    amp: np.ndarray,
    ph: np.ndarray,
    w0: float,
) -> np.ndarray:
    """CDF of a standard stable law at points ``z`` by a fixed quadrature grid.

    ``t`` holds the strictly positive quadrature nodes, ``amp`` the combined
    exp(-t^alpha) * weight / t factors, ``ph`` the skewness phase at each
    node, and ``w0`` the weight of the t=0 node whose integrand limit is -z
    (valid for alpha > 1). Chunked to bound the temporary (len(z) x len(t))
    matrix.
    """
    out = np.empty(z.shape[0])
    chunk = max(1, int(4_000_000 // max(1, t.shape[0])))
    for s in range(0, z.shape[0], chunk):
        zz = z[s : s + chunk, None]
        acc = np.sin(ph[None, :] - t[None, :] * zz) @ amp
        acc += w0 * (-z[s : s + chunk])
        out[s : s + chunk] = 0.5 - acc / np.pi
    return out
