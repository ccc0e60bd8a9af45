"""Hot numeric kernels in plain numpy: the Chambers-Mallows-Stuck
transform, the VAR recursion (the causal moving-average form, one
block-Toeplitz product per series and one carried window per block of
time), the cross-FLOC window sums (one matrix product per lag) and the
bulk Gil-Pelaez CDF of a stack of laws on one equispaced grid (one
chirp-z transform per row, the rows' FFTs in one call).

Batch rule: a kernel that takes a stack of series or laws gives each the
same bits it gets alone. The VAR recursion keeps it by running the same
operations with the same shapes per series, whatever the stack size; the
CDF by elementwise operations and FFTs that run row by row.

Callers reach them as attributes of this module (``_kernels.var_recursion``
and so on), so each kernel has one implementation under one name.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["stable_transform", "var_recursion", "cross_floc_sum", "gil_pelaez_cdf"]

# Steps per block of ``var_recursion``: the Python loop runs once per block.
_BLOCK = 64


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
    zeta = beta * math.tan(0.5 * math.pi * alpha)
    b_ab = math.atan(zeta) / alpha
    s_ab = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    return (
        s_ab
        * (np.sin(alpha * (phi + b_ab)) / np.cos(phi) ** (1.0 / alpha))
        * (np.cos((1.0 - alpha) * phi - alpha * b_ab) / w) ** ((1.0 - alpha) / alpha)
    )


def var_recursion(coeffs: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Drive x[t] = sum_k coeffs[k-1] @ x[t-k] + noise[t] from zero states.

    ``coeffs`` has shape (p, r, r), ``noise`` shape (..., m, r), one series
    per leading index; returns (..., m, r). Time is cut into blocks of
    ``_BLOCK`` steps (the last one zero-padded) and each block uses the
    causal moving-average form
    x[t0+i] = sum_{j<=i} Psi_j noise[t0+i-j] + G_i w,
    where w is the flattened window x[t0-p .. t0-1] and G_i the bottom r
    rows of the (i+1)-th power of the window's transition matrix. The noise
    response of all of a series' blocks is one 2-D product with the
    block-Toeplitz matrix of Psi_0 .. Psi_{L-1}; the window term is carried
    from block to block by an elementwise multiply-and-sum over the stack.
    Both are done the same way, with the same shapes, for a series alone
    and for each series of a stack, so a series gives the same bits either
    way (one BLAS product over the whole stack would not promise that).
    """
    p, r = coeffs.shape[0], coeffs.shape[1]
    lead, m = noise.shape[:-2], noise.shape[-2]
    size, pr = _BLOCK, p * r
    step = np.zeros((pr, pr))  # window x[t-p .. t-1] -> x[t-p+1 .. t], noise aside
    step[:-r, r:] = np.eye(pr - r)
    step[-r:] = np.concatenate(coeffs[::-1], axis=1)
    gain = np.empty((size, r, pr))  # G_0 .. G_{L-1}
    gain[0] = step[-r:]
    for i in range(1, size):
        gain[i] = gain[i - 1] @ step
    psi = np.concatenate([np.eye(r)[None], gain[:-1, :, -r:]])  # Psi_j = G_{j-1}[:, -r:]
    lag = np.arange(size)[:, None] - np.arange(size)
    toeplitz = np.where((lag >= 0)[..., None, None], psi[np.maximum(lag, 0)], 0.0)
    # row-vector form: block response = noise block (flattened) @ upper
    upper = np.ascontiguousarray(toeplitz.transpose(1, 3, 0, 2).reshape(size * r, size * r))

    count, blocks = math.prod(lead), -(-m // size)
    out = np.zeros((count, blocks * size * r))
    out[:, : m * r] = noise.reshape(count, m * r)
    out = out.reshape(count, blocks, size * r)
    for series in out:
        series[:] = series @ upper
    out = out.reshape(count, blocks, size, r)
    window = np.zeros((count, pr))
    for b in range(1, blocks):
        window = np.concatenate([window, out[:, b - 1].reshape(count, size * r)], axis=1)[:, -pr:]
        out[:, b] += (gain * window[:, None, None, :]).sum(-1)
    return out.reshape(count, blocks * size, r)[:, :m].reshape(lead + (m, r))


def cross_floc_sum(u: np.ndarray, v: np.ndarray, lags) -> np.ndarray:
    """Window sums of u[n, i] v[n-k, j] for each lag k in ``lags``, unnormalized.

    ``u`` (..., N, r) holds the series x and ``v`` (..., N, s) the signed
    powers y^<B>, one series per leading index; returns (..., len(lags), r, s).
    Entry [l, i, j] sums over the valid window n in [max(0, k), min(N, N+k))
    of k = lags[l]; the caller divides by the window length N - |k|.
    """
    n = u.shape[-2]
    ut = np.swapaxes(u, -1, -2)
    return np.stack(
        [ut[..., k:] @ v[..., : n - k, :] if k >= 0 else ut[..., : n + k] @ v[..., -k:, :]
         for k in lags],
        axis=-3,
    )


def gil_pelaez_cdf(
    z: np.ndarray,
    t: np.ndarray,
    amp: np.ndarray,
    ph: np.ndarray,
    w0: float | np.ndarray,
) -> np.ndarray:
    """CDF of standard stable laws and their first two z-derivatives on a grid.

    One law per leading index of ``t``, ``amp`` and ``ph`` (..., nodes) and
    ``w0`` (...); every law takes the same grid ``z`` (2m+1,) and the result
    is (..., 3, 2m+1). ``t`` holds the quadrature nodes t_j = j h (j >= 1),
    ``amp`` the combined exp(-t^alpha) * weight / t factors, ``ph`` the
    skewness phase at each node, and ``w0`` the weight of the t=0 node whose
    integrand limit is -z (valid for alpha > 1). Row 0 is
    0.5 - (S(z) - w0 z) / pi with S(z) = Im sum_j c_j W^(jk),
    c_j = amp_j exp(i ph_j), W = exp(-i h dz), at z = k dz for k = -m..m and
    any spacing dz; the d-th z-derivative multiplies c_j by (-i t_j)^d. With
    jk = (j^2 + k^2 - (k-j)^2) / 2 each row is one convolution with the chirp
    W^(-n^2/2) (Bluestein's chirp-z transform), whose FFT the three rows share.
    """
    m, nodes = z.shape[0] // 2, t.shape[-1]
    size = nodes + 2 * m + 1  # the FFT length: the caller picks nodes that make it fast
    w0 = np.asarray(w0)[..., None, None]
    n = np.arange(m + nodes + 1.0)
    chirp = np.exp(1j * (0.5 * t[..., :1] * (z[m + 1] - z[m])) * n * n)  # W^(-n^2/2), n >= 0
    c = amp * np.exp(1j * ph) * chirp[..., 1 : nodes + 1].conj()
    coef = np.fft.fft(np.stack([c, -1j * t * c, -t * t * c], axis=-2), size)
    # c_j W^(j^2/2) sits at j - 1 and W^(-n^2/2) at n + m + nodes, so the
    # convolution holds point k at k + m + nodes - 1
    response = np.fft.fft(chirp[..., np.abs(np.arange(-m - nodes, m))], size)
    conv = np.fft.ifft(coef * response[..., None, :])[..., nodes - 1 : nodes + 2 * m]
    s = (conv * chirp[..., None, np.abs(np.arange(-m, m + 1))].conj()).imag
    rows = [0.5 * math.pi - (s[..., :1, :] - w0 * z), w0 - s[..., 1:2, :], -s[..., 2:, :]]
    return np.concatenate(rows, axis=-2) / math.pi
