"""Coefficient estimation for VAR(p): FLOC moment equations, classical
least squares, classical Yule-Walker.

All three estimators mean-correct the series first. A report holds no
residuals: ``experiments.diagnose_residuals`` computes them as
``residuals(mean_correct(series), coeffs)``. The FLOC and Yule-Walker
estimators solve the block system

    [A_1 ... A_p] [Gamma_{l-k}]_{k,l} = [Gamma_1 ... Gamma_p]

differing only in the lag-moment matrices plugged in: cross-FLOC matrices
for FLOC, plain cross-moments for Yule-Walker. Each method has one
normalizer, its literature-standard one: FLOC divides lag k by n - |k|,
Yule-Walker by n, so Yule-Walker's moments are FLOC's at B = 1 scaled
by (n - |k|) / n; ``_fit`` branches on the method once for both facts.
Least squares solves its normal equations [A_1 ... A_p] X^T X = Y^T X
on the lagged design X = (x[t-1], ..., x[t-p]) and the rows Y = x[t];
``residuals`` is Y - X [A_1 ... A_p]^T on the same design, ``_lagged``.

All three run through one core on a stack of R series: ``_prepare``
checks and mean-corrects once, then ``_fit`` solves the stack's systems
through one ``_solve_block``. ``estimate_*`` are the stack of one; the
Monte Carlo harness passes a block of replications to ``_estimate_stack``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, ValidationError, _check_int
from .floc import _check_b, lag_matrix_set
from .series import SeriesMatrix, _csv_rows, _float_field, _open_text, _write_csv

__all__ = [
    "EstimationReport",
    "estimate_floc",
    "estimate_ls",
    "estimate_yw",
    "residuals",
    "CONDITION_LIMIT",
]

CONDITION_LIMIT = 1e12

_REPORT_HEADER = "method,k,i,j,value"
_REPORT_DECLARATION = re.compile(r"# order=([1-9][0-9]*) dim=([1-9][0-9]*)")


@dataclass(frozen=True)
class EstimationReport:
    """Estimated A_1 ... A_p as one read-only (p, r, r) array, solve diagnostics, FLOC's B ``b``."""

    method: str
    coeffs: np.ndarray
    condition: float
    column_means: np.ndarray
    b: Optional[float] = None

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    def to_csv(self, path) -> None:
        """Write a self-describing coefficient report.

        The first line declares the shape, `# order=P dim=R`; then comes the
        header `method,k,i,j,value` and one row per entry of A_1..A_P
        (1-based indices), with values as shortest round-trip text.
        """
        rows = ((self.method, k + 1, i + 1, j + 1, v)
                for (k, i, j), v in np.ndenumerate(self.coeffs))
        _write_csv(path, _REPORT_HEADER, rows, f"# order={self.order} dim={self.dim}\n")

    @staticmethod
    def read_coeffs_csv(path) -> Tuple[str, np.ndarray]:
        """Read back (method, A_1 ... A_p as a read-only (p, r, r) array) written by `to_csv`.

        The report must start with its `# order=P dim=R` declaration and the
        `method,k,i,j,value` header, then hold exactly P*R*R rows in the order
        `to_csv` writes them (k, then i, then j, each from 1, as that exact text),
        with finite values and one method. Anything else (an undeclared or
        truncated report, a row out of place or past the last, a non-finite
        value, mixed methods) raises ValidationError naming the offending line.
        """
        with _open_text(path) as fh:
            declaration = fh.readline().strip()
            match = _REPORT_DECLARATION.fullmatch(declaration)
            if match is None:
                raise ValidationError(
                    f"{path}:1: expected declaration '# order=P dim=R', got {declaration!r}"
                )
            p, r = int(match.group(1)), int(match.group(2))
            header = fh.readline().strip()
            if header != _REPORT_HEADER:
                raise ValidationError(f"{path}:2: expected report header, got {header!r}")
            # lazily, as a declared shape may be too big to allocate
            places = (f"{k},{i},{j}" for k in range(1, p + 1)
                      for i in range(1, r + 1) for j in range(1, r + 1))
            values, method, lineno = [], None, 2
            for lineno, parts in _csv_rows(path, fh, 5, 3):
                if not parts[0]:
                    raise ValidationError(f"{path}:{lineno}: empty method")
                if method is None:
                    method = parts[0]
                elif parts[0] != method:
                    raise ValidationError(
                        f"{path}:{lineno}: method {parts[0]!r} differs from {method!r}"
                    )
                kij, place = ",".join(parts[1:4]), next(places, None)
                if place is None:
                    raise ValidationError(f"{path}:{lineno}: row past the last of "
                                          f"declared order={p} dim={r}")
                if kij != place:
                    raise ValidationError(f"{path}:{lineno}: expected k,i,j = {place}, got {kij!r}")
                values.append(_float_field(path, lineno, parts[4]))
                if not math.isfinite(values[-1]):
                    raise ValidationError(f"{path}:{lineno}: non-finite value {parts[4]!r}")
        if len(values) < p * r * r:
            k, i, j = next(places).split(",")
            raise ValidationError(
                f"{path}:{lineno}: report ends without row k={k}, i={i}, j={j} "
                f"(declared order={p} dim={r} needs {p * r * r} rows, got {len(values)})"
            )
        coeffs = np.array(values).reshape(p, r, r)
        coeffs.flags.writeable = False
        return method, coeffs

    def summary_text(self) -> str:
        lines = [
            f"method: {self.method}",
            f"order: {self.order}",
            f"dim: {self.dim}",
            f"condition: {self.condition:.6g}",
            "column_means: " + ",".join(map(repr, self.column_means.tolist())),
        ]
        if self.b is not None:
            lines.append(f"exp_b: {self.b!r}")
        return "\n".join(lines) + "\n"


def _lagged(x: np.ndarray, p: int) -> np.ndarray:
    """(x[t-1], ..., x[t-p]) side by side for rows t = p..n-1 of ``x`` (..., n, r)."""
    return np.concatenate([x[..., p - k : x.shape[-2] - k, :] for k in range(1, p + 1)], axis=-1)


def residuals(series: SeriesMatrix, coeffs: Sequence[np.ndarray]) -> SeriesMatrix:
    """z[t] = x[t] - sum_k A_k x[t-k] for t > p; length n - p."""
    p, r = _check_int(len(coeffs), "order", 1), series.dim
    for k, mat in enumerate(coeffs, start=1):
        if np.shape(mat) != (r, r):
            raise ValidationError(f"A_{k} has shape {np.shape(mat)}; the series has dimension {r}")
    if series.n <= p:
        raise ValidationError(f"series of length {series.n} too short for order {p}")
    return SeriesMatrix(series.values[p:] - _lagged(series.values, p) @ np.hstack(coeffs).T)


def _prepare(values: np.ndarray, p: int):
    """Mean-correct each series of a stack (R, n, r) after the checks all methods share.

    Raises ValidationError unless the order is an integer >= 1. Returns the
    corrected stack, the column means (R, r) and, for each series with a
    non-finite entry or a constant column, the ValidationError its estimates
    fail with.
    """
    _check_int(p, "order", 1)
    finite = np.isfinite(values).all(axis=(-2, -1))
    if not finite.all():  # fit those series as zeros, so no step sees inf or NaN
        values = np.where(finite[:, None, None], values, 0.0)
    errors = {}
    for i, spans in enumerate(np.ptp(values, axis=-2)):
        flat = np.nonzero(spans == 0.0)[0]
        if not finite[i]:
            errors[i] = ValidationError("series contains non-finite entries")
        elif flat.size:
            errors[i] = ValidationError(
                f"constant column(s) {', '.join(str(j + 1) for j in flat)}: "
                "lag-0 moment matrix would be singular"
            )
    means = values.mean(axis=-2, keepdims=True)
    return values - means, means[:, 0], errors


def _too_short(corrected: np.ndarray, p: int, min_n: int):
    """The fit of a stack of series too short for a method: every series fails."""
    reps, n, r = corrected.shape
    exc = ValidationError(f"series of length {n} too short: need more than {min_n} rows")
    return np.full((reps, p, r, r), np.nan), np.full(reps, np.nan), dict.fromkeys(range(reps), exc)


def _toeplitz_system(gammas: np.ndarray):
    """Block [Gamma_{l-k}]_{k,l} (R, pr, pr) and rhs [Gamma_1..Gamma_p] (R, r, pr) of
    each replication's lag moments ``gammas`` (R, 2p, r, r) at lags -(p-1)..p."""
    reps, lags, r, _ = gammas.shape
    p = lags // 2
    k = np.arange(p)
    block = gammas[:, k[None, :] - k[:, None] + p - 1]  # [R, k, l] = Gamma_{l-k}
    block = block.transpose(0, 1, 3, 2, 4).reshape(reps, p * r, p * r)
    return block, gammas[:, p:].transpose(0, 2, 1, 3).reshape(reps, r, p * r)


def _solve_block(block: np.ndarray, rhs: np.ndarray):
    """Solve [A_1..A_p] block = rhs for each replication of a stack.

    ``block`` is (R, pr, pr) and ``rhs`` (R, r, pr). Returns the coefficients
    (R, p, r, r), the condition number of each block and the mask of
    replications whose condition is non-finite or above CONDITION_LIMIT;
    their coefficients are NaN and the condition of a block with a
    non-finite entry is NaN.
    """
    reps, r, size = rhs.shape
    condition = np.full(reps, np.nan)
    finite = np.isfinite(block).all(axis=(1, 2))
    condition[finite] = np.linalg.cond(block[finite])
    bad = ~(condition <= CONDITION_LIMIT)
    stacked = np.full((reps, size, r), np.nan)
    stacked[~bad] = np.linalg.solve(block[~bad].transpose(0, 2, 1), rhs[~bad].transpose(0, 2, 1))
    return stacked.reshape(reps, size // r, r, r).transpose(0, 1, 3, 2), condition, bad


def _fit(corrected: np.ndarray, failed: dict, p: int, method: str, b: Optional[float] = None):
    """Coefficients of ``method`` for each mean-corrected series in a stack (R, n, r).

    ``method`` is "floc" (exponent ``b``), "yw" or "ls"; ``failed`` maps
    the series that failed the checks of ``_prepare`` to their errors.
    Returns the coefficients (R, p, r, r), the condition numbers (R,) of
    each block matrix (FLOC, Yule-Walker) or lagged design X, sqrt(cond(X^T X))
    (least squares), NaN for those series, and {index: exception} with the
    exception that estimating each failing series alone raises.
    """
    n, r = corrected.shape[-2:]
    size = p * r
    min_n = size + p if method == "ls" else 2 * size
    if n <= min_n:
        return _too_short(corrected, p, min_n)
    if method == "ls":  # normal equations [A_1..A_p] X^T X = Y^T X, X = (x[t-1]..x[t-p])
        design = _lagged(corrected, p)
        design_t = design.transpose(0, 2, 1)
        block, rhs = design_t @ design, corrected[:, p:].transpose(0, 2, 1) @ design
        fault = (f"least-squares design matrix ({n - p}x{size}, lags 1..{p}) "
                 "is numerically rank deficient")
    else:
        if method == "yw":  # FLOC's moments at B = 1, lag k divided by n, not n - |k|
            gammas = lag_matrix_set(corrected, p, 1.0)
            gammas = gammas * ((n - np.abs(np.arange(1 - p, p + 1))) / n)[:, None, None]
            name = "autocovariance"
        else:
            gammas, name = lag_matrix_set(corrected, p, b), "cross-FLOC"
        block, rhs = _toeplitz_system(gammas)
        lags = "lag matrix Gamma_0" if p == 1 else f"lag matrices Gamma_-{p - 1}..Gamma_{p - 1}"
        fault = f"{name} block matrix ({size}x{size} of {lags}) is numerically singular"
    coeffs, condition, bad = _solve_block(block, rhs)
    if method == "ls":  # the design's condition: the square root of its Gram's
        condition = np.sqrt(condition)
    condition[list(failed)] = np.nan
    errors = dict(failed)
    for i in np.flatnonzero(bad):
        errors.setdefault(int(i), NumericalError(f"{fault}: condition {condition[i]:.3g}"))
    return coeffs, condition, errors


def _estimate_stack(values: np.ndarray, p: int, keys) -> dict:
    """FLOC, least-squares and Yule-Walker coefficients of each series in a stack (R, n, r).

    ``keys`` holds ("floc", B) for FLOC at exponent B, ("ls", None) and
    ("yw", None), each giving the coefficients of its ``estimate_*``, without
    residuals or reports. Returns {key: fit}, each fit as ``_fit`` returns
    it, from one mean correction.
    """
    corrected, _, failed = _prepare(values, p)
    return {key: _fit(corrected, failed, p, *key) for key in keys}


def _estimate_one(method: str, series: SeriesMatrix, p: int, b: Optional[float] = None):
    """Report of ``method`` (exponent ``b`` for FLOC) on one series: the stack of one."""
    corrected, means, failed = _prepare(series.values[None], p)
    coeffs, condition, errors = _fit(corrected, failed, p, method, b)
    if errors:
        raise errors[0]
    coeffs = coeffs[0]
    coeffs.flags.writeable = False
    return EstimationReport(method, coeffs, float(condition[0]), means[0], b)


def estimate_floc(series: SeriesMatrix, p: int, b: float) -> EstimationReport:
    """FLOC coefficient estimates from the lag cross-FLOC block system at exponent ``b``.

    Choose B below alpha - 1 (the usual working default is B = alpha_hat - 1.05).
    """
    return _estimate_one("floc", series, p, _check_b(b))


def estimate_yw(series: SeriesMatrix, p: int) -> EstimationReport:
    """Classical Yule-Walker: the block system with sample cross-moments."""
    return _estimate_one("yw", series, p)


def estimate_ls(series: SeriesMatrix, p: int) -> EstimationReport:
    """Least squares: regress x[t] on (x[t-1], ..., x[t-p])."""
    return _estimate_one("ls", series, p)
