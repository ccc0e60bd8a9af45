"""VAR(p) models: causality, moving-average weights, simulation.

The process is x[t] = A_1 x[t-1] + ... + A_p x[t-p] + z[t] with z[t] an
independent-component symmetric stable vector. A ``VarModel`` is causal by
construction: it refuses coefficients whose companion spectral radius is not
below 1, so nothing downstream checks again. Simulation starts from zero
states and discards a burn-in prefix so the retained path is effectively
stationary. The default prefix is at least DEFAULT_BURN_IN rows and long
enough for the moving-average weights Psi_j to fall below 1e-12, however
close the model is to a unit root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import ValidationError, _check_int
from .seeding import Seed
from .series import SeriesMatrix
from .stable_noise import SymmetricStableNoiseSpec, sample_noise_matrix

__all__ = [
    "VarModel",
    "SeriesMatrix",
    "CausalityResult",
    "companion_matrix",
    "is_causal",
    "psi_matrices",
    "psi_count_for_tolerance",
    "simulate",
    "mean_correct",
]

DEFAULT_BURN_IN = 500
DEFAULT_CAUSALITY_MARGIN = 1e-8
_PSI_TOL, _PSI_CAP = 1e-12, 100_000  # psi_count_for_tolerance's level and longest search


@dataclass(frozen=True)
class VarModel:
    """Causal order-p vector autoregression with stable noise.

    ``coeffs`` takes A_1 ... A_p, each r x r, and holds them as one read-only
    (p, r, r) array; ``is_causal(coeffs)`` must hold: others are refused here.
    """

    coeffs: np.ndarray
    noise: SymmetricStableNoiseSpec

    def __post_init__(self) -> None:
        mats = [np.array(a, dtype=float) for a in self.coeffs]
        if len(mats) < 1:
            raise ValidationError("model needs at least one coefficient matrix")
        r = mats[0].shape[0] if mats[0].ndim == 2 else -1
        for k, a in enumerate(mats, start=1):
            if a.ndim != 2 or a.shape != (r, r):
                raise ValidationError(f"A_{k} must be {r}x{r}, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValidationError(f"A_{k} contains non-finite entries")
        if self.noise.dim != r:
            raise ValidationError(f"noise dimension {self.noise.dim} != model dimension {r}")
        check = is_causal(mats)
        if not check.causal:
            raise ValidationError(
                f"model is not causal: companion spectral radius {check.spectral_radius:.6f} >= 1"
            )
        object.__setattr__(self, "coeffs", np.stack(mats))
        self.coeffs.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def order(self) -> int:
        return len(self.coeffs)


class CausalityResult(NamedTuple):
    causal: bool
    spectral_radius: float


def companion_matrix(coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """pr x pr companion form [[A_1 ... A_p], [I 0 ...], ...]."""
    p = len(coeffs)
    r = coeffs[0].shape[0]
    comp = np.zeros((p * r, p * r))
    comp[:r] = np.hstack(coeffs)
    if p > 1:
        comp[r:, : (p - 1) * r] = np.eye((p - 1) * r)
    return comp


def is_causal(coeffs: Sequence[np.ndarray]) -> CausalityResult:
    """Whether the companion spectral radius of A_1 ... A_p is below 1 - DEFAULT_CAUSALITY_MARGIN.

    Radius < 1 is equivalent to det(I - A_1 z - ... - A_p z^p) != 0 on the
    closed unit disk, the usual causality condition. ``VarModel`` refuses
    coefficients that fail it; check a model's as ``is_causal(model.coeffs)``.
    """
    radius = float(np.max(np.abs(np.linalg.eigvals(companion_matrix(coeffs)))))
    return CausalityResult(radius < 1.0 - DEFAULT_CAUSALITY_MARGIN, radius)


def psi_matrices(model: VarModel, count: int) -> np.ndarray:
    """Moving-average weights Psi_0 ... Psi_count as a (count + 1, r, r) array.

    Psi_0 = I and Psi_j = sum_{k=1}^{min(j,p)} A_k Psi_{j-k}, which decay
    geometrically as the model is causal: the response of ``var_recursion`` to
    a unit impulse in each component i at time 0 is column i of each Psi_j.
    """
    _check_int(count, "count", 0)
    r = model.dim
    impulse = np.zeros((r, count + 1, r))
    impulse[:, 0] = np.eye(r)
    return _kernels.var_recursion(model.coeffs, impulse).transpose(1, 2, 0)


def psi_count_for_tolerance(model: VarModel) -> int:
    """Smallest j >= 1 with max-abs entry of Psi_j below 1e-12, searched up to j = 100,000.

    Psi comes in passes of 2,000 terms and then four times as many, so a
    fast-decaying model costs one short pass. Past the cap it raises the
    ValidationError that ``simulate`` gives for no default burn-in.
    """
    count = 0
    while count < _PSI_CAP:
        count = min(max(4 * count, 2000), _PSI_CAP)
        below = np.max(np.abs(psi_matrices(model, count)[1:]), axis=(1, 2)) < _PSI_TOL
        if below.any():
            return int(np.argmax(below)) + 1
    raise ValidationError(
        f"no default burn-in: Psi entries did not fall below {_PSI_TOL} within {_PSI_CAP} "
        "terms; pass burn_in explicitly"
    )


def _resolve_burn_in(model: VarModel, burn_in) -> int:
    """``burn_in`` itself, or for None the default max(DEFAULT_BURN_IN,
    psi_count_for_tolerance(model)): enough rows for the zero start to decay
    to about 1e-12 of its size before the first retained row.
    """
    if burn_in is not None:
        _check_int(burn_in, "burn_in", 0)
        return burn_in
    return max(DEFAULT_BURN_IN, psi_count_for_tolerance(model))


def _simulate_paths(model: VarModel, n: int, burn_in, generators) -> np.ndarray:
    """Paths (R, n, r) of the model, one per seed in ``generators``, burn-in dropped.

    Series i draws its noise from ``generators[i]`` alone and all R run
    through one recursion, which gives each the same bits as on its own.
    ``burn_in`` None takes the default of ``_resolve_burn_in``.
    """
    _check_int(n, "n", 1)
    burn_in = _resolve_burn_in(model, burn_in)
    noise = np.stack(
        [sample_noise_matrix(model.noise, n + burn_in, g).values for g in generators]
    )
    return _kernels.var_recursion(model.coeffs, noise)[:, burn_in:]


def simulate(
    model: VarModel,
    n: int,
    burn_in: Optional[int] = None,
    rng_seed: Seed = 0,
) -> SeriesMatrix:
    """Simulate n observations of the model after discarding ``burn_in`` rows.

    Initial states are zero vectors; with burn_in = 0 and all-zero
    coefficients the output reproduces sample_noise_matrix draws exactly.
    Without ``burn_in`` the default is max(DEFAULT_BURN_IN,
    psi_count_for_tolerance(model)), a ValidationError when Psi has not
    decayed to 1e-12 within that function's cap.
    """
    return SeriesMatrix(_simulate_paths(model, n, burn_in, [rng_seed])[0])


def mean_correct(series: SeriesMatrix) -> SeriesMatrix:
    """Subtract per-column sample means."""
    if series.n < 2:
        raise ValidationError("mean correction needs at least 2 observations")
    return SeriesMatrix(series.values - series.values.mean(axis=0))
