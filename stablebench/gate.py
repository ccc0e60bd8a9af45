"""Correctness gate: compare an operation's parsed numbers with a stored reference.

Numbers are compared after they are read back, never file bytes, so a
change of float text format does not trip the gate. Each output has one
tolerance, |got - ref| <= atol + rtol * |ref| elementwise. The tolerances
admit the deviations that the planned fast paths were measured to have:

- batched VAR recursion: 2e-17 relative on the path;
- matmul lag moments: 1.6e-12 on each moment;
- FFT stable CDF: <= 4.2e-7 absolute on the CDF, which moves a KS
  statistic by as much and can flip a bootstrap exceedance (one flip
  moves a 100-repetition p-value by 0.01);

and stay far below what a wrong answer moves (transposed coefficients or
a wrong B shift estimates by 1e-3 or more).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "refs"

# output key prefix -> (rtol, atol); the longest matching prefix wins
TOLERANCES = {
    # Monte Carlo cell means and RMSEs: estimates through a block solve
    "mc.mean": (1e-8, 1e-10),
    "mc.rmse": (1e-8, 1e-10),
    "mc.used": (0.0, 0.0),
    # coefficient estimates and block condition numbers
    "diag.coeffs": (1e-8, 1e-10),
    "diag.condition": (1e-8, 0.0),
    "diag.alpha_estimates": (1e-9, 0.0),
    "diag.b_used": (1e-9, 1e-12),
    "diag.fitted": (1e-8, 1e-10),
    # auto-FLOC values and null-band edges: lag moments
    "diag.auto_floc": (1e-9, 1e-12),
    "diag.band": (1e-9, 1e-12),
    # KS statistic: CDF deviation passes through one-for-one
    "diag.ks_statistic": (0.0, 2e-6),
    # KS p-value: allow two bootstrap exceedance flips out of 100
    "diag.ks_p_value": (0.0, 0.0201),
    # QQ: empirical quantiles are exact; fitted ones invert the CDF, where a
    # 4.2e-7 CDF error moves the 0.5% quantile by about 5e-5 of its size and
    # a grid inversion adds its own interpolation error
    "diag.qq_empirical": (1e-9, 1e-12),
    "diag.qq_fitted": (2e-3, 1e-4),
    # CLI reports, read back from CSV and summary text
    "cli.coeffs": (1e-8, 1e-10),
    "cli.condition": (2e-5, 0.0),  # summary prints 6 significant digits
    "cli.exp_b": (1e-9, 1e-12),
    "cli.column_means": (1e-9, 1e-12),
}


def tolerance(key: str):
    matches = [p for p in TOLERANCES if key == p or key.startswith(p + ".")]
    if not matches:
        raise KeyError(f"no tolerance stated for output {key!r}")
    return TOLERANCES[max(matches, key=len)]


def compare(got: Dict[str, np.ndarray], ref: Dict[str, np.ndarray]) -> List[str]:
    """Every way ``got`` differs from ``ref`` beyond tolerance; empty if none."""
    problems = []
    for key in sorted(set(ref) | set(got)):
        if key not in got:
            problems.append(f"{key}: missing from the outputs")
            continue
        if key not in ref:
            problems.append(f"{key}: not in the reference")
            continue
        a = np.asarray(got[key], dtype=float)
        b = np.asarray(ref[key], dtype=float)
        if a.shape != b.shape:
            problems.append(f"{key}: shape {a.shape}, reference {b.shape}")
            continue
        if not np.all(np.isfinite(a)):
            problems.append(f"{key}: non-finite values")
            continue
        rtol, atol = tolerance(key)
        excess = np.abs(a - b) - (atol + rtol * np.abs(b))
        if np.any(excess > 0.0):
            idx = int(np.argmax(excess))
            problems.append(
                f"{key}[{idx}]: {float(a.flat[idx])!r} vs reference {float(b.flat[idx])!r} "
                f"(rtol {rtol:g}, atol {atol:g})"
            )
    return problems


def ref_path(workload: str) -> Path:
    return REF_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, np.ndarray]]:
    """The stored reference outputs for (workload, seed), or None if absent."""
    path = ref_path(workload)
    if not path.is_file():
        return None
    seeds = json.loads(path.read_text())["seeds"]
    entry = seeds.get(str(seed))
    if entry is None:
        return None
    return {k: np.asarray(v, dtype=float) for k, v in entry.items()}


def store_references(workload: str, by_seed: Dict[int, Dict[str, np.ndarray]]) -> None:
    """Merge ``by_seed`` into the workload's reference file."""
    path = ref_path(workload)
    data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    for seed, outputs in by_seed.items():
        data["seeds"][str(seed)] = {k: np.asarray(v).tolist() for k, v in outputs.items()}
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
