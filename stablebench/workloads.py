"""The three benchmark workloads: inputs from a seed, one operation, its outputs.

Every input that would otherwise come from a program default is pinned
here (burn-in, worker count, KS repetitions, band replicates, QQ grid,
maximum lag), so a change of default inside ``stablevar`` cannot silently
change what is measured.

``stablevar`` is imported from the ``src`` directory of the checkout this
file lives in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "stablevar" / "__init__.py").is_file():
    raise ImportError(f"no stablevar sources under {SRC}")
sys.path.insert(0, str(SRC))
import stablevar as sv  # noqa: E402
from stablevar import cli  # noqa: E402

if Path(sv.__file__).resolve().parent != (SRC / "stablevar").resolve():
    raise ImportError(f"stablevar was imported from {sv.__file__}, not from {SRC}")

BURN_IN = 500

# The 2-dim VAR(2) of the paper's simulation study (A1, A2 of tests/helpers.py).
PAPER_A1 = np.array([[0.1, 0.3], [0.2, 0.1]])
PAPER_A2 = np.array([[0.2, 0.2], [0.05, 0.1]])
PAPER_ALPHA = 1.6

# A causal 3-dim VAR(2), companion spectral radius 0.934, for the long series.
LONG_A1 = np.array([[0.5, 0.2, 0.0], [0.1, 0.4, 0.2], [0.0, 0.1, 0.5]])
LONG_A2 = np.array([[0.2, 0.0, 0.1], [0.0, 0.15, 0.0], [0.1, 0.05, 0.15]])
LONG_ALPHA = 1.5


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload: ``Workload.full`` is measured, ``small`` self-tested."""

    n: int
    replications: int = 0
    ks_repetitions: int = 0
    band_replicates: int = 0
    max_lag: int = 0
    qq_grid: int = 0


def paper_model() -> "sv.VarModel":
    return sv.VarModel(
        coeffs=(PAPER_A1, PAPER_A2),
        noise=sv.SymmetricStableNoiseSpec.iid(2, PAPER_ALPHA),
    )


def long_model() -> "sv.VarModel":
    return sv.VarModel(
        coeffs=(LONG_A1, LONG_A2),
        noise=sv.SymmetricStableNoiseSpec.iid(3, LONG_ALPHA),
    )


def _flat(values) -> np.ndarray:
    return np.asarray(values, dtype=float).ravel()


# ---------------------------------------------------------------------------
# mc_paper: the paper's Monte Carlo table
# ---------------------------------------------------------------------------

MC_B_VALUES = (0.0, 0.25, 0.55)
MC_METHODS = ("floc", "ls", "yw")


def mc_setup(seed: int, sizes: Sizes, workdir: Path):
    return sv.ExperimentConfig(
        model=paper_model(),
        n=sizes.n,
        b_values=MC_B_VALUES,
        replications=sizes.replications,
        seed=seed,
        methods=MC_METHODS,
        burn_in=BURN_IN,
        workers=1,
    )


def mc_op(cfg):
    return sv.run_monte_carlo(cfg)


def _mc_keys():
    return [("floc", b) for b in MC_B_VALUES] + [("ls", None), ("yw", None)]


def _lag_entries(p: int, r: int):
    return [(k, i, j) for k in range(1, p + 1) for i in range(1, r + 1) for j in range(1, r + 1)]


def mc_outputs(report) -> Dict[str, np.ndarray]:
    cells = [
        report.cell(method, b, k, i, j)
        for method, b in _mc_keys()
        for k, i, j in _lag_entries(2, 2)
    ]
    return {
        "mc.mean": _flat([c.mean for c in cells]),
        "mc.rmse": _flat([c.rmse for c in cells]),
        "mc.used": _flat([c.used for c in cells]),
    }


def mc_sanity(out: Dict[str, np.ndarray], sizes: Sizes) -> list:
    """Checks against the true model, independent of any stored reference.

    LS and Yule-Walker cell means must lie within 0.03 of the truth, about
    twice the worst error (0.014) over 32 seeds at full size; transposed
    coefficients move a cell mean by 0.1 or more. FLOC means are only
    checked to be finite: one near-singular replication can move a B = 0
    mean by 0.4 (seed 19).
    """
    truth = np.stack([PAPER_A1, PAPER_A2]).ravel()
    problems = []
    for (method, b), mean in zip(_mc_keys(), out["mc.mean"].reshape(len(_mc_keys()), -1)):
        worst = float(np.max(np.abs(mean - truth)))
        if not np.isfinite(worst) or (method != "floc" and worst > 0.03):
            problems.append(f"{method} B={b}: a cell mean is {worst:.3g} from the truth")
    if np.any(out["mc.used"] > sizes.replications) or not np.all(out["mc.rmse"] > 0.0):
        problems.append("used counts or RMSEs out of range")
    return problems


# ---------------------------------------------------------------------------
# diagnose_n1000: the real-data path with default diagnostics
# ---------------------------------------------------------------------------


# The observed series is one fixed draw, like a real dataset; the workload
# seed drives every simulated draw of the diagnostics (``rng_seed``). The
# cost of an op follows the residuals' fitted alpha: over 20 seeds, a new
# series per seed spread the sin-evaluation count by 14% (quartile range
# over median), the fixed series below by 2.5%.
DIAGNOSE_DATA_SEED = 0


@dataclass(frozen=True)
class DiagnoseInput:
    series: object
    seed: int
    sizes: Sizes


def diagnose_setup(seed: int, sizes: Sizes, workdir: Path):
    series = sv.simulate(paper_model(), sizes.n, BURN_IN, DIAGNOSE_DATA_SEED)
    return DiagnoseInput(series, seed, sizes)


def diagnose_op(inp: DiagnoseInput):
    s = inp.sizes
    with warnings.catch_warnings():
        # the A + B >= alpha-hat warning is expected on some seeds
        warnings.simplefilter("ignore")
        return sv.run_pipeline(
            inp.series,
            p=2,
            b=None,
            rng_seed=inp.seed,
            ks_repetitions=s.ks_repetitions,
            max_lag=s.max_lag,
            band_replicates=s.band_replicates,
            qq_grid=s.qq_grid,
        )


def diagnose_outputs(report) -> Dict[str, np.ndarray]:
    cols = report.columns
    est = report.estimation
    return {
        "diag.coeffs": _flat(np.stack(est.coeffs)),
        "diag.condition": _flat([est.condition]),
        "diag.alpha_estimates": _flat(report.alpha_estimates),
        "diag.b_used": _flat([report.b_used]),
        "diag.fitted": _flat(
            [[c.fitted.alpha, c.fitted.beta, c.fitted.sigma, c.fitted.delta] for c in cols]
        ),
        "diag.auto_floc": _flat([c.auto_floc.values for c in cols]),
        "diag.band": _flat([[c.band_lo, c.band_hi] for c in cols]),
        "diag.ks_statistic": _flat([c.ks.statistic for c in cols]),
        "diag.ks_p_value": _flat([c.ks.p_value for c in cols]),
        "diag.qq_empirical": _flat([c.qq.empirical for c in cols]),
        "diag.qq_fitted": _flat([c.qq.fitted for c in cols]),
    }


def diagnose_sanity(out: Dict[str, np.ndarray], sizes: Sizes) -> list:
    """Invariants that hold on every seed (single-series estimates are too
    heavy-tailed for a bound against the truth)."""
    problems = []
    if not np.all(np.isfinite(out["diag.coeffs"])) or not out["diag.condition"][0] >= 1.0:
        problems.append("coefficients not finite or condition number below 1")
    b_default = max(float(np.max(out["diag.alpha_estimates"])) - 1.05, 0.0)
    if abs(out["diag.b_used"][0] - b_default) > 1e-12:
        problems.append(f"B used {out['diag.b_used'][0]!r} is not max alpha-hat - 1.05")
    p = out["diag.ks_p_value"]
    d = out["diag.ks_statistic"]
    if np.any((p < 0.0) | (p > 1.0)) or np.any((d <= 0.0) | (d >= 1.0)):
        problems.append("KS statistic or p-value out of range")
    lo, hi = out["diag.band"].reshape(-1, 2, sizes.max_lag + 1).transpose(1, 0, 2)
    if np.any(lo > hi):
        problems.append("null band lower edge above upper edge")
    for name in ("diag.qq_empirical", "diag.qq_fitted"):
        if np.any(np.diff(out[name].reshape(-1, sizes.qq_grid), axis=1) < 0.0):
            problems.append(f"{name} is not nondecreasing")
    return problems


# ---------------------------------------------------------------------------
# cli_long: one long series through the CLI and CSV files
# ---------------------------------------------------------------------------

CLI_METHODS = ("floc", "ls", "yw")


@dataclass(frozen=True)
class CliInput:
    workdir: Path
    config: Path
    seed: int
    sizes: Sizes


def _matrix_text(mat: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in mat.ravel())


def cli_setup(seed: int, sizes: Sizes, workdir: Path):
    config = workdir / "model.cfg"
    config.write_text(
        "dim = 3\norder = 2\n"
        f"a1 = {_matrix_text(LONG_A1)}\n"
        f"a2 = {_matrix_text(LONG_A2)}\n"
        f"alpha = {LONG_ALPHA!r}\n"
    )
    return CliInput(workdir, config, seed, sizes)


def _cli(argv) -> None:
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"stablevar {argv[0]} exited with {rc}")


def cli_op(inp: CliInput) -> Path:
    d = inp.workdir
    series = d / "series.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        _cli(["simulate", "--config", inp.config, "--out", series, "--n", inp.sizes.n,
              "--seed", inp.seed, "--burn-in", BURN_IN])
        for method in CLI_METHODS:
            _cli(["estimate", "--data", series, "--order", 2, "--method", method,
                  "--out", d / f"{method}.csv", "--summary", d / f"{method}.txt"])
    return d


def _summary_fields(path: Path) -> Dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def cli_outputs(d: Path) -> Dict[str, np.ndarray]:
    out = {}
    for method in CLI_METHODS:
        _, coeffs = sv.EstimationReport.read_coeffs_csv(d / f"{method}.csv")
        out[f"cli.coeffs.{method}"] = _flat(np.stack(coeffs))
        condition = _summary_fields(d / f"{method}.txt")["condition"]
        out[f"cli.condition.{method}"] = _flat([float(condition)])
    fields = _summary_fields(d / "floc.txt")
    out["cli.exp_b"] = _flat([float(fields["exp_b"])])
    out["cli.column_means"] = _flat([float(v) for v in fields["column_means"].split(",")])
    # the next op must write its own files, not pass on these
    for method in CLI_METHODS:
        (d / f"{method}.csv").unlink()
        (d / f"{method}.txt").unlink()
    return out


def cli_sanity(out: Dict[str, np.ndarray], sizes: Sizes) -> list:
    """Least squares within 0.15 of the truth (worst over 40 seeds: 0.06);
    FLOC and Yule-Walker only finite, their tails are heavier."""
    truth = np.stack([LONG_A1, LONG_A2]).ravel()
    problems = []
    worst = float(np.max(np.abs(out["cli.coeffs.ls"] - truth)))
    if not worst <= 0.15:
        problems.append(f"ls: a coefficient is {worst:.3g} from the truth (> 0.15)")
    if not all(np.all(np.isfinite(v)) for v in out.values()):
        problems.append("non-finite output")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    op: Callable
    outputs: Callable
    sanity: Callable
    work_unit: str  # what one op completes, per ``work_count`` of them
    work_count: Callable[[Sizes], int]
    full: Sizes
    small: Sizes  # for the self-tests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_paper", mc_setup, mc_op, mc_outputs, mc_sanity, "replications",
            lambda s: s.replications,
            full=Sizes(n=1000, replications=200),
            small=Sizes(n=300, replications=6),
        ),
        Workload(
            "diagnose_n1000", diagnose_setup, diagnose_op, diagnose_outputs, diagnose_sanity,
            "series diagnosed", lambda s: 1,
            full=Sizes(n=1000, ks_repetitions=100, band_replicates=200, max_lag=20, qq_grid=99),
            small=Sizes(n=300, ks_repetitions=100, band_replicates=10, max_lag=4, qq_grid=5),
        ),
        Workload(
            "cli_long", cli_setup, cli_op, cli_outputs, cli_sanity,
            "series rows through simulate+estimate", lambda s: s.n,
            full=Sizes(n=100_000),
            small=Sizes(n=2_000),
        ),
    )
}
