"""Monte Carlo harness and end-to-end pipeline.

``run_monte_carlo`` simulates many realisations of a known model, estimates
the coefficients with each requested method, and reports per-coefficient
means and RMSEs. It simulates a chunk of replications as arrays at a time
and fits every method on the chunk through the estimators' stacked core.
Replication i always draws from substream (seed, i), so adding methods or
changing the chunk size never perturbs the simulated paths, and reports
are reproducible byte for byte.

``run_pipeline`` is the real-data path: mean-correct, pick the FLOC
exponents from per-column stability estimates (``floc_config``), estimate
the coefficients, and diagnose each residual column (``diagnose_residuals``).
``stablevar estimate`` and ``stablevar diagnose`` call the same functions,
so either entry point picks the same B, and a fixed seed gives the same
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import (
    AutoFlocSeries,
    KsTestResult,
    QqData,
    auto_floc,
    auto_floc_null_band,
    ks_test_stable,
    qq_data,
)
from .errors import NumericalError, ValidationError, _check_int
from .estimators import EstimationReport, _estimate_stack, estimate_floc
from .floc import FlocConfig
from .seeding import _check_seed, _child_seed, substream
from .series import SeriesMatrix, _write_csv
from .stable_noise import StableParams, SymmetricStableNoiseSpec, fit_stable_params
from .var_core import VarModel, _resolve_burn_in, _simulate_paths, mean_correct

__all__ = [
    "ExperimentConfig",
    "CellStats",
    "FailureRecord",
    "MonteCarloReport",
    "run_monte_carlo",
    "ColumnDiagnostics",
    "PipelineReport",
    "run_pipeline",
    "default_b",
    "floc_config",
    "diagnose_residuals",
    "load_experiment_config",
    "load_model_config",
    "coefficient_label",
]

_METHODS = ("floc", "ls", "yw")
DEFAULT_B_OFFSET = 1.05  # working default B = alpha_hat - 1.05, clamped at 0
# Path values (1 MiB of floats) per chunk of Monte Carlo replications. On
# the paper grid (1,500 rows of 2 columns) that is 43 replications. 200 of
# them took 0.24 s in such chunks and also all at once, and 0.70 s one at a
# time (2 cores); the chunk bounds the memory that the arrays take.
_BATCH_VALUES = 2**17


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte Carlo study description: truth, sample size, estimator grid.

    ``burn_in`` None is replaced by the default of ``simulate`` for the
    model, so the config (and ``summary_text``) holds the value used.

    ``workers`` is checked but selects nothing: replications run in chunks
    of arrays in one thread. The field stays only because the benchmark's
    Monte Carlo set-up (``stablebench/workloads.py::mc_setup``) passes
    ``workers=1``; config files no longer take the key.
    """

    model: VarModel
    n: int
    b_values: tuple
    replications: int
    seed: int
    methods: tuple = _METHODS
    burn_in: Optional[int] = None
    workers: int = 1

    def __post_init__(self) -> None:
        for name, minimum in (("n", 1), ("replications", 1), ("workers", 1)):
            _check_int(getattr(self, name), name, minimum)
        object.__setattr__(self, "burn_in", _resolve_burn_in(self.model, self.burn_in))
        _check_seed(self.seed)
        if isinstance(self.methods, str):
            raise ValidationError(f"methods must be a sequence of method names, got {self.methods!r}")
        methods = tuple(m.lower() for m in self.methods)
        if not methods:
            raise ValidationError("at least one method is required")
        for m in methods:
            if m not in _METHODS:
                raise ValidationError(f"unknown method {m!r}; choose from {_METHODS}")
        if len(set(methods)) != len(methods):
            raise ValidationError(f"methods must not repeat, got {methods}")
        b_values = tuple(float(b) for b in self.b_values)
        for b in b_values:
            if not 0.0 <= b < math.inf:
                raise ValidationError(f"B values must be finite and >= 0, got {b}")
        if len(set(b_values)) != len(b_values):
            raise ValidationError(f"B values must not repeat, got {b_values}")
        if "floc" in methods and not b_values:
            raise ValidationError("b_values must be nonempty for FLOC runs")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "b_values", b_values)


def coefficient_label(k: int, i: int, j: int, r: int) -> str:
    """Column-major label within each lag block: A_1 = [[a1, a3], [a2, a4]]."""
    return f"a{(k - 1) * r * r + (j - 1) * r + i}"


@dataclass(frozen=True)
class CellStats:
    method: str
    b: Optional[float]
    k: int
    i: int
    j: int
    label: str
    true_value: float
    mean: float
    rmse: float
    used: int


@dataclass(frozen=True)
class FailureRecord:
    """Why one estimator failed on one replication.

    ``error`` is the exception class name; ``condition`` is the condition
    number of the block matrix (FLOC, Yule-Walker) or of the regressor
    matrix (least squares), NaN when the estimate failed before any solve.
    """

    replication: int
    method: str
    b: Optional[float]
    error: str
    message: str
    condition: float


@dataclass(frozen=True)
class MonteCarloReport:
    config: ExperimentConfig
    cells: tuple
    failure_records: Tuple[FailureRecord, ...] = ()

    @property
    def failures(self) -> Dict[Tuple[str, Optional[float]], int]:
        """Failed replications of each estimator, in ``_estimate_keys`` order, zeros included."""
        counts = dict.fromkeys(_estimate_keys(self.config), 0)
        for rec in self.failure_records:
            counts[(rec.method, rec.b)] += 1
        return counts

    @property
    def failed_replications(self) -> int:
        """Replications in which at least one estimator failed."""
        return len({rec.replication for rec in self.failure_records})

    def cell(self, method: str, b: Optional[float], k: int, i: int, j: int) -> CellStats:
        for c in self.cells:
            if (c.method, c.b, c.k, c.i, c.j) == (method, b, k, i, j):
                return c
        raise KeyError((method, b, k, i, j))

    def to_long_csv(self, path) -> None:
        """`method,b,coefficient,k,i,j,true,mean,rmse,used` rows."""
        rows = (
            (c.method, "" if c.b is None else c.b, c.label, c.k, c.i, c.j,
             c.true_value, c.mean, c.rmse, c.used)
            for c in self.cells
        )
        _write_csv(path, "method,b,coefficient,k,i,j,true,mean,rmse,used", rows)

    def to_wide_csv(self, path, method: str) -> None:
        """Table-style layout: one row per coefficient, mean/RMSE per B column."""
        if method not in self.config.methods:
            raise KeyError(method)
        bs = [b for m, b in _estimate_keys(self.config) if m == method]
        cols = ["mean,rmse" if b is None else f"B={b:g} mean,B={b:g} rmse" for b in bs]
        # the cells of each (method, B) run k, j, i: the table's row order
        per_b = [[c for c in self.cells if (c.method, c.b) == (method, b)] for b in bs]
        rows = (
            (row[0].label, row[0].true_value, *(f"{x:.6g}" for c in row for x in (c.mean, c.rmse)))
            for row in zip(*per_b)
        )
        _write_csv(path, "coefficient,true," + ",".join(cols), rows)

    def summary_text(self) -> str:
        """Run settings and failure counts, then one line per failure record."""
        cfg = self.config
        lines = [
            f"replications: {cfg.replications}",
            f"n: {cfg.n}",
            f"burn_in: {cfg.burn_in}",
            f"seed: {cfg.seed}",
            f"methods: {','.join(cfg.methods)}",
            "b_values: " + ",".join(f"{b:g}" for b in cfg.b_values),
            f"failed_replications: {self.failed_replications}",
        ]
        lines += [f"failures[{_key_name(*key)}]: {n}" for key, n in self.failures.items()]
        for rec in self.failure_records:
            lines.append(
                f"failure[{_key_name(rec.method, rec.b)}]: replication {rec.replication}, "
                f"{rec.error}, condition {rec.condition:.6g}: {rec.message}"
            )
        return "\n".join(lines) + "\n"


def _estimate_keys(cfg: ExperimentConfig):
    """(method, B) of each estimator of a run: FLOC at every B, LS and YW at None."""
    return [(m, b) for m in cfg.methods for b in (cfg.b_values if m == "floc" else (None,))]


def _key_name(method: str, b: Optional[float]) -> str:
    return method if b is None else f"{method} B={b:g}"


def run_monte_carlo(cfg: ExperimentConfig) -> MonteCarloReport:
    """Mean and RMSE of every coefficient estimate over seeded replications.

    Replications are simulated and estimated (``estimators._estimate_stack``)
    a chunk at a time, as arrays of about ``_BATCH_VALUES`` path values.
    Failed estimates (non-finite paths, constant columns, too few rows,
    singular systems) are recorded per replication and estimator and
    excluded from the statistics; the run aborts if any estimator fails in
    more than 1% of replications.
    """
    keys = _estimate_keys(cfg)
    r, p = cfg.model.dim, cfg.model.order
    estimates = {key: np.empty((cfg.replications, p, r, r)) for key in keys}
    failed = {key: np.zeros(cfg.replications, dtype=bool) for key in keys}
    records = []
    chunk = max(1, _BATCH_VALUES // ((cfg.n + cfg.burn_in) * r))
    for start in range(0, cfg.replications, chunk):
        reps = range(start, min(start + chunk, cfg.replications))
        paths = _simulate_paths(
            cfg.model, cfg.n, cfg.burn_in, [substream(cfg.seed, rep) for rep in reps]
        )
        for key, (coeffs, condition, errors) in _estimate_stack(paths, p, keys).items():
            estimates[key][reps.start : reps.stop] = coeffs
            failed[key][[start + i for i in errors]] = True
            records += [
                FailureRecord(start + i, *key, type(exc).__name__, str(exc), float(condition[i]))
                for i, exc in errors.items()
            ]

    for key in keys:
        count = int(failed[key].sum())
        if count > 0.01 * cfg.replications:
            raise NumericalError(
                f"{_key_name(*key)} failed in {count} of {cfg.replications} replications (> 1%)"
            )

    truth = cfg.model.coeff_array()
    cells = []
    for method, b in keys:
        stack = estimates[(method, b)][~failed[(method, b)]]
        mean = stack.mean(axis=0)
        rmse = np.sqrt(((stack - truth) ** 2).mean(axis=0))
        for k, j, i in np.ndindex(p, r, r):  # lag, column, row: the table's row order
            cells.append(CellStats(
                method=method, b=b, k=k + 1, i=i + 1, j=j + 1,
                label=coefficient_label(k + 1, i + 1, j + 1, r),
                true_value=float(truth[k, i, j]), mean=float(mean[k, i, j]),
                rmse=float(rmse[k, i, j]), used=stack.shape[0],
            ))
    return MonteCarloReport(
        config=cfg,
        cells=tuple(cells),
        failure_records=tuple(
            sorted(records, key=lambda rec: (rec.replication, keys.index((rec.method, rec.b))))
        ),
    )


# ---------------------------------------------------------------------------
# full pipeline on observed data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDiagnostics:
    fitted: StableParams
    auto_floc: AutoFlocSeries
    band_lo: np.ndarray
    band_hi: np.ndarray
    ks: KsTestResult
    qq: Optional[QqData]


@dataclass(frozen=True)
class PipelineReport:
    estimation: EstimationReport
    alpha_estimates: np.ndarray
    b_used: float
    columns: tuple


def default_b(alphas) -> float:
    """Working FLOC exponent B: max alpha estimate - 1.05, clamped at 0."""
    return max(float(np.max(alphas)) - DEFAULT_B_OFFSET, 0.0)


def floc_config(series: SeriesMatrix, b: Optional[float] = None):
    """FLOC exponents (1, B) and the stability index estimate of each mean-corrected column.

    B defaults to ``default_b`` of the estimates; warns when A + B reaches the smallest.
    """
    corrected = mean_correct(series).values
    alphas = np.array([fit_stable_params(corrected[:, j]).alpha for j in range(series.dim)])
    cfg = FlocConfig(1.0, default_b(alphas) if b is None else float(b))
    cfg.warn_if_invalid_for(float(np.min(alphas)))
    return cfg, alphas


def diagnose_residuals(
    res: SeriesMatrix,
    rng_seed: int = 0,
    ks_repetitions: int = 100,
    max_lag: int = 20,
    band_replicates: int = 200,
    qq_grid: int = 99,
) -> Tuple[ColumnDiagnostics, ...]:
    """Diagnostics of each residual column, one ``ColumnDiagnostics`` each.

    Per column: bootstrap KS test, whose stable fit is the ``fitted`` law
    of the rest; auto-FLOC at B = default_b(alpha fit) with a simulated
    null band; QQ data (``qq_grid = 0`` skips it). Column j's band and KS
    draws come from ``rng_seed`` through seed paths (2, j) and (1, j).
    """
    columns = []
    for j in range(res.dim):
        col = res.values[:, j]
        ks = ks_test_stable(col, ks_repetitions, rng_seed=_child_seed(rng_seed, 1, j))
        fitted = ks.fitted
        cfg_col = FlocConfig(1.0, default_b(fitted.alpha))
        af = auto_floc(col, max_lag, cfg_col)
        lo, hi = auto_floc_null_band(
            fitted,
            col.shape[0],
            max_lag,
            cfg_col,
            replicates=band_replicates,
            rng_seed=_child_seed(rng_seed, 2, j),
        )
        qq = qq_data(col, fitted, qq_grid) if qq_grid else None
        columns.append(
            ColumnDiagnostics(
                fitted=fitted, auto_floc=af, band_lo=lo, band_hi=hi, ks=ks, qq=qq
            )
        )
    return tuple(columns)


def run_pipeline(
    series: SeriesMatrix,
    p: int,
    b: Optional[float] = None,
    rng_seed: int = 0,
    ks_repetitions: int = 100,
    max_lag: int = 20,
    band_replicates: int = 200,
    qq_grid: int = 99,
) -> PipelineReport:
    """Estimate a FLOC VAR(p) on observed data and diagnose the residuals.

    The exponents come from ``floc_config``, so B defaults to ``default_b``
    of the per-column stability estimates. The residuals are diagnosed by
    ``diagnose_residuals``.
    """
    cfg, alphas = floc_config(series, b)
    estimation = estimate_floc(series, p, cfg)
    columns = diagnose_residuals(
        estimation.residuals, rng_seed, ks_repetitions, max_lag, band_replicates, qq_grid
    )
    return PipelineReport(
        estimation=estimation,
        alpha_estimates=alphas,
        b_used=float(cfg.exp_b),
        columns=columns,
    )


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------


def _parse_kv(path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip().lower()
            if key in out:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    if not out:
        raise ValidationError(f"{path}: empty config")
    return out


def _fields(text: str, key: str) -> list:
    """The stripped comma-separated fields of a value; an empty field is refused."""
    fields = [v.strip() for v in text.split(",")]
    if "" in fields:
        raise ValidationError(f"empty field in {key} = {text!r}")
    return fields


def _parse_floats(text: str, key: str) -> list:
    try:
        return [float(v) for v in _fields(text, key)]
    except ValueError as exc:
        raise ValidationError(f"bad {key}: {exc}") from exc


def _parse_int(kv: Dict[str, str], key: str) -> int:
    if key not in kv:
        raise ValidationError(f"missing required key {key!r}")
    try:
        return int(kv[key])
    except ValueError as exc:
        raise ValidationError(f"bad {key}: {exc}") from exc


def _per_component(text: str, key: str, dim: int) -> list:
    """The values of a per-component key: one shared by all ``dim`` components, or ``dim``."""
    vals = _parse_floats(text, key)
    if len(vals) not in (1, dim):
        raise ValidationError(f"{key} needs 1 or {dim} values, got {len(vals)}")
    return vals * (dim // len(vals))


def _build_model(kv: Dict[str, str]) -> VarModel:
    dim = _parse_int(kv, "dim")
    order = _parse_int(kv, "order")
    if dim < 1 or order < 1:
        raise ValidationError("dim and order must be >= 1")
    coeffs = []
    for k in range(1, order + 1):
        key = f"a{k}"
        if key not in kv:
            raise ValidationError(f"missing coefficient matrix {key!r}")
        vals = _parse_floats(kv[key], key)
        if len(vals) != dim * dim:
            raise ValidationError(
                f"{key} needs {dim * dim} row-major entries, got {len(vals)}"
            )
        coeffs.append(np.array(vals).reshape(dim, dim))
    if "alpha" not in kv:
        raise ValidationError("missing required key 'alpha'")
    alphas = _per_component(kv["alpha"], "alpha", dim)
    sigmas = _per_component(kv.get("sigma", "1.0"), "sigma", dim)
    noise = SymmetricStableNoiseSpec(
        tuple(StableParams.symmetric(a, s) for a, s in zip(alphas, sigmas))
    )
    return VarModel(coeffs=tuple(coeffs), noise=noise)


_MODEL_KEYS = {"dim", "order", "alpha", "sigma", "n", "burn_in", "seed"}
_EXPERIMENT_KEYS = _MODEL_KEYS | {"b_values", "replications", "methods"}


def _read_config(path, allowed: set):
    """The keys of a config file, its model and its integers n, seed and burn_in (None if
    absent); a key outside ``allowed`` and the model's a1..a<p> is refused."""
    kv = _parse_kv(path)
    model = _build_model(kv)
    unknown = set(kv) - allowed - {f"a{k}" for k in range(1, model.order + 1)}
    if unknown:
        raise ValidationError(f"{path}: unknown key(s) {sorted(unknown)}")
    ints = {key: _parse_int(kv, key) if key in kv else None for key in ("n", "seed", "burn_in")}
    return kv, model, ints


def load_model_config(path) -> Tuple[VarModel, Dict[str, Optional[int]]]:
    """Read a model description; returns the model and its integers n, seed and
    burn_in, each None when the file leaves it out."""
    _, model, ints = _read_config(path, _MODEL_KEYS)
    return model, ints


def load_experiment_config(path) -> ExperimentConfig:
    kv, model, ints = _read_config(path, _EXPERIMENT_KEYS)
    for key in ("n", "seed"):
        if ints[key] is None:
            raise ValidationError(f"missing required key {key!r}")
    return ExperimentConfig(
        model=model,
        n=ints["n"],
        b_values=tuple(_parse_floats(kv["b_values"], "b_values")) if "b_values" in kv else (),
        replications=_parse_int(kv, "replications"),
        seed=ints["seed"],
        methods=tuple(_fields(kv["methods"], "methods")) if "methods" in kv else _METHODS,
        burn_in=ints["burn_in"],
    )
