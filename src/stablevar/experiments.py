"""Monte Carlo harness and end-to-end pipeline.

``run_monte_carlo`` simulates many realisations of a known model, estimates
the coefficients with each requested method, and reports per-coefficient
means and RMSEs. It simulates a block of replications as arrays at a time
and fits every method on the block through the estimators' stacked core.
Replication i always draws from substream (seed, i), so adding methods or
changing the block size never perturbs the simulated paths, and reports
are reproducible byte for byte.

``run_pipeline`` is the real-data path: mean-correct, pick the FLOC
exponent B from per-column stability estimates (``floc_config``), estimate
the coefficients, and diagnose each residual column (``diagnose_residuals``).
``stablevar estimate`` and ``stablevar diagnose`` call the same functions,
so either entry point picks the same B, and a fixed seed gives the same
diagnostics.

``load_model_config`` and ``load_experiment_config`` read ``key = value`` files through
one reader and one table of the keys and the kind of each value, ``_KEYS``.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from contextlib import contextmanager
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
from .estimators import EstimationReport, _estimate_stack, estimate_floc, residuals
from .floc import _check_b
from .seeding import _check_seed, _child_seed, substream_blocks
from .series import SeriesMatrix, _open_text, _write_csv
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte Carlo study description: truth, sample size, estimator grid.

    ``burn_in`` None is replaced by the default of ``simulate`` for the
    model, so the config (and ``summary_text``) holds the value used.

    ``workers`` is checked but selects nothing: replications run in blocks
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
        for name, what in (("methods", "method names"), ("b_values", "B values")):
            value = getattr(self, name)
            if (isinstance(value, str) or not isinstance(value, Iterable)
                    or getattr(value, "ndim", 1) == 0):  # a 0-d array has __iter__ but no items
                raise ValidationError(f"{name} must be a sequence of {what}, got {value!r}")
        methods = tuple(m.lower() if isinstance(m, str) else m for m in self.methods)
        if not methods:
            raise ValidationError("at least one method is required")
        for m in methods:
            if m not in _METHODS:
                raise ValidationError(f"unknown method {m!r}; choose from {_METHODS}")
        if len(set(methods)) != len(methods):
            raise ValidationError(f"methods must not repeat, got {methods}")
        b_values = tuple(map(_check_b, self.b_values))
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
    number of the block matrix (FLOC, Yule-Walker) or of the lagged design X,
    sqrt(cond(X^T X)) (least squares), NaN when the estimate failed before any solve.
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
        cols = ["mean,rmse" if b is None else "B={0} mean,B={0} rmse".format(_b_text(b))
                for b in bs]
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
            "b_values: " + ",".join(map(_b_text, cfg.b_values)),
            f"failed_replications: {self.failed_replications}",
        ]
        lines += [f"failures[{_key_name(*key)}]: {n}" for key, n in self.failures.items()]
        lines += [f"failure[{_key_name(rec.method, rec.b)}]: {_record_text(rec)}"
                  for rec in self.failure_records]
        return "\n".join(lines) + "\n"


def _estimate_keys(cfg: ExperimentConfig):
    """(method, B) of each estimator of a run: FLOC at every B, LS and YW at None."""
    return [(m, b) for m in cfg.methods for b in (cfg.b_values if m == "floc" else (None,))]


def _b_text(b: float) -> str:  # the one label of a B value: the shortest text read back as b
    return np.format_float_positional(b, trim="-")


def _key_name(method: str, b: Optional[float]) -> str:
    return method if b is None else f"{method} B={_b_text(b)}"


def _record_text(rec: FailureRecord) -> str:
    return (f"replication {rec.replication}, {rec.error}, condition {rec.condition:.6g}: "
            f"{rec.message}")


def run_monte_carlo(cfg: ExperimentConfig) -> MonteCarloReport:
    """Mean and RMSE of every coefficient estimate over seeded replications.

    Replications are simulated and estimated (``estimators._estimate_stack``)
    a block of ``seeding.substream_blocks`` at a time, as arrays of path values.
    Failed estimates (non-finite paths, constant columns, too few rows,
    singular systems) are recorded per replication and estimator and
    excluded from the statistics; the run aborts if any estimator fails in
    more than 1% of replications, naming that estimator's first failure.
    """
    keys = _estimate_keys(cfg)
    r, p = cfg.model.dim, cfg.model.order
    estimates = {key: np.empty((cfg.replications, p, r, r)) for key in keys}
    records = []
    path_values = (cfg.n + cfg.burn_in) * r
    for start, generators in substream_blocks(cfg.seed, cfg.replications, path_values):
        paths = _simulate_paths(cfg.model, cfg.n, cfg.burn_in, generators)
        for key, (coeffs, condition, errors) in _estimate_stack(paths, p, keys).items():
            estimates[key][start : start + len(paths)] = coeffs
            records += [
                FailureRecord(start + i, *key, type(exc).__name__, str(exc), float(condition[i]))
                for i, exc in errors.items()
            ]

    records.sort(key=lambda rec: (rec.replication, keys.index((rec.method, rec.b))))
    truth = cfg.model.coeff_array()
    cells = []
    for method, b in keys:
        failing = [rec for rec in records if (rec.method, rec.b) == (method, b)]
        if len(failing) > 0.01 * cfg.replications:
            raise NumericalError(f"{_key_name(method, b)} failed in {len(failing)} of "
                                 f"{cfg.replications} replications (> 1%); first: "
                                 f"{_record_text(failing[0])}")
        stack = np.delete(estimates[(method, b)], [rec.replication for rec in failing], axis=0)
        mean = stack.mean(axis=0)
        rmse = np.sqrt(((stack - truth) ** 2).mean(axis=0))
        for k, j, i in np.ndindex(p, r, r):  # lag, column, row: the table's row order
            cells.append(CellStats(
                method=method, b=b, k=k + 1, i=i + 1, j=j + 1,
                label=coefficient_label(k + 1, i + 1, j + 1, r),
                true_value=float(truth[k, i, j]), mean=float(mean[k, i, j]),
                rmse=float(rmse[k, i, j]), used=stack.shape[0],
            ))
    return MonteCarloReport(cfg, tuple(cells), tuple(records))


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
    residuals: SeriesMatrix
    columns: tuple

    @property
    def b_used(self) -> float:
        """The FLOC exponent B of the estimation."""
        return self.estimation.b


def default_b(alphas) -> float:
    """Working FLOC exponent B: max alpha estimate - 1.05, clamped at 0."""
    return max(float(np.max(alphas)) - DEFAULT_B_OFFSET, 0.0)


def floc_config(series: SeriesMatrix, b: Optional[float] = None) -> Tuple[float, np.ndarray]:
    """FLOC exponent B and the stability index estimate of each mean-corrected column.

    B defaults to ``default_b`` of the estimates. Warns (not fails) when
    A + B = 1 + B reaches the smallest estimate: the fractional moment may not exist.
    """
    b = None if b is None else _check_b(b)
    corrected = mean_correct(series).values
    alphas = np.array([fit_stable_params(corrected[:, j]).alpha for j in range(series.dim)])
    b = default_b(alphas) if b is None else b
    alpha = float(np.min(alphas))
    if 1.0 + b >= alpha:
        warnings.warn(f"A + B = {1.0 + b:.3f} >= estimated alpha {alpha:.3f}; "
                      "the fractional moment may not exist", stacklevel=2)
    return b, alphas


def diagnose_residuals(
    series: SeriesMatrix,
    coeffs: Sequence[np.ndarray],
    rng_seed: int = 0,
    ks_repetitions: int = 100,
    max_lag: int = 20,
    band_replicates: int = 200,
    qq_grid: int = 99,
) -> Tuple[SeriesMatrix, Tuple[ColumnDiagnostics, ...]]:
    """Residuals ``residuals(mean_correct(series), coeffs)`` and a ``ColumnDiagnostics`` each.

    Per column: bootstrap KS test, whose stable fit is the ``fitted`` law
    of the rest; auto-FLOC at B = default_b(alpha fit) with a simulated
    null band; QQ data (``qq_grid = 0`` skips it). Column j's band and KS
    draws come from ``rng_seed`` through seed paths (2, j) and (1, j).
    """
    res = residuals(mean_correct(series), coeffs)
    columns = []
    for j, col in enumerate(res.values.T):
        ks = ks_test_stable(col, ks_repetitions, rng_seed=_child_seed(rng_seed, 1, j))
        fitted, b = ks.fitted, default_b(ks.fitted.alpha)
        af = auto_floc(col, max_lag, b)
        lo, hi = auto_floc_null_band(fitted, res.n, max_lag, b, replicates=band_replicates,
                                     rng_seed=_child_seed(rng_seed, 2, j))
        qq = qq_data(col, fitted, qq_grid) if qq_grid else None
        columns.append(ColumnDiagnostics(fitted, af, lo, hi, ks, qq))
    return res, tuple(columns)


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

    The exponent B comes from ``floc_config``, so it defaults to ``default_b``
    of the per-column stability estimates. The residuals and their diagnostics
    come from one ``diagnose_residuals`` call, the one ``stablevar diagnose`` makes.
    """
    b, alphas = floc_config(series, b)
    estimation = estimate_floc(series, p, b)
    return PipelineReport(estimation, alphas, *diagnose_residuals(
        series, estimation.coeffs, rng_seed, ks_repetitions, max_lag, band_replicates, qq_grid
    ))


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------


def _parse_kv(path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with _open_text(path) as fh:
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


# Each config key but a1..a<order> (lists of floats) and the kind of its value: (int, least
# value), or float or str for a comma-separated list. A model file takes the keys through
# burn_in. Past the model's faults and the unknown keys, faults are reported in this order.
_MODEL_FILE_KEYS = dict(dim=(int, 1), order=(int, 1), alpha=float, sigma=float,
                        n=(int, 1), seed=(int, 0), burn_in=(int, 0))
_KEYS = dict(_MODEL_FILE_KEYS, b_values=float, replications=(int, 1), methods=str)


def _parse(kv: Dict[str, str], key: str):
    """Take ``key`` out of ``kv`` and parse its value as ``_KEYS`` gives its kind and range."""
    if key not in kv:
        raise ValidationError(f"missing required key {key!r}")
    kind, text = _KEYS.get(key, float), kv.pop(key)
    try:
        if kind in (float, str):
            return [kind(v) for v in _fields(text, key)]
        return _check_int(int(text), key, kind[1])
    except ValueError as exc:
        raise ValidationError(f"bad {key}: {exc}") from exc


def _build_model(kv: Dict[str, str]) -> VarModel:
    dim = _parse(kv, "dim")
    order = _parse(kv, "order")
    coeffs = []
    for k in range(1, order + 1):
        key = f"a{k}"
        if key not in kv:
            raise ValidationError(f"missing coefficient matrix {key!r}")
        vals = _parse(kv, key)
        if len(vals) != dim * dim:
            raise ValidationError(
                f"{key} needs {dim * dim} row-major entries, got {len(vals)}"
            )
        coeffs.append(np.array(vals).reshape(dim, dim))
    alphas_sigmas = []
    for key in ("alpha", "sigma"):  # one value shared by all dim components, or dim
        vals = [1.0] if key == "sigma" and key not in kv else _parse(kv, key)
        if len(vals) not in (1, dim):
            raise ValidationError(f"{key} needs 1 or {dim} values, got {len(vals)}")
        alphas_sigmas.append(vals * (dim // len(vals)))
    noise = SymmetricStableNoiseSpec(tuple(map(StableParams.symmetric, *alphas_sigmas)))
    return VarModel(coeffs=tuple(coeffs), noise=noise)


@contextmanager
def _naming(path):
    """Put ``path`` in front of a ValidationError raised within."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _read_config(path, allowed: dict, required: tuple = ()):
    """The model of a config file and its other keys, each parsed when present or
    ``required``; a key outside ``allowed`` and the model's a1..a<p> is refused. Every
    ValidationError names ``path``."""
    kv = _parse_kv(path)
    with _naming(path):
        model = _build_model(kv)  # takes the model's keys out of kv
        unknown = set(kv) - set(allowed)
        if unknown:
            raise ValidationError(f"unknown key(s) {sorted(unknown)}")
        return model, {key: _parse(kv, key) for key in allowed if key in kv or key in required}


def load_model_config(path) -> Tuple[VarModel, Dict[str, Optional[int]]]:
    """Read a model description; returns the model and its integers n (>= 1), seed
    and burn_in (>= 0), each None when the file leaves it out."""
    model, values = _read_config(path, _MODEL_FILE_KEYS)
    return model, {key: values.get(key) for key in ("n", "seed", "burn_in")}


def load_experiment_config(path) -> ExperimentConfig:
    """Read a Monte Carlo study: the model keys, with n and seed required, and
    replications (required), b_values (default none) and methods (default all)."""
    model, values = _read_config(path, _KEYS, required=("n", "seed", "replications"))
    with _naming(path):
        return ExperimentConfig(model, b_values=values.pop("b_values", ()), **values)
