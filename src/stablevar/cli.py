"""Command-line interface.

Subcommands: simulate (model config -> series CSV), estimate (series CSV ->
coefficient report), montecarlo (experiment config -> table CSVs), diagnose
(series + report -> residual diagnostics CSVs). The report that estimate
writes is self-describing: it declares its order and dimension on its first
line, and diagnose refuses a report without that declaration or whose rows
do not match it. Floats are written as shortest round-trip text, so files
read back to the same numbers.

The subcommands only read inputs and write outputs; the numbers come from
the library. estimate picks FLOC's exponent B with ``experiments.floc_config``,
as ``run_pipeline`` does: the same default B and the same warning when
A + B = 1 + B reaches a column alpha estimate;
diagnose makes ``run_pipeline``'s one call, ``experiments.diagnose_residuals``, which
refuses a report of another dimension; a settings flag left out takes its default, so
``diagnose --seed s`` writes what ``run_pipeline(..., rng_seed=s)`` gives on the same data.
``--qq-grid 0`` skips the QQ files; a grid of 1 is rejected, as in the library. estimate
rejects ``--b-exp`` for LS and YW instead of ignoring it; FLOC divides lag k by n - |k|
and YW by n, as the library does. A seed must be a non-negative integer. Exit codes:
0 success, 1 validation error, 2 numerical failure. Outputs carry no timestamps, so a
fixed seed reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .diagnostics import ks_summary_line, write_auto_floc_csv, write_qq_csv
from .errors import NumericalError, ValidationError
from .estimators import EstimationReport, estimate_floc, estimate_ls, estimate_yw
from .experiments import (
    diagnose_residuals,
    floc_config,
    load_experiment_config,
    load_model_config,
    run_monte_carlo,
)
from .series import SeriesMatrix
from .var_core import simulate

_DIAGNOSE_SETTINGS = ("rng_seed", "ks_repetitions", "max_lag", "band_replicates", "qq_grid")


class _Parser(argparse.ArgumentParser):
    # full flag names only; bad usage is a validation error (exit 1), not argparse's exit 2
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stablevar",
        description="VAR(p) with symmetric alpha-stable noise: simulation, "
        "FLOC/LS/Yule-Walker estimation, Monte Carlo tables, residual diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a model config to a series CSV")
    sim.add_argument("--config", required=True, help="flat key=value model file")
    sim.add_argument("--out", required=True, help="output series CSV path")
    sim.add_argument("--n", type=int, default=None, help="sample length (overrides config)")
    sim.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    sim.add_argument(
        "--burn-in",
        type=int,
        default=None,
        help="rows to discard (overrides config; default: max(500, rows until Psi_j < 1e-12))",
    )

    est = sub.add_parser("estimate", help="estimate VAR coefficients from a series CSV")
    est.add_argument("--data", required=True, help="input series CSV (t,x1,...,xr)")
    est.add_argument("--order", type=int, required=True, help="autoregression order p")
    est.add_argument("--method", choices=("floc", "ls", "yw"), default="floc")
    est.add_argument(
        "--b-exp",
        type=float,
        default=None,
        help="FLOC exponent B (default: max per-column alpha estimate - 1.05)",
    )
    est.add_argument("--out", required=True, help="coefficient report CSV path")
    est.add_argument("--summary", default=None, help="optional summary text path")

    mc = sub.add_parser("montecarlo", help="run a Monte Carlo study from a config file")
    mc.add_argument("--config", required=True, help="flat key=value experiment file")
    mc.add_argument("--out-dir", required=True, help="directory for table CSVs")
    mc.add_argument("--seed", type=int, default=None, help="override the config seed")

    diag = sub.add_parser("diagnose", help="residual diagnostics for a fitted report")
    diag.add_argument("--data", required=True, help="input series CSV")
    diag.add_argument("--report", required=True, help="coefficient report CSV from 'estimate'")
    diag.add_argument("--out-dir", required=True, help="directory for diagnostics CSVs")
    for name in _DIAGNOSE_SETTINGS:  # unset flags stay off args: the library's defaults hold
        flag = "--seed" if name == "rng_seed" else "--" + name.replace("_", "-")
        diag.add_argument(flag, dest=name, type=int, default=argparse.SUPPRESS)
    return parser


def _cmd_simulate(args) -> int:
    model, ints = load_model_config(args.config)
    n = args.n if args.n is not None else ints["n"]
    if n is None:
        raise ValidationError("sample length required: pass --n or put n in the config")
    seed = args.seed if args.seed is not None else ints["seed"]
    if seed is None:
        raise ValidationError("seed required: pass --seed or put seed in the config")
    burn_in = args.burn_in if args.burn_in is not None else ints["burn_in"]
    series = simulate(model, n, burn_in, seed)
    series.to_csv(args.out)
    print(f"wrote {series.n}x{series.dim} series to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    if args.method != "floc" and args.b_exp is not None:
        raise ValidationError("--b-exp applies only to FLOC")
    series = SeriesMatrix.from_csv(args.data)
    if args.method == "floc":
        b, _ = floc_config(series, args.b_exp)
        report = estimate_floc(series, args.order, b)
    elif args.method == "yw":
        report = estimate_yw(series, args.order)
    else:
        report = estimate_ls(series, args.order)
    report.to_csv(args.out)
    summary = report.summary_text()
    if args.summary:
        Path(args.summary).write_text(summary)
    sys.stdout.write(summary)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_monte_carlo(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for method in cfg.methods:
        report.to_wide_csv(out / f"{method}_table.csv", method)
    report.to_long_csv(out / "cells_long.csv")
    (out / "summary.txt").write_text(report.summary_text())
    print(f"wrote Monte Carlo tables to {out}")
    return 0


def _cmd_diagnose(args) -> int:
    series = SeriesMatrix.from_csv(args.data)
    _, coeffs = EstimationReport.read_coeffs_csv(args.report)
    settings = {name: getattr(args, name) for name in _DIAGNOSE_SETTINGS if hasattr(args, name)}
    res, columns = diagnose_residuals(series, coeffs, **settings)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res.to_csv(out / "residuals.csv")
    for j, diag in enumerate(columns, start=1):
        band = (diag.band_lo, diag.band_hi)
        write_auto_floc_csv(out / f"autofloc_x{j}.csv", diag.auto_floc, band)
        if diag.qq is not None:
            write_qq_csv(out / f"qq_x{j}.csv", diag.qq)
    ks_lines = [f"x{j}: {ks_summary_line(diag.ks)}" for j, diag in enumerate(columns, start=1)]
    (out / "ks.txt").write_text("\n".join(ks_lines) + "\n")
    print(f"wrote diagnostics for {res.dim} column(s) to {out}")
    return 0


def main(argv=None) -> int:
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "montecarlo": _cmd_montecarlo,
        "diagnose": _cmd_diagnose,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
