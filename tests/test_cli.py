import argparse
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stablevar as sv
from stablevar.cli import _build_parser, main
from stablevar.diagnostics import ks_summary_line, write_auto_floc_csv, write_qq_csv

MODEL_CFG = """\
dim = 2
order = 2
a1 = 0.1, 0.3, 0.2, 0.1
a2 = 0.2, 0.2, 0.05, 0.1
alpha = 1.6
sigma = 1.0
n = 300
burn_in = 100
seed = 21
"""

MC_CFG = """\
dim = 2
order = 2
a1 = 0.1, 0.3, 0.2, 0.1
a2 = 0.2, 0.2, 0.05, 0.1
alpha = 1.6
n = 120
burn_in = 50
b_values = 0.55
replications = 5
seed = 9
methods = floc, ls
"""

# what floc_config warns on the series of MODEL_CFG, given A + B: its smallest column
# alpha estimate is 1.488, below A + B at B = 0.55 and at the default B
MOMENT_WARNING = r"^A \+ B = {} >= estimated alpha 1\.488; "


@pytest.fixture()
def model_cfg(tmp_path):
    p = tmp_path / "model.cfg"
    p.write_text(MODEL_CFG)
    return p


def _readme_synopsis() -> dict:
    """{subcommand: set of flags} from the synopsis block under README's "Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    flags, command = {}, None
    for line in section.splitlines():
        if line.startswith("    stablevar "):
            command = line.split()[1]
            flags[command] = set()
        elif not line.startswith("    "):
            command = None
        if command is not None:
            flags[command].update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_synopsis_lists_every_flag_of_the_parser():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_flags = {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert _readme_synopsis() == parser_flags


def test_module_entry_point_prints_help():
    # README's entry point from a checkout: PYTHONPATH=src python -m stablevar.cli
    env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "stablevar.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.startswith("usage: stablevar [-h] {simulate,estimate,montecarlo,diagnose}")


class TestSimulate:
    def test_writes_series(self, model_cfg, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["simulate", "--config", str(model_cfg), "--out", str(out)]) == 0
        series = sv.SeriesMatrix.from_csv(out)
        assert series.n == 300 and series.dim == 2
        assert "300x2" in capsys.readouterr().out

    def test_flag_overrides(self, model_cfg, tmp_path):
        out = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(out), "--n", "50"])
        assert sv.SeriesMatrix.from_csv(out).n == 50

    def test_byte_identical_runs(self, model_cfg, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(out1)])
        main(["simulate", "--config", str(model_cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_default_burn_in_is_the_librarys(self, tmp_path):
        # radius 0.999: the default burn-in is the Psi count, 27,618 rows, not 500
        cfg = tmp_path / "near.cfg"
        cfg.write_text("dim = 1\norder = 1\na1 = 0.999\nalpha = 1.8\nn = 40\nseed = 6\n")
        out = tmp_path / "series.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        model, _ = sv.load_model_config(cfg)
        assert np.array_equal(
            sv.SeriesMatrix.from_csv(out).values, sv.simulate(model, 40, rng_seed=6).values
        )
        main(["simulate", "--config", str(cfg), "--out", str(out), "--burn-in", "500"])
        assert np.array_equal(
            sv.SeriesMatrix.from_csv(out).values, sv.simulate(model, 40, 500, 6).values
        )

    def test_missing_config_is_validation_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_bad_usage_is_validation_error(self):
        assert main(["simulate", "--config"]) == 1
        assert main(["frobnicate"]) == 1

    def test_negative_seed_is_validation_error(self, model_cfg, tmp_path, capsys):
        code = main(["simulate", "--config", str(model_cfg), "--out", str(tmp_path / "o.csv"),
                     "--seed", "-1"])
        assert code == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, message",
        [
            ("n", "sample length required: pass --n or put n in the config"),
            ("seed", "seed required: pass --seed or put seed in the config"),
        ],
    )
    def test_config_without_n_or_seed_needs_the_flag(self, tmp_path, capsys, key, message):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("".join(
            line + "\n" for line in MODEL_CFG.splitlines() if not line.startswith(f"{key} ")
        ))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        flag = ["--n", "40"] if key == "n" else ["--seed", "3"]
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv"), *flag]) == 0

    def test_non_integer_config_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(MODEL_CFG.replace("n = 300", "n = abc"))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "bad n" in capsys.readouterr().err


class TestEstimate:
    def test_happy_path(self, model_cfg, tmp_path, capsys):
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        report = tmp_path / "report.csv"
        summary = tmp_path / "summary.txt"
        with pytest.warns(UserWarning, match=MOMENT_WARNING.format("1.550")):
            code = main([
                "estimate", "--data", str(data), "--order", "2", "--method", "floc",
                "--b-exp", "0.55", "--out", str(report), "--summary", str(summary),
            ])
        assert code == 0
        method, coeffs = sv.EstimationReport.read_coeffs_csv(report)
        assert method == "floc" and len(coeffs) == 2
        assert "condition:" in summary.read_text()
        assert "method: floc" in capsys.readouterr().out

    def test_numerical_failure_exit_code(self, tmp_path):
        col = np.random.default_rng(0).standard_normal(100)
        sv.SeriesMatrix(np.column_stack([col, col])).to_csv(tmp_path / "dup.csv")
        code = main([
            "estimate", "--data", str(tmp_path / "dup.csv"), "--order", "1",
            "--method", "yw", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    def test_non_finite_b_is_validation_error(self, model_cfg, tmp_path, capsys):
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        code = main(["estimate", "--data", str(data), "--order", "2", "--b-exp", "nan",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "B must be finite and >= 0, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["ls", "yw"])
    def test_b_exp_rejected_off_floc(self, model_cfg, tmp_path, capsys, method):
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        code = main(["estimate", "--data", str(data), "--order", "2", "--method", method,
                     "--b-exp", "0.5", "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "--b-exp applies only to FLOC" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_normalizer_flag_is_gone(self, model_cfg, tmp_path, capsys):
        # each method has one normalizer, so the flag is bad usage
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        code = main(["estimate", "--data", str(data), "--order", "2",
                     "--normalizer", "n", "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "unrecognized arguments: --normalizer n" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--b", "0.5"), ("--meth", "yw"), ("--ord", "2")])
    def test_flag_prefixes_are_bad_usage(self, model_cfg, tmp_path, capsys, flag, value):
        # flags are taken by their full names only, as README's synopsis lists them
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        code = main(["estimate", "--data", str(data), "--order", "2", flag, value,
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_short_series_validation_exit_code(self, tmp_path):
        sv.SeriesMatrix(np.ones((3, 1)) * np.arange(3)[:, None]).to_csv(tmp_path / "tiny.csv")
        code = main([
            "estimate", "--data", str(tmp_path / "tiny.csv"), "--order", "2",
            "--method", "ls", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1


    def test_floc_warns_when_a_plus_b_reaches_an_alpha(self, model_cfg, tmp_path):
        # default B follows the larger column alpha estimate (1.668), so
        # A + B = 1.6175 reaches the other column's estimate (1.488)
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "stablevar.cli", "estimate", "--data", str(data),
             "--order", "2", "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0
        assert "A + B = 1.618 >= estimated alpha 1.488" in run.stderr
        assert "exp_b: 0.6175" in run.stdout

    def test_floc_silent_when_a_plus_b_below_alphas(self, model_cfg, tmp_path):
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--data", str(data), "--order", "2",
                         "--b-exp", "0.3", "--out", str(tmp_path / "r.csv")])
        assert code == 0


class TestMonteCarlo:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(MC_CFG)
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["montecarlo", "--config", str(cfg), "--out-dir", str(d1)]) == 0
        assert main(["montecarlo", "--config", str(cfg), "--out-dir", str(d2)]) == 0
        for name in ("floc_table.csv", "ls_table.csv", "cells_long.csv", "summary.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_files_equal_the_library_writers(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(MC_CFG)
        out, lib = tmp_path / "cli", tmp_path / "lib"
        assert main(["montecarlo", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = sv.run_monte_carlo(sv.load_experiment_config(cfg))
        lib.mkdir()
        for method in ("floc", "ls"):
            report.to_wide_csv(lib / f"{method}_table.csv", method)
        report.to_long_csv(lib / "cells_long.csv")
        (lib / "summary.txt").write_bytes(report.summary_text().encode())
        names = ["cells_long.csv", "floc_table.csv", "ls_table.csv", "summary.txt"]
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert (out / name).read_bytes() == (lib / name).read_bytes()

    def test_infinite_sigma_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(MC_CFG + "sigma = inf\n")
        assert main(["montecarlo", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert "sigma must be positive and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(MC_CFG)
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        main(["montecarlo", "--config", str(cfg), "--out-dir", str(d1)])
        main(["montecarlo", "--config", str(cfg), "--out-dir", str(d2), "--seed", "99"])
        assert (d1 / "cells_long.csv").read_bytes() != (d2 / "cells_long.csv").read_bytes()


class TestDiagnose:
    def test_full_workflow(self, model_cfg, tmp_path):
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        report = tmp_path / "report.csv"
        with pytest.warns(UserWarning, match=MOMENT_WARNING.format("1.550")):
            main(["estimate", "--data", str(data), "--order", "2", "--method", "floc",
                  "--b-exp", "0.55", "--out", str(report)])
        out = tmp_path / "diag"
        code = main([
            "diagnose", "--data", str(data), "--report", str(report),
            "--out-dir", str(out), "--seed", "4",
            "--ks-repetitions", "100", "--max-lag", "8",
            "--band-replicates", "20", "--qq-grid", "9",
        ])
        assert code == 0
        assert (out / "residuals.csv").exists()
        ks_text = (out / "ks.txt").read_text()
        assert "x1:" in ks_text and "x2:" in ks_text and "p_value=" in ks_text
        for j in (1, 2):
            af = (out / f"autofloc_x{j}.csv").read_text().splitlines()
            assert af[0] == "lag,value,band_lo,band_hi" and len(af) == 10
            qq = (out / f"qq_x{j}.csv").read_text().splitlines()
            assert qq[0] == "level,empirical,fitted" and len(qq) == 10
        res = sv.SeriesMatrix.from_csv(out / "residuals.csv")
        assert res.n == 298  # n - p rows

    def test_matches_run_pipeline(self, model_cfg, tmp_path):
        # estimate (FLOC, default B) + diagnose --seed s writes what the
        # library's writers make of run_pipeline(..., rng_seed=s)
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        report, summary = tmp_path / "report.csv", tmp_path / "summary.txt"
        with pytest.warns(UserWarning, match=MOMENT_WARNING.format("1.618")):
            assert main(["estimate", "--data", str(data), "--order", "2",
                         "--out", str(report), "--summary", str(summary)]) == 0
        out = tmp_path / "diag"
        assert main([
            "diagnose", "--data", str(data), "--report", str(report),
            "--out-dir", str(out), "--seed", "3",
            "--ks-repetitions", "100", "--max-lag", "8",
            "--band-replicates", "20", "--qq-grid", "9",
        ]) == 0
        with pytest.warns(UserWarning, match=MOMENT_WARNING.format("1.618")):
            lib = sv.run_pipeline(sv.SeriesMatrix.from_csv(data), 2, rng_seed=3, ks_repetitions=100,
                                  max_lag=8, band_replicates=20, qq_grid=9)
        assert f"exp_b: {lib.b_used!r}" in summary.read_text().splitlines()
        ref = tmp_path / "ref"
        ref.mkdir()
        lib.residuals.to_csv(ref / "residuals.csv")
        ks_lines = []
        for j, col in enumerate(lib.columns, start=1):
            write_auto_floc_csv(ref / f"autofloc_x{j}.csv", col.auto_floc, (col.band_lo, col.band_hi))
            write_qq_csv(ref / f"qq_x{j}.csv", col.qq)
            ks_lines.append(f"x{j}: {ks_summary_line(col.ks)}")
        (ref / "ks.txt").write_text("\n".join(ks_lines) + "\n")
        names = ["residuals.csv", "ks.txt"]
        names += [f"{kind}_x{j}.csv" for kind in ("autofloc", "qq") for j in (1, 2)]
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_defaults_match_run_pipeline_defaults(self, model_cfg, tmp_path):
        # no settings flags and no settings keywords: both take diagnose_residuals' defaults,
        # so the files agree only while the CLI holds no default of its own
        data, report, out = tmp_path / "series.csv", tmp_path / "report.csv", tmp_path / "diag"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        with pytest.warns(UserWarning, match=MOMENT_WARNING.format("1.618")):
            main(["estimate", "--data", str(data), "--order", "2", "--out", str(report)])
        assert main(["diagnose", "--data", str(data), "--report", str(report),
                     "--out-dir", str(out)]) == 0
        with pytest.warns(UserWarning, match=MOMENT_WARNING.format("1.618")):
            lib = sv.run_pipeline(sv.SeriesMatrix.from_csv(data), 2)
        ref = tmp_path / "ref"
        ref.mkdir()
        lib.residuals.to_csv(ref / "residuals.csv")
        for j, col in enumerate(lib.columns, start=1):
            write_auto_floc_csv(ref / f"autofloc_x{j}.csv", col.auto_floc, (col.band_lo, col.band_hi))
            write_qq_csv(ref / f"qq_x{j}.csv", col.qq)
        ks_lines = [f"x{j}: {ks_summary_line(col.ks)}" for j, col in enumerate(lib.columns, start=1)]
        (ref / "ks.txt").write_text("\n".join(ks_lines) + "\n")
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in ref.iterdir())
        for path in ref.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_near_gaussian_residuals_fit_no_full_skew(self, tmp_path):
        # the packaging smoke series at alpha 2 (n 2000, seed 1): its x2 residuals fit
        # alpha 1.986, where tan(pi alpha / 2) all but cancels the skew column and the
        # phase's noise alone once drove beta to 1
        cfg = tmp_path / "model.cfg"
        cfg.write_text(MODEL_CFG.split("alpha")[0] + "alpha = 2\n")
        data, report, out = tmp_path / "series.csv", tmp_path / "floc.csv", tmp_path / "diag"
        main(["simulate", "--config", str(cfg), "--out", str(data), "--n", "2000", "--seed", "1"])
        main(["estimate", "--data", str(data), "--order", "2", "--out", str(report)])
        main(["diagnose", "--data", str(data), "--report", str(report), "--out-dir", str(out),
              "--seed", "1", "--max-lag", "4", "--band-replicates", "10", "--qq-grid", "5"])
        fitted = re.findall(r"fitted alpha=(\S+) beta=(\S+)", (out / "ks.txt").read_text())
        assert len(fitted) == 2 and 1.95 < float(fitted[1][0]) < 2.0
        assert all(abs(float(beta)) < 0.25 for _, beta in fitted)

    def test_dimension_mismatch(self, model_cfg, tmp_path, capsys):
        data = tmp_path / "series.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        bad = tmp_path / "bad_report.csv"
        # a well-formed 1x1 VAR(1) report against the 2-dim series
        bad.write_text("# order=1 dim=1\nmethod,k,i,j,value\nfloc,1,1,1,0.5\n")
        capsys.readouterr()
        code = main(["diagnose", "--data", str(data), "--report", str(bad),
                     "--out-dir", str(tmp_path / "d")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: A_1 of shape (1, 1) must be a finite 2x2 matrix; the series has dimension 2\n"
        )
        assert not (tmp_path / "d").exists()

    def test_negative_seed_is_validation_error(self, model_cfg, tmp_path, capsys):
        data, report = tmp_path / "series.csv", tmp_path / "report.csv"
        main(["simulate", "--config", str(model_cfg), "--out", str(data)])
        main(["estimate", "--data", str(data), "--order", "2", "--method", "ls",
              "--out", str(report)])
        capsys.readouterr()
        code = main(["diagnose", "--data", str(data), "--report", str(report),
                     "--out-dir", str(tmp_path / "d"), "--seed", "-1"])
        assert code == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
