"""A fresh interpreter that imports stablevar and runs the CLI's simulate,
estimate and diagnose paths, or the stable CDF, quantile and diagnostics
paths at any alpha, loads no scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablevar as sv
from helpers import var2_model
from stablevar import cli
from stablevar.stable_dist import stable_cdf, stable_cdf_bulk, stable_quantile

SRC = Path(sv.__file__).resolve().parent.parent

SCIPY_MODULES = (
    "sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))"
)

CLI_SCRIPT = f"""
import json, sys
from pathlib import Path
import stablevar
from stablevar import cli
d = Path(sys.argv[1])
(d / "model.cfg").write_text(
    "dim = 2\\norder = 2\\na1 = 0.1, 0.3, 0.2, 0.1\\na2 = 0.2, 0.2, 0.05, 0.1\\nalpha = 1.6\\n"
)
codes = [cli.main(["simulate", "--config", str(d / "model.cfg"), "--out", str(d / "series.csv"),
                   "--n", "2000", "--seed", "1"])]
for method in ("floc", "ls", "yw"):
    codes.append(cli.main(["estimate", "--data", str(d / "series.csv"), "--order", "2",
                           "--method", method, "--out", str(d / (method + ".csv"))]))
print(json.dumps({{"codes": codes, "scipy": {SCIPY_MODULES}}}))
"""

CDF_SCRIPT = f"""
import json, sys
from pathlib import Path
import numpy as np
from stablevar import StableParams, cli
from stablevar.stable_dist import stable_cdf, stable_quantile
x = np.linspace(-30.0, 30.0, 13)
cdf = [stable_cdf(x, StableParams(a, 0.3, 1.5, 0.2)).tolist() for a in (0.9, 1.0, 1.5)]
quantiles = stable_quantile([1e-4, 0.3, 0.9], StableParams(0.9, -0.4, 2.0, -1.0)).tolist()
d = Path(sys.argv[1])
codes = [cli.main(["estimate", "--data", str(d / "series.csv"), "--order", "1", "--out",
                   str(d / "floc.csv")]),
         cli.main(["diagnose", "--data", str(d / "series.csv"), "--report", str(d / "floc.csv"),
                   "--out-dir", str(d / "diag"), "--seed", "3", "--max-lag", "4",
                   "--band-replicates", "10", "--qq-grid", "19"])]
print(json.dumps({{"cdf": cdf, "quantiles": quantiles, "codes": codes, "scipy": {SCIPY_MODULES}}}))
"""

GRID_SCRIPT = f"""
import json, sys
import numpy as np
import stablevar as sv
from stablevar.stable_dist import stable_cdf_bulk, stable_quantile
x = np.linspace(-30.0, 30.0, 13)
bulk = stable_cdf_bulk(x, sv.StableParams(1.5, -0.4, 0.8, 1.0)).tolist()
quantiles = stable_quantile([1e-4, 0.3, 0.9], sv.StableParams(1.2, 0.5, 2.0, -1.0)).tolist()
a1, a2 = np.array([[0.1, 0.3], [0.2, 0.1]]), np.array([[0.2, 0.2], [0.05, 0.1]])
series = sv.simulate(sv.VarModel((a1, a2), sv.SymmetricStableNoiseSpec.iid(2, 1.6)), 400, 200, 3)
report = sv.run_pipeline(series, 2, rng_seed=1, ks_repetitions=100, band_replicates=20,
                         qq_grid=19)
ks = [c.ks.statistic for c in report.columns]
print(json.dumps({{"bulk": bulk, "quantiles": quantiles, "ks": ks, "scipy": {SCIPY_MODULES}}}))
"""


def _fresh(script: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_simulate_and_estimate_load_no_scipy(tmp_path):
    out = _fresh(CLI_SCRIPT, tmp_path)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["scipy"] == []
    for method in ("floc", "ls", "yw"):
        assert (tmp_path / f"{method}.csv").is_file()


def _cauchy_series(d: Path) -> None:
    # seed 10: a fitted alpha of 0.937, so the KS test and QQ data run below alpha 1
    rng = np.random.default_rng(10)
    d.mkdir()
    sv.SeriesMatrix(rng.standard_cauchy(200)[:, None]).to_csv(d / "series.csv")


def test_cdf_quantiles_and_diagnose_at_any_alpha_load_no_scipy(tmp_path):
    _cauchy_series(tmp_path / "fresh")
    out = _fresh(CDF_SCRIPT, tmp_path / "fresh")
    assert out["scipy"] == []
    x = np.linspace(-30.0, 30.0, 13)
    for alpha, got in zip((0.9, 1.0, 1.5), out["cdf"]):
        assert got == stable_cdf(x, sv.StableParams(alpha, 0.3, 1.5, 0.2)).tolist()
    levels = [1e-4, 0.3, 0.9]
    assert out["quantiles"] == stable_quantile(levels, sv.StableParams(0.9, -0.4, 2.0, -1.0)).tolist()
    assert out["codes"] == [0, 0]
    d = tmp_path / "here"
    _cauchy_series(d)
    with pytest.warns(UserWarning, match=r"A \+ B"):
        assert cli.main(["estimate", "--data", str(d / "series.csv"), "--order", "1",
                         "--out", str(d / "floc.csv")]) == 0
        assert cli.main(["diagnose", "--data", str(d / "series.csv"), "--report",
                         str(d / "floc.csv"), "--out-dir", str(d / "diag"), "--seed", "3",
                         "--max-lag", "4", "--band-replicates", "10", "--qq-grid", "19"]) == 0
    written = sorted(f.name for f in (d / "diag").iterdir())
    assert written == sorted(f.name for f in (tmp_path / "fresh" / "diag").iterdir())
    for name in written:
        assert (d / "diag" / name).read_text() == (tmp_path / "fresh" / "diag" / name).read_text()


def test_grid_cdf_quantiles_and_pipeline_load_no_scipy():
    out = _fresh(GRID_SCRIPT)
    assert out["scipy"] == []
    x = np.linspace(-30.0, 30.0, 13)
    assert out["bulk"] == stable_cdf_bulk(x, sv.StableParams(1.5, -0.4, 0.8, 1.0)).tolist()
    levels = [1e-4, 0.3, 0.9]
    assert out["quantiles"] == stable_quantile(levels, sv.StableParams(1.2, 0.5, 2.0, -1.0)).tolist()
    series = sv.simulate(var2_model(1.6), 400, 200, 3)
    report = sv.run_pipeline(series, 2, rng_seed=1, ks_repetitions=100, band_replicates=20,
                             qq_grid=19)
    assert out["ks"] == [c.ks.statistic for c in report.columns]
