import re
import warnings

import numpy as np
import pytest

import stablevar as sv
from helpers import A1, A2, var2_model
from stablevar import estimators, experiments, seeding
from stablevar.cli import main
from stablevar.errors import NumericalError, ValidationError
from stablevar.experiments import ExperimentConfig, coefficient_label, floc_config
from stablevar.seeding import substream
from stablevar.var_core import psi_count_for_tolerance

MC_CONFIG_TEXT = """\
# experiment description
dim = 2
order = 2
a1 = 0.1, 0.3, 0.2, 0.1      # row-major
a2 = 0.2, 0.2, 0.05, 0.1
alpha = 1.6
sigma = 1.0
n = 120
burn_in = 50
b_values = 0.0, 0.55
replications = 4
seed = 7
methods = floc, ls, yw
"""

MODEL_TEXT = "dim = 2\norder = 1\na1 = 0.1, 0.3, 0.2, 0.1\nalpha = 1.6\nsigma = 1.0\n"


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        model=var2_model(1.8),
        n=150,
        b_values=(0.55,),
        replications=6,
        seed=11,
        methods=("floc", "ls", "yw"),
        burn_in=100,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fail_first_solve(monkeypatch):
    """Make the first ``_solve_block`` call of a run report replication 2 as singular
    (condition inf)."""
    real = estimators._solve_block
    calls = {"i": -1}

    def flaky(block, rhs):
        coeffs, condition, bad = real(block, rhs)
        calls["i"] += 1
        if calls["i"] == 0:
            condition[2], bad[2] = np.inf, True
        return coeffs, condition, bad

    monkeypatch.setattr(estimators, "_solve_block", flaky)


def assert_cells_match_per_replication(report, cfg, skip):
    """Cells of ``cfg.methods`` equal mean and RMSE of per-replication estimate_*
    calls, leaving out ``skip``."""
    series = [
        sv.simulate(cfg.model, cfg.n, cfg.burn_in, substream(cfg.seed, i))
        for i in range(cfg.replications)
        if i not in skip
    ]
    p = cfg.model.order
    fits = {
        ("floc", b): lambda s, b=b: sv.estimate_floc(s, p, b)
        for b in cfg.b_values
    }
    fits[("ls", None)] = lambda s: sv.estimate_ls(s, p)
    fits[("yw", None)] = lambda s: sv.estimate_yw(s, p)
    truth = cfg.model.coeffs
    for (method, b), fit in fits.items():
        if method not in cfg.methods:
            continue
        stack = np.stack([fit(s).coeffs for s in series])
        mean = stack.mean(axis=0)
        rmse = np.sqrt(((stack - truth) ** 2).mean(axis=0))
        for k, i, j in np.ndindex(truth.shape):
            c = report.cell(method, b, k + 1, i + 1, j + 1)
            assert c.mean == pytest.approx(mean[k, i, j], rel=1e-12, abs=0.0)
            assert c.rmse == pytest.approx(rmse[k, i, j], rel=1e-12, abs=0.0)
            assert c.used == len(series)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text(MC_CONFIG_TEXT)
        cfg = sv.load_experiment_config(path)
        assert cfg.model.order == 2 and cfg.model.dim == 2
        assert np.array_equal(cfg.model.coeffs[0], A1)
        assert np.array_equal(cfg.model.coeffs[1], A2)
        assert cfg.model.noise.components[0].alpha == 1.6
        assert cfg.b_values == (0.0, 0.55)
        assert cfg.methods == ("floc", "ls", "yw")
        assert cfg.n == 120 and cfg.burn_in == 50 and cfg.seed == 7

    def test_non_finite_b_value(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text(MC_CONFIG_TEXT.replace("b_values = 0.0, 0.55", "b_values = nan"))
        with pytest.raises(ValidationError, match="finite"):
            sv.load_experiment_config(path)

    def test_b_values_without_floc(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text(MC_CONFIG_TEXT.replace("methods = floc, ls, yw", "methods = ls"))
        message = f"{path}: B values apply only to FLOC, got (0.0, 0.55) for ('ls',)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sv.load_experiment_config(path)

    @pytest.mark.parametrize(
        "load, text, key",
        [
            (sv.load_experiment_config, MC_CONFIG_TEXT, "bogus = 1"),
            (sv.load_experiment_config, MC_CONFIG_TEXT, "workers = 1"),
            # a model file refuses each experiment-only key
            (sv.load_model_config, MODEL_TEXT, "replications = 2"),
            (sv.load_model_config, MODEL_TEXT, "b_values = 0.5"),
            (sv.load_model_config, MODEL_TEXT, "methods = ls"),
        ],
        ids=["bogus", "workers", "model-replications", "model-b_values", "model-methods"],
    )
    def test_unknown_key(self, tmp_path, load, text, key):
        path = tmp_path / "mc.cfg"
        path.write_text(text + key + "\n")
        message = f"{path}: unknown key(s) ['{key.split(' ')[0]}']"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load(path)

    def test_missing_matrix(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text("dim = 2\norder = 2\na1 = 0.1,0,0,0.1\nalpha=1.6\nn=50\nreplications=2\nseed=1\nb_values=0.5\n")
        with pytest.raises(ValidationError, match="a2"):
            sv.load_experiment_config(path)

    def test_wrong_matrix_size(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text("dim = 2\norder = 1\na1 = 0.1, 0.2\nalpha = 1.6\nn = 50\nreplications = 2\nseed = 1\nb_values = 0.5\n")
        with pytest.raises(ValidationError, match="row-major"):
            sv.load_experiment_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text("dim = 2\ndim = 3\n")
        with pytest.raises(ValidationError, match="duplicate"):
            sv.load_experiment_config(path)

    def test_model_config(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("dim = 1\norder = 1\na1 = 0.5\nalpha = 2.0\nn = 30\nseed = 3\n")
        model, ints = sv.load_model_config(path)
        assert model.dim == 1 and model.order == 1
        assert ints == {"n": 30, "seed": 3, "burn_in": None}
        path.write_text(MODEL_TEXT)
        assert sv.load_model_config(path)[1] == {"n": None, "seed": None, "burn_in": None}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n = 0", "n must be an integer >= 1, got 0"),
            ("seed = -1", "seed must be a non-negative integer, got -1"),
            ("burn_in = -3", "burn_in must be a non-negative integer, got -3"),
        ],
        ids=["n", "seed", "burn_in"],
    )
    def test_model_config_out_of_range(self, tmp_path, capsys, line, message):
        # refused under the file's name, even when a flag would override the key
        path = tmp_path / "model.cfg"
        path.write_text(f"dim = 1\norder = 1\na1 = 0.5\nalpha = 2.0\n{line}\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            sv.load_model_config(path)
        flags = ["--out", str(tmp_path / "o.csv"), "--n", "30", "--seed", "3", "--burn-in", "10"]
        assert main(["simulate", "--config", str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "command, text",
        [
            ("simulate", MODEL_TEXT),
            ("montecarlo", MC_CONFIG_TEXT),  # burn_in = 50
            ("montecarlo", MC_CONFIG_TEXT.replace("burn_in = 50\n", "")),
        ],
        ids=["model", "experiment", "experiment-default-burn_in"],
    )
    def test_noncausal_model_is_refused_when_read(self, tmp_path, capsys, command, text):
        # refused by the reader, under the file's name, whatever burn_in says: a burn-in
        # cannot make the coefficients causal, so no message may advise passing one
        path = tmp_path / "mc.cfg"
        path.write_text(text.replace("a1 = 0.1, 0.3, 0.2, 0.1", "a1 = 1.2, 0, 0, 0.5"))
        load = sv.load_model_config if command == "simulate" else sv.load_experiment_config
        with pytest.raises(ValidationError) as exc:
            load(path)
        message = f"{path}: model is not causal: companion spectral radius "
        assert re.fullmatch(re.escape(message) + r"1\.\d{6} >= 1", str(exc.value))
        flags = ["--out", str(tmp_path / "o.csv"), "--n", "30", "--seed", "3"]
        flags = flags if command == "simulate" else ["--out-dir", str(tmp_path / "mc")]
        assert main([command, "--config", str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("a1 = 0.1, 0.3, 0.2, 0.1", "a1 = 0.1,,0.3,0.2,0.1", "a1"),
            ("alpha = 1.6", "alpha = 1.6,", "alpha"),
            ("sigma = 1.0", "sigma = ,1.0", "sigma"),
            ("b_values = 0.0, 0.55", "b_values = 0.0, , 0.55", "b_values"),
            ("b_values = 0.0, 0.55", "b_values =", "b_values"),
            ("methods = floc, ls, yw", "methods = floc,,ls", "methods"),
        ],
    )
    def test_empty_list_field_is_refused(self, tmp_path, old, new, key):
        path = tmp_path / "mc.cfg"
        path.write_text(MC_CONFIG_TEXT.replace(old, new))
        with pytest.raises(ValidationError, match=f"empty field in {key} = "):
            sv.load_experiment_config(path)
        if old in MODEL_TEXT:  # the model reader shares the check
            path.write_text(MODEL_TEXT.replace(old, new))
            with pytest.raises(ValidationError, match=f"empty field in {key} = "):
                sv.load_model_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dim 2\n", r"mc.cfg:1: expected key = value"),
            ("# only a comment\n\n", r"mc.cfg: empty config"),
            (MODEL_TEXT.replace("0.3", "x"), r"bad a1: could not convert string to float: 'x'"),
            (MODEL_TEXT.replace("order = 1", "order = 0"),
             r"cfg: order must be an integer >= 1, got 0$"),
            (MODEL_TEXT.replace("dim = 2", "dim = 0"), r"cfg: dim must be an integer >= 1, got 0$"),
            (MC_CONFIG_TEXT.replace("replications = 4", "replications = 0"),
             r"cfg: replications must be an integer >= 1, got 0$"),
            # faults in the order of the key table: seed before replications
            (MC_CONFIG_TEXT.replace("replications = 4", "replications = 0")
             .replace("seed = 7", "seed = -1"),
             r"cfg: seed must be a non-negative integer, got -1$"),
            (MODEL_TEXT.replace("alpha = 1.6\n", ""), r"missing required key 'alpha'"),
            (MODEL_TEXT.replace("1.6", "1.6, 1.7, 1.8"), r"alpha needs 1 or 2 values, got 3"),
            (MODEL_TEXT.replace("1.0", "1, 2, 3"), r"sigma needs 1 or 2 values, got 3"),
            (MODEL_TEXT + "n = 50\nseed = 1\nb_values = 0.5\n",
             r"missing required key 'replications'"),
            (MODEL_TEXT + "seed = 1\nreplications = 2\nb_values = 0.5\n",
             r"missing required key 'n'"),
            (MODEL_TEXT + "n = 50\nreplications = 2\nb_values = 0.5\n",
             r"missing required key 'seed'"),
            (MODEL_TEXT + "n = 5.0\nseed = 1\nreplications = 2\n", r"bad n: invalid literal"),
        ],
    )
    def test_malformed_file_names_its_fault(self, tmp_path, text, message):
        # every message names the file first
        path = tmp_path / "mc.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message) as exc:
            sv.load_experiment_config(path)
        assert str(exc.value).startswith(str(path))
        if "replications" not in text and "b_values" not in text:  # a model file too
            with pytest.raises(ValidationError, match=message) as exc:
                sv.load_model_config(path)
            assert str(exc.value).startswith(str(path))


    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a leading U+FEFF once stuck to the first key: "missing required key 'dim'"
        path, plain = tmp_path / "mc.cfg", tmp_path / "plain.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + MC_CONFIG_TEXT.encode())
        plain.write_text(MC_CONFIG_TEXT)
        assert repr(sv.load_experiment_config(path)) == repr(sv.load_experiment_config(plain))
        path.write_bytes(b"\xef\xbb\xbf" + MODEL_TEXT.encode())
        assert sv.load_model_config(path)[0].dim == 2

    def test_undecodable_file_names_it(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_bytes(MODEL_TEXT.encode() + b"# \xff\n")
        for load in (sv.load_model_config, sv.load_experiment_config):
            with pytest.raises(ValidationError, match=re.escape(f"{path}: not utf-8 text")):
                load(path)


class TestExperimentConfigValidation:
    def test_floc_needs_b_values(self):
        with pytest.raises(ValidationError):
            small_config(b_values=())

    def test_negative_b(self):
        with pytest.raises(ValidationError):
            small_config(b_values=(-0.1,))

    @pytest.mark.parametrize(
        "b_values", [(float("nan"),), (float("inf"),), (0.5, float("nan"), float("nan"))]
    )
    def test_non_finite_b_rejected(self, b_values):
        with pytest.raises(ValidationError, match="B must be finite and >= 0"):
            small_config(b_values=b_values)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(b_values="0.5"), "b_values must be a sequence of B values, got '0.5'"),
            (dict(b_values=0.5), "b_values must be a sequence of B values, got 0.5"),
            (dict(b_values=("0.5",)), "B must be finite and >= 0, got '0.5'"),
            (dict(b_values=(0.5, True)), "B must be finite and >= 0, got True"),
            (dict(methods=("floc", 1)), "unknown method 1"),
            (dict(methods=()), "at least one method is required"),
            (dict(methods=None), "methods must be a sequence of method names, got None"),
            (dict(b_values=np.array(0.5)),
             "b_values must be a sequence of B values, got array(0.5)"),
            (dict(methods=np.array("ls")),
             "methods must be a sequence of method names, got array('ls'"),
        ],
    )
    def test_malformed_grid_is_validation_error(self, overrides, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            small_config(**overrides)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            small_config(methods=("floc", "mle"))

    def test_methods_string_rejected(self):
        with pytest.raises(ValidationError, match="sequence of method names, got 'ls'"):
            small_config(methods="ls", b_values=())

    @pytest.mark.parametrize("methods", [("ls",), ("ls", "yw")])
    def test_b_values_without_floc_rejected(self, methods):
        with pytest.raises(ValidationError, match=re.escape(
            f"B values apply only to FLOC, got (0.5,) for {methods}"
        )):
            small_config(methods=methods, b_values=(0.5,))

    def test_ls_only_without_b_ok(self):
        cfg = small_config(methods=("ls",), b_values=())
        assert cfg.methods == ("ls",)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(methods=("floc", "ls", "ls")), "methods must not repeat"),
            (dict(methods=("ls", "LS")), "methods must not repeat"),
            (dict(b_values=(0.5, 0.5)), "B values must not repeat"),
            (dict(methods=("floc", "ls", "ls"), b_values=(0.5, 0.5)), "must not repeat"),
        ],
    )
    def test_repeats_rejected(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n=150.0), "n must be an integer >= 1, got 150.0"),
            (dict(n=True), "n must be an integer >= 1, got True"),
            (dict(replications=3.0), "replications must be an integer >= 1"),
            (dict(replications=0), "replications must be an integer >= 1"),
            (dict(burn_in=10.5), "burn_in must be a non-negative integer"),
            (dict(workers=1.0), "workers must be an integer >= 1"),
            (dict(seed=1.5), "seed must be a non-negative integer"),
            (dict(seed=True), "seed must be a non-negative integer"),
            (dict(seed=-1), "seed must be a non-negative integer"),
        ],
    )
    def test_sizes_and_seed_must_be_integers(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            small_config(**overrides)

    def test_default_burn_in_resolved_once(self):
        assert small_config(burn_in=None).burn_in == 500
        near = sv.VarModel(
            coeffs=(np.array([[0.999, 0.0], [0.1, 0.5]]),),
            noise=sv.SymmetricStableNoiseSpec.iid(2, 1.8),
        )
        cfg = small_config(model=near, burn_in=None, replications=1, methods=("ls",), b_values=())
        assert cfg.burn_in == psi_count_for_tolerance(near) > 500
        report = sv.run_monte_carlo(cfg)
        assert f"\nburn_in: {cfg.burn_in}\n" in report.summary_text()

    def test_default_burn_in_from_config_file(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text(MC_CONFIG_TEXT.replace("burn_in = 50\n", ""))
        assert sv.load_experiment_config(path).burn_in == 500

    def test_numpy_integers_accepted(self):
        cfg = small_config(n=np.int64(150), replications=np.int32(6), seed=np.uint64(11))
        assert cfg.n == 150 and cfg.seed == 11


class TestCoefficientLabels:
    def test_column_major_block_layout(self):
        # A_1 = [[a1, a3], [a2, a4]], A_2 = [[a5, a7], [a6, a8]]
        assert coefficient_label(1, 1, 1, 2) == "a1"
        assert coefficient_label(1, 2, 1, 2) == "a2"
        assert coefficient_label(1, 1, 2, 2) == "a3"
        assert coefficient_label(1, 2, 2, 2) == "a4"
        assert coefficient_label(2, 1, 1, 2) == "a5"
        assert coefficient_label(2, 2, 1, 2) == "a6"
        assert coefficient_label(2, 1, 2, 2) == "a7"
        assert coefficient_label(2, 2, 2, 2) == "a8"


class TestRunMonteCarlo:
    def test_single_replication_rmse_is_abs_error(self):
        cfg = small_config(replications=1)
        report = sv.run_monte_carlo(cfg)
        for key, mean in report.mean.items():
            error = np.abs(mean - cfg.model.coeffs)
            assert np.allclose(report.rmse[key], error, rtol=0.0, atol=1e-12)
            for k, i, j in np.ndindex(mean.shape):
                assert report.cell(*key, k + 1, i + 1, j + 1).used == 1

    def test_rmse_lower_bound_invariant(self):
        cfg = small_config(replications=8)
        report = sv.run_monte_carlo(cfg)
        for key, mean in report.mean.items():
            assert np.all(report.rmse[key] >= np.abs(mean - cfg.model.coeffs) - 1e-12)

    def test_deterministic(self):
        a = sv.run_monte_carlo(small_config())
        b = sv.run_monte_carlo(small_config())
        assert list(a.mean) == list(b.mean) == list(a.rmse) == list(b.rmse)
        for key in a.mean:
            assert np.array_equal(a.mean[key], b.mean[key])
            assert np.array_equal(a.rmse[key], b.rmse[key])
        assert a.failures == b.failures

    # blocks of one replication, of four (6 = 4 + 2) and of all six
    @pytest.mark.parametrize("block_values", [1, 4 * 250 * 2, 10**9])
    def test_cells_equal_per_replication_estimates(self, monkeypatch, block_values):
        monkeypatch.setattr(seeding, "_BLOCK_VALUES", block_values)
        cfg = small_config(b_values=(0.0, 0.55))
        report = sv.run_monte_carlo(cfg)
        assert_cells_match_per_replication(report, cfg, skip=())
        assert report.failure_records == ()

    def test_adding_methods_keeps_floc_cells(self):
        a = sv.run_monte_carlo(small_config(methods=("floc",)))
        b = sv.run_monte_carlo(small_config(methods=("floc", "ls")))
        key = ("floc", 0.55)
        assert list(a.mean) == [key]
        assert np.array_equal(a.mean[key], b.mean[key])
        assert np.array_equal(a.rmse[key], b.rmse[key])
        assert a.failures[key] == b.failures[key]

    def test_failure_accounting(self, monkeypatch):
        fail_first_solve(monkeypatch)  # the FLOC solve of the one block of 150
        report = sv.run_monte_carlo(small_config(replications=150))
        assert report.failed_replications == 1
        assert report.failures[("floc", 0.55)] == 1
        cell = report.cell("floc", 0.55, 1, 1, 1)
        assert cell.used == 149
        (record,) = report.failure_records
        assert (record.replication, record.method, record.b) == (2, "floc", 0.55)
        assert record.error == "NumericalError"
        assert record.condition == np.inf
        assert record.message.endswith("numerically singular: condition inf")
        assert record.message.startswith("cross-FLOC block matrix (4x4")
        assert report.summary_text().endswith(
            f"failure[floc B=0.55]: replication 2, NumericalError, condition inf: "
            f"{record.message}\n"
        )

    def test_failure_rate_above_threshold_aborts(self, monkeypatch):
        real = estimators._solve_block

        def broken(block, rhs):
            coeffs, condition, bad = real(block, rhs)
            bad[:] = True
            return coeffs, condition, bad

        monkeypatch.setattr(estimators, "_solve_block", broken)
        with pytest.raises(NumericalError, match="> 1%") as info:
            sv.run_monte_carlo(small_config(replications=10))
        # the message says why: the first failing replication's record, as summary_text gives it
        assert re.fullmatch(
            r"floc B=0\.55 failed in 10 of 10 replications \(> 1%\); first: replication 0, "
            r"NumericalError, condition [0-9.e+-]+: cross-FLOC block matrix \(4x4 of lag "
            r"matrices Gamma_-1\.\.Gamma_1\) is numerically singular: condition [0-9.e+-]+",
            str(info.value),
        )

    # replication 9 lies in the third block of four, or in the only block
    @pytest.mark.parametrize("block_values", [4 * 250 * 2, 10**9])
    @pytest.mark.parametrize(
        "defect, methods, error, message",
        [
            ("constant", ("floc", "ls", "yw"), "ValidationError", "constant column(s) 1:"),
            ("inf", ("floc", "ls", "yw"), "ValidationError", "series contains non-finite"),
            ("inf", ("floc", "yw"), "ValidationError", "series contains non-finite"),
            ("duplicate", ("floc", "ls", "yw"), "NumericalError", None),  # a solve ran
        ],
        ids=["constant", "inf", "inf-without-ls", "duplicate"],
    )
    def test_constant_column_fails_every_estimator(
        self, monkeypatch, block_values, defect, methods, error, message
    ):
        monkeypatch.setattr(seeding, "_BLOCK_VALUES", block_values)
        real = experiments._simulate_paths
        seen = [0]

        def with_defect(model, n, burn_in, generators):
            paths = real(model, n, burn_in, generators)
            if seen[0] <= 9 < seen[0] + len(paths):
                path = paths[9 - seen[0]]
                if defect == "constant":
                    path[:, 0] = 2.5
                elif defect == "inf":
                    path[40, 1] = np.inf
                else:
                    path[:, 1] = path[:, 0]
            seen[0] += len(paths)
            return paths

        monkeypatch.setattr(experiments, "_simulate_paths", with_defect)
        cfg = small_config(replications=150, methods=methods)
        report = sv.run_monte_carlo(cfg)
        keys = [("floc", 0.55), ("ls", None), ("yw", None)]
        keys = [key for key in keys if key[0] in methods]
        assert report.failed_replications == 1
        assert report.failures == dict.fromkeys(keys, 1)
        records = [(r.replication, r.method, r.b, r.error) for r in report.failure_records]
        assert records == [(9, *key, error) for key in keys]
        for rec in report.failure_records:
            if message is None:
                assert rec.condition > estimators.CONDITION_LIMIT
            else:
                assert np.isnan(rec.condition)
                assert rec.message.startswith(message)
        assert_cells_match_per_replication(report, cfg, skip={9})

    def test_series_too_short_for_block_solve(self):
        # n = 8 is too short for the 4x4 block system (needs n > 8), not for LS (n > 6)
        with pytest.raises(NumericalError, match=r"floc B=0.55 failed in 6 of 6 replications"):
            sv.run_monte_carlo(small_config(n=8))
        report = sv.run_monte_carlo(small_config(n=8, methods=("ls",), b_values=()))
        assert report.failures == {("ls", None): 0}
        for k, i, j in np.ndindex(report.mean["ls", None].shape):
            assert report.cell("ls", None, k + 1, i + 1, j + 1).used == 6

    def test_summary_without_failures(self):
        report = sv.run_monte_carlo(small_config())
        assert report.summary_text() == (
            "replications: 6\nn: 150\nburn_in: 100\nseed: 11\nmethods: floc,ls,yw\n"
            "b_values: 0.55\nfailed_replications: 0\n"
            "failures[floc B=0.55]: 0\nfailures[ls]: 0\nfailures[yw]: 0\n"
        )

    def test_distinct_b_values_get_distinct_labels(self, tmp_path):
        # 6 significant digits once labelled both B values 0.123457
        b_values = (0.0, 0.25, 0.1234567, 0.1234568)
        model = sv.VarModel(coeffs=(np.array([[0.5]]),), noise=sv.SymmetricStableNoiseSpec.iid(1, 1.8))
        cfg = ExperimentConfig(model=model, n=100, b_values=b_values, replications=2, seed=3,
                               methods=("floc",), burn_in=50)
        report = sv.run_monte_carlo(cfg)
        labels = ["0", "0.25", "0.1234567", "0.1234568"]
        report.to_wide_csv(tmp_path / "floc.csv", "floc")
        header = (tmp_path / "floc.csv").read_text().splitlines()[0]
        assert header == "coefficient,true," + ",".join(
            f"B={b} mean,B={b} rmse" for b in labels
        )
        lines = report.summary_text().splitlines()
        assert "b_values: " + ",".join(labels) in lines
        assert [line for line in lines if line.startswith("failures[")] == [
            f"failures[floc B={b}]: 0" for b in labels
        ]

    def test_csv_outputs(self, tmp_path):
        report = sv.run_monte_carlo(small_config())
        wide = tmp_path / "floc.csv"
        report.to_wide_csv(wide, "floc")
        lines = wide.read_text().splitlines()
        assert lines[0] == "coefficient,true,B=0.55 mean,B=0.55 rmse"
        assert len(lines) == 9
        assert lines[1].startswith("a1,0.1,")
        long = tmp_path / "long.csv"
        report.to_long_csv(long)
        rows = long.read_text().splitlines()
        assert rows[0] == "method,b,coefficient,k,i,j,true,mean,rmse,used"
        assert len(rows) == 1 + 8 * 3  # 8 coefficients x (floc@B + ls + yw)
        assert "ls,," in rows[9]

    def test_tables_read_back_the_arrays(self, monkeypatch, tmp_path):
        fail_first_solve(monkeypatch)  # the FLOC B=0 solve of the one block of 150
        cfg = small_config(replications=150, b_values=(0.0, 0.55))
        report = sv.run_monte_carlo(cfg)
        keys = [("floc", 0.0), ("floc", 0.55), ("ls", None), ("yw", None)]
        assert report.failures == {**dict.fromkeys(keys, 0), ("floc", 0.0): 1}
        truth = cfg.model.coeffs
        places = [(k, i, j) for k, j, i in np.ndindex(truth.shape)]  # lag, column, row

        report.to_long_csv(tmp_path / "long.csv")
        rows = [line.split(",") for line in (tmp_path / "long.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(keys) * len(places)
        expected = [(key, place) for key in keys for place in places]
        for row, ((method, b), (k, i, j)) in zip(rows, expected):
            assert row[:6] == [method, "" if b is None else str(b),
                               coefficient_label(k + 1, i + 1, j + 1, 2), str(k + 1), str(i + 1),
                               str(j + 1)]
            assert float(row[6]) == truth[k, i, j]
            assert float(row[7]) == report.mean[method, b][k, i, j]
            assert float(row[8]) == report.rmse[method, b][k, i, j]
            assert int(row[9]) == (149 if (method, b) == ("floc", 0.0) else 150)

        for method in cfg.methods:
            report.to_wide_csv(tmp_path / "wide.csv", method)
            lines = (tmp_path / "wide.csv").read_text().splitlines()[1:]
            assert len(lines) == len(places)
            bs = [b for m, b in keys if m == method]
            for line, (k, i, j) in zip(lines, places):
                fields = line.split(",")
                assert fields[0] == coefficient_label(k + 1, i + 1, j + 1, 2)
                assert float(fields[1]) == truth[k, i, j]
                assert fields[2:] == [f"{stat[method, b][k, i, j]:.6g}"
                                      for b in bs for stat in (report.mean, report.rmse)]

    @pytest.mark.parametrize(
        "kij", [(3, 1, 1), (0, 1, 1), (1, 3, 1), (1, 1, 0), (1, -1, 1), (1.5, 1, 1), ("1", 1, 1)]
    )
    def test_cell_outside_the_model_raises_key_error(self, kij):
        report = sv.run_monte_carlo(small_config(methods=("ls",), b_values=(), replications=2))
        assert report.cell("ls", None, 2, 2, 2).used == 2
        # an index equal to an integer in range reads that entry
        assert report.cell("ls", None, 2.0, np.int64(2), 2) == report.cell("ls", None, 2, 2, 2)
        with pytest.raises(KeyError, match=re.escape(repr(("ls", None, *kij)))):
            report.cell("ls", None, *kij)

    def test_absent_cell_and_method_raise_key_error(self, tmp_path):
        report = sv.run_monte_carlo(small_config(methods=("ls",), b_values=(), replications=2))
        assert report.cell("ls", None, 1, 1, 1).used == 2
        with pytest.raises(KeyError, match=re.escape("('floc', 0.55, 1, 1, 1)")):
            report.cell("floc", 0.55, 1, 1, 1)
        with pytest.raises(KeyError, match="'yw'"):
            report.to_wide_csv(tmp_path / "yw.csv", "yw")
        assert not (tmp_path / "yw.csv").exists()


class TestFlocConfig:
    def test_warns_once_one_plus_b_reaches_smallest_column_alpha(self):
        series = sv.simulate(var2_model(1.6), 400, 200, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, alphas = floc_config(series, 0.0)
            alpha = float(alphas.min())
            assert 1.0 < alpha < 2.0  # so alpha - 1 is exact and 1 + (alpha - 1) == alpha
            assert floc_config(series, alpha - 1.0 - 1e-9)[0] == alpha - 1.0 - 1e-9
        message = f"A + B = {alpha:.3f} >= estimated alpha {alpha:.3f}"
        with pytest.warns(UserWarning, match=re.escape(message)):
            b, again = floc_config(series, alpha - 1.0)
        assert b == alpha - 1.0 and np.array_equal(again, alphas)


class TestRunPipeline:
    def test_csv_roundtrip_matches_in_memory(self, tmp_path):
        series = sv.simulate(var2_model(1.6), 400, 200, 3)
        path = tmp_path / "data.csv"
        series.to_csv(path)
        from_file = sv.SeriesMatrix.from_csv(path)
        a = sv.run_pipeline(series, 2, b=0.5, rng_seed=1, ks_repetitions=100,
                            band_replicates=20, qq_grid=0)
        b = sv.run_pipeline(from_file, 2, b=0.5, rng_seed=1, ks_repetitions=100,
                            band_replicates=20, qq_grid=0)
        assert np.array_equal(a.estimation.coeffs, b.estimation.coeffs)
        assert a.columns[0].ks.p_value == b.columns[0].ks.p_value

    def test_scalar_gaussian_noise_near_zero(self):
        spec = sv.SymmetricStableNoiseSpec.iid(1, 2.0)
        series = sv.sample_noise_matrix(spec, 600, 5)
        report = sv.run_pipeline(series, 1, rng_seed=2, ks_repetitions=100,
                                 band_replicates=20, qq_grid=0)
        assert abs(report.estimation.coeffs[0][0, 0]) < 0.12
        assert report.b_used == pytest.approx(report.alpha_estimates.max() - 1.05, abs=1e-12)

    def test_negative_seed_rejected(self):
        series = sv.simulate(var2_model(1.6), 200, 50, 3)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            sv.run_pipeline(series, 2, b=0.5, rng_seed=-1, ks_repetitions=10,
                            band_replicates=5, qq_grid=0)

    def test_b_clamped_at_zero(self):
        # an alpha estimate below 1.05 (0.937 here) gives a negative default B
        # before clamping, and A = 1 alone already reaches it
        rng = np.random.default_rng(10)
        series = sv.SeriesMatrix(rng.standard_cauchy(200)[:, None])
        with pytest.warns(UserWarning, match=r"A \+ B"):
            report = sv.run_pipeline(series, 1, rng_seed=3, ks_repetitions=100,
                                     band_replicates=10, qq_grid=0)
        assert report.alpha_estimates[0] < 1.05
        assert report.b_used == 0.0
