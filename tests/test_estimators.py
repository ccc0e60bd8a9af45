import re

import numpy as np
import pytest

import stablevar as sv
from helpers import brute_ls, covariation_lags, var2_model, worst_abs_error
from stablevar.errors import NumericalError, ValidationError
from stablevar.estimators import _estimate_stack, _solve_block, _toeplitz_system
from stablevar.floc import _floc_moments
from stablevar.seeding import substream
from stablevar.var_core import _simulate_paths


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestScalarCase:
    def test_order1_ratio_of_moments(self):
        rng = np.random.default_rng(0)
        x = np.zeros(400)
        for t in range(1, 400):
            x[t] = 0.6 * x[t - 1] + rng.standard_normal()
        series = sv.SeriesMatrix(x[:, None])
        report = sv.estimate_floc(series, 1, 1.0)
        corrected = sv.mean_correct(series).values
        g = _floc_moments(corrected, corrected, [0, 1], 1.0)
        assert report.coeffs[0][0, 0] == pytest.approx(g[1][0, 0] / g[0][0, 0], rel=1e-12)

    def test_ls_is_ols_slope(self):
        rng = np.random.default_rng(1)
        x = np.zeros(300)
        for t in range(1, 300):
            x[t] = 0.4 * x[t - 1] + rng.standard_normal()
        series = sv.SeriesMatrix(x[:, None])
        report = sv.estimate_ls(series, 1)
        xc = x - x.mean()
        slope = (xc[1:] @ xc[:-1]) / (xc[:-1] @ xc[:-1])
        assert report.coeffs[0][0, 0] == pytest.approx(slope, rel=1e-12)


class TestNoiselessRecovery:
    def test_ls_exact_on_linear_data(self):
        # cyclic rotation path has an exactly zero mean over whole cycles,
        # so mean correction leaves the recursion intact
        a = rotation(2 * np.pi / 7)
        x = np.empty((7 * 8, 2))
        x[0] = (1.0, 0.25)
        for t in range(1, x.shape[0]):
            x[t] = a @ x[t - 1]
        series = sv.SeriesMatrix(x)
        report = sv.estimate_ls(series, 1)
        assert np.max(np.abs(report.coeffs[0] - a)) < 1e-12
        res = sv.residuals(sv.mean_correct(series), report.coeffs)
        assert np.max(np.abs(res.values)) < 1e-12


class TestResiduals:
    def test_true_coefficients_zero_residuals(self):
        a = rotation(2 * np.pi / 5)
        x = np.empty((25, 2))
        x[0] = (1.0, -0.5)
        for t in range(1, 25):
            x[t] = a @ x[t - 1]
        res = sv.residuals(sv.SeriesMatrix(x), [a])
        assert res.n == 24
        assert np.max(np.abs(res.values)) < 1e-14

    def test_zero_coefficients_pass_through(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 2))
        res = sv.residuals(sv.SeriesMatrix(x), [np.zeros((2, 2)), np.zeros((2, 2))])
        assert np.array_equal(res.values, x[2:])

    def test_shape_mismatch(self):
        message = "A_2 of shape (3, 3) must be a finite 2x2 matrix; the series has dimension 2"
        with pytest.raises(ValidationError, match=re.escape(message)):
            sv.residuals(sv.SeriesMatrix(np.ones((10, 2))), [np.eye(2), np.ones((3, 3))])
        with pytest.raises(ValidationError, match="series of length 2 too short for order 2"):
            sv.residuals(sv.SeriesMatrix(np.ones((2, 2))), [np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError, match="matrices A_1 ... A_p, got none"):
            sv.residuals(sv.SeriesMatrix(np.ones((10, 2))), [])

    def test_ls_residuals_meet_the_normal_equations(self):
        # LS residuals are orthogonal to its lagged design: X^T z = X^T Y - X^T X [A]^T = 0
        series = sv.simulate(var2_model(1.6), 1000, 500, 4)
        report = sv.estimate_ls(series, 2)
        x = sv.mean_correct(series).values
        design = np.hstack([x[1:-1], x[:-2]])  # (x[t-1], x[t-2]) for t = 2..n-1
        res = sv.residuals(sv.mean_correct(series), report.coeffs).values
        assert np.abs(design.T @ res).max() <= 1e-10 * np.abs(design.T @ x[2:]).max()


class TestFlocEstimator:
    def test_null_model_estimates_near_zero(self):
        model = sv.VarModel(
            coeffs=(np.zeros((2, 2)), np.zeros((2, 2))),
            noise=sv.SymmetricStableNoiseSpec.iid(2, 1.6),
        )
        acc = np.zeros((2, 2, 2))
        for seed in range(100):
            series = sv.simulate(model, 700, 100, substream(900, seed))
            acc += sv.estimate_floc(series, 2, 0.55).coeffs
        assert np.max(np.abs(acc / 100)) < 0.1

    def test_block_solve_residual_small(self):
        series = sv.simulate(var2_model(1.6), 700, 500, 10)
        b = 0.55
        report = sv.estimate_floc(series, 2, b)
        corrected = sv.mean_correct(series).values
        g = dict(zip(range(-1, 3), _floc_moments(corrected, corrected, range(-1, 3), b)))
        block = np.block([[g[0], g[1]], [g[-1], g[0]]])
        rhs = np.hstack([g[1], g[2]])
        stacked = np.hstack(report.coeffs)
        assert np.linalg.norm(rhs - stacked @ block) / np.linalg.norm(rhs) < 1e-10

    def test_shift_invariance(self):
        series = sv.simulate(var2_model(1.6), 400, 200, 11)
        shifted = sv.SeriesMatrix(series.values + np.array([13.0, -41.0]))
        a = sv.estimate_floc(series, 2, 0.55)
        b = sv.estimate_floc(shifted, 2, 0.55)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10
        assert np.allclose(b.column_means, series.values.mean(axis=0) + [13.0, -41.0])

    def test_too_short(self):
        series = sv.simulate(var2_model(1.6), 8, 0, 13)
        with pytest.raises(ValidationError):
            sv.estimate_floc(series, 2, 0.55)

    def test_constant_column_rejected(self):
        vals = np.column_stack([np.ones(50), np.arange(50, dtype=float)])
        with pytest.raises(ValidationError, match="constant"):
            sv.estimate_floc(sv.SeriesMatrix(vals), 1, 0.5)

    def test_singular_block_rejected(self):
        # duplicated component makes the lag-0 matrix rank deficient
        rng = np.random.default_rng(14)
        col = rng.standard_normal(200)
        series = sv.SeriesMatrix(np.column_stack([col, col]))
        message = r"block matrix \(2x2 of lag matrix Gamma_0\) is numerically singular: condition "
        with pytest.raises(NumericalError, match="^cross-FLOC " + message):
            sv.estimate_floc(series, 1, 1.0)
        with pytest.raises(NumericalError, match="^autocovariance " + message):
            sv.estimate_yw(series, 1)

    def test_condition_reported(self):
        series = sv.simulate(var2_model(1.6), 300, 100, 15)
        report = sv.estimate_floc(series, 2, 0.55)
        assert report.condition > 0


class TestMethodAgreement:
    def test_floc_unit_exponents_equals_yw(self):
        # one block solve: FLOC at A = B = 1 on the moments divided by n - |k|,
        # Yule-Walker on the same moments divided by n
        series = sv.simulate(var2_model(2.0), 2000, 500, 16)
        gammas = sv.lag_matrix_set(sv.mean_correct(series), 2, 1.0)
        by_n = gammas * ((2000 - np.abs(np.arange(-1, 3))) / 2000)[:, None, None]
        f = sv.estimate_floc(series, 2, 1.0)
        y = sv.estimate_yw(series, 2)
        assert np.array_equal(f.coeffs, _solve_block(*_toeplitz_system(gammas[None]))[0][0])
        assert np.array_equal(y.coeffs, _solve_block(*_toeplitz_system(by_n[None]))[0][0])
        assert not np.array_equal(f.coeffs, y.coeffs)

    def test_yw_white_noise_near_zero(self):
        spec = sv.SymmetricStableNoiseSpec.iid(2, 2.0)
        series = sv.sample_noise_matrix(spec, 5000, 18)
        report = sv.estimate_yw(series, 2)
        assert np.max(np.abs(report.coeffs)) < 0.05

    def test_ls_condition_is_design_condition(self):
        series = sv.simulate(var2_model(1.6), 300, 100, 21)
        x = sv.mean_correct(series).values
        design = np.hstack([x[1:-1], x[:-2]])
        report = sv.estimate_ls(series, 2)
        assert report.condition == pytest.approx(np.linalg.cond(design), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.2, 1.9])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_stacked_ls_matches_brute_ls(self, r, p, alpha):
        # the stacked normal equations against one lstsq per series on its own design
        rng = np.random.default_rng(100 * r + 10 * p + int(alpha * 10))
        coeffs = []
        for _ in range(p):  # each A_k of spectral norm 0.8 / p: a causal model
            a = rng.uniform(-1.0, 1.0, (r, r))
            coeffs.append(a * (0.8 / p) / np.linalg.norm(a, 2))
        model = sv.VarModel(tuple(coeffs), sv.SymmetricStableNoiseSpec.iid(r, alpha))
        paths = _simulate_paths(model, 400, 100, [substream(27, i) for i in range(6)])
        got, condition, errors = _estimate_stack(paths, p, [("ls", None)])[("ls", None)]
        assert errors == {}
        for i, x in enumerate(paths):
            want, want_condition = brute_ls(x - x.mean(axis=0), p)
            assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want))
            assert condition[i] == pytest.approx(want_condition, rel=1e-12)

    @pytest.mark.parametrize("eps, fails", [(1e-7, True), (1e-5, False)])
    def test_near_collinear_ls_and_yw_fail_together(self, eps, fails):
        # LS solves X^T X, whose condition is cond(X)^2, under the limit YW's block has
        rng = np.random.default_rng(22)
        col = rng.standard_normal(500)
        series = sv.SeriesMatrix(np.column_stack([col, col + eps * rng.standard_normal(500)]))
        message = r"is numerically (singular|rank deficient): condition "
        for estimate in (sv.estimate_ls, sv.estimate_yw):
            if fails:
                with pytest.raises(NumericalError, match=message):
                    estimate(series, 1)
            else:
                assert estimate(series, 1).condition > 1e4

    def test_ls_rank_deficient(self):
        # two identical columns leave the regressor matrix rank deficient
        rng = np.random.default_rng(19)
        col = rng.standard_normal(100)
        series = sv.SeriesMatrix(np.column_stack([col, col]))
        message = r"^least-squares design matrix \(99x2, lags 1..1\) is numerically rank deficient"
        with pytest.raises(NumericalError, match=message):
            sv.estimate_ls(series, 1)


class TestCovariationOracle:
    @pytest.mark.parametrize(
        "p, r, alpha", [(1, 1, 1.5), (2, 2, 1.6), (3, 2, 1.2), (2, 3, 1.9), (1, 3, 1.05)]
    )
    def test_block_solve_at_population_covariations_returns_a(self, p, r, alpha):
        # For 1 < 1 + B < alpha, E[x_i,t x_j,t-k^<B>] is the covariation [x_i,t, x_j,t-k]_alpha
        # times a factor of column j alone, so the block system at the covariations of lags
        # -(p-1)..p, FLOC's population moments up to that factor, returns the true A_1..A_p.
        rng = np.random.default_rng(10 * p + r)
        # each row sum of |A_k| is at most 0.25, so the radius is at most 0.25 p <= 0.75
        coeffs = rng.uniform(-0.25, 0.25, (p, r, r)) / r
        laws = [sv.StableParams.symmetric(alpha, sigma) for sigma in (1.0, 0.5, 2.0)[:r]]
        noise = sv.SymmetricStableNoiseSpec(tuple(laws))
        model = sv.VarModel(coeffs, noise)
        gammas = covariation_lags(model, range(1 - p, p + 1))
        solved, condition, bad = _solve_block(*_toeplitz_system(gammas[None]))
        assert not bad[0]
        assert np.max(np.abs(solved[0] - model.coeffs)) < 1e-12

    def test_sample_floc_moments_approach_the_covariation_ratio(self):
        """At B = 0.25 and alpha 1.6 (1 < 1 + B < alpha), E[x_i,t x_j,t-k^<B>] is the covariation
        [x_i,t, x_j,t-k]_alpha times E|x_j|^(1+B) / ||x_j||_alpha^alpha, a factor of column j
        alone, so dividing column j of every lag by the lag-0 entry (j, j) removes it. Sample:
        the entrywise median of 9 mean-corrected paper-model series of n = 10^5. Over base
        seeds 0-31 its worst distance to the covariation ratio was 0.018-0.048 (median 0.030);
        at B = 0.9, past the moment condition, it was 0.20-0.37; the second-moment ratio
        sum_m Psi_m Psi_(m-k)^T lies 0.29 away. The bound 0.1 sits between.
        """
        def by_lag0_diagonal(mats):
            return mats / np.diagonal(mats[..., 1, :, :], axis1=-2, axis2=-1)[..., None, None, :]

        model = var2_model(1.6)
        theory = by_lag0_diagonal(covariation_lags(model, range(-1, 3)))
        second = by_lag0_diagonal(covariation_lags(var2_model(2.0), range(-1, 3)))
        paths = _simulate_paths(model, 100_000, 500, [substream(0, i) for i in range(9)])
        paths -= paths.mean(axis=1, keepdims=True)
        sample = np.median(by_lag0_diagonal(sv.lag_matrix_set(paths, 2, 0.25)), axis=0)
        assert np.max(np.abs(sample - theory)) < 0.1 < np.max(np.abs(second - theory)) / 2


class TestConsistencyAlongN:
    def test_median_worst_error_falls_from_n_500_to_4000(self):
        """FLOC's error falls like n^-(1 - 1/alpha) and LS's like n^(-1/alpha), up to logs
        (Hannan & Kanter 1977; Davis & Resnick 1986). FLOC at B = 1 is Yule-Walker with
        the window divisor and falls at LS's rate. From n = 500 to 4000 at alpha 1.6 the
        rates give factors 8^0.375 = 2.18 and 8^0.625 = 3.67; the bound divides each by 1.5
        for the log factors and the spread of two medians of 100 replications. Over seeds
        0-11 the factors were 1.99-2.99 for B <= 0.55 and 2.59-3.65 for B = 1 and LS.
        """
        alpha = 1.6
        model = var2_model(alpha)
        keys = [("floc", b) for b in (0.0, 0.25, 0.55, 1.0)] + [("ls", None)]
        median = {}
        for n in (500, 4000):
            paths = _simulate_paths(model, n, 500, [substream(0, r) for r in range(100)])
            for key, (coeffs, _, errors) in _estimate_stack(paths, 2, keys).items():
                assert not errors
                median[key, n] = worst_abs_error(coeffs, model.coeffs)[1]
        for key in keys:
            rate = 1 / alpha if key in (("floc", 1.0), ("ls", None)) else 1 - 1 / alpha
            assert median[key, 500] / median[key, 4000] >= 8**rate / 1.5, key


class TestReportCsv:
    def test_roundtrip(self, tmp_path):
        series = sv.simulate(var2_model(1.6), 300, 100, 20)
        report = sv.estimate_floc(series, 2, 0.55)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        method, coeffs = sv.EstimationReport.read_coeffs_csv(path)
        assert method == "floc"
        assert len(coeffs) == 2
        for got, want in zip(coeffs, report.coeffs):
            assert np.array_equal(got, want)
        # both hold A_1 ... A_p as one read-only (p, r, r) float array
        for held in (coeffs, report.coeffs):
            assert held.shape == (2, 2, 2) and held.dtype == float
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0, 0] = 0.0

    def test_summary_contains_condition(self):
        series = sv.simulate(var2_model(1.6), 300, 100, 21)
        report = sv.estimate_floc(series, 2, 0.55)
        text = report.summary_text()
        assert "condition:" in text and "exp_b: 0.55" in text
        assert report.b == 0.55 and "exp_a" not in text
        assert "exp_b" not in sv.estimate_ls(series, 2).summary_text()

    def test_malformed_report(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("method,k,i,j,value\nfloc,1,1,1,0.5\n")  # missing entries
        with pytest.raises(ValidationError):
            sv.EstimationReport.read_coeffs_csv(p)

    def test_declared_one_entry_report_roundtrip(self, tmp_path):
        p = tmp_path / "var1.csv"
        p.write_text("# order=1 dim=1\nmethod,k,i,j,value\nls,1,1,1,0.1\n")
        method, coeffs = sv.EstimationReport.read_coeffs_csv(p)
        assert method == "ls"
        assert len(coeffs) == 1 and np.array_equal(coeffs[0], np.array([[0.1]]))

    def test_writes_declaration(self, tmp_path):
        series = sv.simulate(var2_model(1.6), 300, 100, 20)
        path = tmp_path / "report.csv"
        sv.estimate_ls(series, 2).to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# order=2 dim=2", "method,k,i,j,value"]
        assert len(lines) == 2 + 2 * 2 * 2

    FULL_2X2_VAR2 = [
        f"floc,{k},{i},{j},0.{k}{i}{j}" for k in (1, 2) for i in (1, 2) for j in (1, 2)
    ]

    @pytest.mark.parametrize(
        "declaration, rows, reason",
        [
            # no declaration: a complete 2x2 VAR(2) body is still refused
            (None, FULL_2X2_VAR2, r":1: expected declaration"),
            # truncated after the k = 1 rows
            ("# order=2 dim=2", FULL_2X2_VAR2[:4], r":6: report ends without row k=2, i=1, j=1"),
            # one row missing
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1], r":9: report ends without row k=2, i=2, j=2"),
            # a repeated last row, and a row past the declared order: rows past the last
            ("# order=2 dim=2", FULL_2X2_VAR2 + ["floc,2,2,2,0.9"],
             r":11: row past the last of declared order=2 dim=2$"),
            ("# order=2 dim=2", FULL_2X2_VAR2 + ["floc,3,1,1,0.5"],
             r":11: row past the last of declared order=2 dim=2$"),
            # rows must come in the order to_csv writes them: two rows swapped
            ("# order=2 dim=2", FULL_2X2_VAR2[:2] + FULL_2X2_VAR2[3:1:-1] + FULL_2X2_VAR2[4:],
             r":5: expected k,i,j = 1,2,1, got '1,2,2'$"),
            # k = 0, a negative index, past the declared order, past the dim
            ("# order=2 dim=2", ["floc,0,1,1,0.5"], r":3: expected k,i,j = 1,1,1, got '0,1,1'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,-2,0.5"],
             r":10: expected k,i,j = 2,2,2, got '2,2,-2'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,3,2,2,0.5"],
             r":10: expected k,i,j = 2,2,2, got '3,2,2'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,3,2,0.5"],
             r":10: expected k,i,j = 2,2,2, got '2,3,2'$"),
            # an index must read exactly the text to_csv writes
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,02,0.5"],
             r":10: expected k,i,j = 2,2,2, got '2,2,02'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2, 2,2,0.5"],
             r":10: expected k,i,j = 2,2,2, got '2, 2,2'$"),
            ("# order=1 dim=10",
             [f"floc,1,1,{j},0.5" for j in range(1, 10)] + ["floc,1,1,1_0,0.5"],
             r":12: expected k,i,j = 1,1,10, got '1,1,1_0'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,2,nan"], r":10: non-finite"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,2,inf"], r":10: non-finite"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["ls,2,2,2,0.5"], r":10: method 'ls' differs"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + [",2,2,2,0.5"], r":10: empty method"),
            # a non-integer index or a non-numeric value
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2.0,2,2,0.5"],
             r":10: expected k,i,j = 2,2,2, got '2\.0,2,2'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,x,0.5"],
             r":10: expected k,i,j = 2,2,2, got '2,2,x'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,2,half"],
             r":10: could not convert string to float: 'half'"),
            # value text that Python's float takes but np.loadtxt, and so the series reader, refuses
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,2,1_0"],
             r":10: could not convert string to float: '1_0'$"),
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["floc,2,2,2,\u0661"],
             ":10: could not convert string to float: '\u0661'$"),
            # a wrong header on line 2, before the right one
            ("# order=2 dim=2\nmethod,k,i,value", FULL_2X2_VAR2,
             r":2: expected report header, got 'method,k,i,value'"),
            ("# order=0 dim=2", [], r":1: expected declaration"),
            ("# order=2", FULL_2X2_VAR2, r":1: expected declaration"),
            # a short row after a blank line: blank lines still count
            ("# order=2 dim=2", FULL_2X2_VAR2[:-1] + ["", "floc,2,2"], r":11: expected 5 fields, got 3"),
            # a declared shape too big to allocate: refused from its rows, with no array sized
            ("# order=999999999 dim=99999", ["floc,1,1,1,0.5"],
             r":3: report ends without row k=1, i=1, j=2"),
        ],
    )
    def test_strict_reader_rejects(self, tmp_path, declaration, rows, reason):
        lines = ([] if declaration is None else [declaration]) + ["method,k,i,j,value"] + rows
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad\.csv" + reason):
            sv.EstimationReport.read_coeffs_csv(p)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "report.csv"
        p.write_bytes(b"\xef\xbb\xbf# order=1 dim=1\nmethod,k,i,j,value\nls,1,1,1,0.1\n")
        method, coeffs = sv.EstimationReport.read_coeffs_csv(p)
        assert method == "ls" and coeffs[0].tolist() == [[0.1]]

    def test_undecodable_report_names_the_file(self, tmp_path):
        p = tmp_path / "report.csv"
        p.write_bytes(b"# order=1 dim=1\nmethod,k,i,j,value\nls,1,1,1,0.1\xff\n")
        with pytest.raises(ValidationError, match=re.escape(f"{p}: not utf-8 text")):
            sv.EstimationReport.read_coeffs_csv(p)

    def test_strict_reader_accepts_full_body(self, tmp_path):
        # the rejection cases above are one defect away from this accepted report
        p = tmp_path / "good.csv"
        p.write_text("\n".join(["# order=2 dim=2", "method,k,i,j,value"] + self.FULL_2X2_VAR2) + "\n")
        method, coeffs = sv.EstimationReport.read_coeffs_csv(p)
        assert method == "floc"
        assert coeffs[1][0, 1] == 0.212
