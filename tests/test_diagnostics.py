import numpy as np
import pytest
from scipy.stats import binom

import stablevar as sv
from stablevar import diagnostics, seeding
from stablevar.diagnostics import ks_statistic, write_auto_floc_csv, write_qq_csv
from stablevar.errors import ValidationError
from stablevar.seeding import substream
from stablevar.stable_dist import stable_cdf


class TestAutoFloc:
    def test_lag0_equals_cross_floc(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(300)
        b = 0.8
        af = sv.auto_floc(col, 10, b)
        assert af.values[0] == sv.cross_floc(col, col, 0, b)
        assert af.b == b
        assert af.values[0] > 0
        assert list(af.lags) == list(range(11))

    def test_alternating_series_strong_lag1(self):
        col = np.tile([1.0, -1.0], 50)
        af = sv.auto_floc(col, 2, 0.5)
        assert af.values[1] == pytest.approx(-1.0, abs=1e-12)

    def test_iid_sample_is_flat(self):
        # null behaviour: away from lag 0 the values sit within ~3/sqrt(n)
        n = 600
        col = sv.sample_stable(sv.StableParams.symmetric(1.85, 1.0), n, 42)
        af = sv.auto_floc(col, 20, 0.8)
        ratios = np.abs(af.values[1:]) / af.values[0]
        assert np.mean(ratios < 3.0 / np.sqrt(n)) >= 0.9

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            sv.auto_floc(np.zeros(100), 5, 0.5)
        with pytest.raises(ValidationError):
            sv.auto_floc(np.ones(10), 10, 0.5)

    def test_null_band_contains_iid_values(self):
        fitted = sv.StableParams.symmetric(1.85, 1.0)
        col = sv.sample_stable(fitted, 500, 7)
        b = 0.8
        af = sv.auto_floc(col, 10, b)
        lo, hi = sv.auto_floc_null_band(fitted, 500, 10, b, replicates=100, rng_seed=3)
        inside = (af.values[1:] >= lo[1:]) & (af.values[1:] <= hi[1:])
        assert inside.mean() >= 0.8
        assert np.all(lo <= hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_column(self, bad):
        col = sv.sample_stable(sv.StableParams.symmetric(1.7, 1.0), 300, 8)
        col[17] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            sv.auto_floc(col, 5, 0.5)

    def test_rejects_empty_column(self):
        with pytest.raises(ValidationError, match="column is empty"):
            sv.auto_floc([], 0, 0.5)

    def test_null_band_rejects_lags_past_the_series(self):
        fitted = sv.StableParams(1.7, 0.0, 1.0, 0.0)
        for max_lag in (-1, 150, 151):
            with pytest.raises(ValidationError, match="max_lag"):
                sv.auto_floc_null_band(fitted, 150, max_lag, 0.5, replicates=2)

    @pytest.mark.parametrize("n", [50.0, True, 0])
    def test_null_band_checks_n_before_drawing(self, n, monkeypatch):
        monkeypatch.setattr(diagnostics, "sample_stable", None)  # any draw would fail
        with pytest.raises(ValidationError, match=f"n must be an integer >= 1, got {n!r}"):
            sv.auto_floc_null_band(sv.StableParams(1.5), n, 0, 0.5, replicates=2)

    @pytest.mark.parametrize("fitted", [sv.StableParams(1.7, 0.2, 1.3, 0.1),
                                        sv.StableParams(1.3, -0.9, 0.6, -2.0)])
    @pytest.mark.parametrize("max_lag,replicates", [(6, 20), (0, 2), (0, 50), (20, 2), (20, 50)])
    def test_null_band_is_percentiles_of_replicate_cross_floc(
        self, fitted, max_lag, replicates, monkeypatch
    ):
        # the stacked lag moments give each replicate the bits of its own cross_floc call
        b = 0.6
        lo, hi = sv.auto_floc_null_band(fitted, 150, max_lag, b, replicates, rng_seed=5)
        lags = np.arange(max_lag + 1)
        samples = [sv.sample_stable(fitted, 150, substream(5, rep)) for rep in range(replicates)]
        sims = [sv.cross_floc(x, x, lags, b) for x in samples]
        # the fixed 95% band: the 2.5th and 97.5th percentiles, as 0.95 gives them
        tail = 100.0 * (1.0 - 0.95) / 2.0
        assert np.array_equal(lo, np.percentile(sims, tail, axis=0))
        assert np.array_equal(hi, np.percentile(sims, 100.0 - tail, axis=0))
        # replicate blocks of 3 (and a last short one) leave the band's bits as they are
        monkeypatch.setattr(seeding, "_BLOCK_VALUES", 3 * 150)
        blocked = sv.auto_floc_null_band(fitted, 150, max_lag, b, replicates, rng_seed=5)
        assert np.array_equal(blocked[0], lo) and np.array_equal(blocked[1], hi)


class TestKsTest:
    def test_statistic_against_sorted_definition(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        p = sv.StableParams(2.0, 0.0, 1.0 / np.sqrt(2.0), 0.0)
        d = ks_statistic(x, p)
        xs = np.sort(x)
        cdf = np.array([stable_cdf(float(v), p) for v in xs])
        i = np.arange(1, 201)
        want = max(np.max(i / 200 - cdf), np.max(cdf - (i - 1) / 200))
        assert d == pytest.approx(want, abs=3e-5)

    def test_pvalue_is_exceedance_proportion(self):
        # the Monte Carlo p-value (k + 1) / (R + 1), k exceedances of R replicates
        col = sv.sample_stable(sv.StableParams.symmetric(1.8, 1.0), 300, 5)
        res = sv.ks_test_stable(col, repetitions=100, rng_seed=2)
        assert 0.0 < res.p_value <= 1.0
        assert res.p_value * (res.repetitions + 1) == pytest.approx(
            round(res.p_value * (res.repetitions + 1)), abs=1e-9
        )
        assert res.statistic > 0
        assert 0 < res.fitted.alpha <= 2.0

    def test_rejects_uniform_data(self):
        u = np.random.default_rng(9).uniform(0.0, 1.0, 600)
        res = sv.ks_test_stable(u, repetitions=100, rng_seed=3)
        assert res.p_value < 0.05

    def test_accepts_own_law(self):
        col = sv.sample_stable(sv.StableParams.symmetric(1.7, 1.0), 400, 11)
        res = sv.ks_test_stable(col, repetitions=100, rng_seed=4)
        assert res.p_value >= 0.05

    @pytest.mark.parametrize("alpha, n", [(1.6, 1000), (0.9, 100)])  # 0.9: Zolotarev's CDF
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_replicate_loop(self, alpha, n, seed, monkeypatch):
        # the stacked bootstrap gives every replicate the bits of its own fit and statistic
        col = sv.sample_stable(sv.StableParams(alpha, 0.3, 1.5, 0.2), n, 100 + seed)
        fitted = sv.fit_stable_params(col)
        d_obs = ks_statistic(col, fitted)
        want = []
        for rep in range(100):
            sim = sv.sample_stable(fitted, n, substream(seed, rep))
            want.append(ks_statistic(sim, sv.fit_stable_params(sim)))
        seen, distance = [], diagnostics._ks_distance

        def recording(cdf):
            seen.append(distance(cdf))
            return seen[-1]

        monkeypatch.setattr(diagnostics, "_ks_distance", recording)
        res = sv.ks_test_stable(col, repetitions=100, rng_seed=seed)
        assert res.fitted == fitted and res.statistic == d_obs
        assert seen[0] == d_obs and np.concatenate(seen[1:]).tolist() == want
        assert res.p_value == (sum(d >= d_obs for d in want) + 1) / 101
        # replicate blocks of 3 (and a last short one) leave the statistic, p-value and fit
        monkeypatch.setattr(seeding, "_BLOCK_VALUES", 3 * n)
        assert sv.ks_test_stable(col, repetitions=100, rng_seed=seed) == res

    def test_rejects_non_finite_column(self):
        fitted = sv.StableParams(1.7, 0.0, 1.0, 0.0)
        col = sv.sample_stable(fitted, 300, 8)
        col[17] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            ks_statistic(col, fitted)

    def test_rejects_empty_column(self):
        with pytest.raises(ValidationError, match="column is empty"):
            ks_statistic([], sv.StableParams(1.7, 0.0, 1.0, 0.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            sv.ks_test_stable(np.ones(50), repetitions=100, rng_seed=0)
        col = sv.sample_stable(sv.StableParams.symmetric(1.7, 1.0), 200, 12)
        with pytest.raises(ValidationError):
            sv.ks_test_stable(col, repetitions=50, rng_seed=0)


class TestNullCalibration:
    def test_ks_level_and_null_band_coverage_on_iid_draws(self):
        """Under the null the KS test rejects at its level and the band covers 95%.

        KS: p = (k + 1) / 101 with k the bootstrap statistics at least the observed one.
        Were the observed statistic exchangeable with them, k would be uniform on 0..100, so
        p <= c with probability floor(101c) / 101: 5/101 at c = 0.05 and 10/101 at 0.10.
        Refitting the law makes this hold only approximately, so the rejection rate q lies
        in [floor(101c) / 101, c] and the rejections of 150 independent samples are
        Binomial(150, q); each count must lie between the 0.05% quantile at the bottom of
        the range and the 99.95% quantile at q = c.

        Band: np.percentile puts its lower end at order statistic 0.025(R - 1) + 1 of R
        replicates (1-based, interpolated), and a fresh draw falls below order statistic j
        with probability j / (R + 1), so it leaves the band with probability
        qbar = 2(0.025(R - 1) + 1) / (R + 1), 5.05% at R = 4000. Each of 1000 fresh
        samples is judged at one lag, 1 + i % 10, so the exceedances are independent given
        the band and their count is Binomial(1000, ~qbar). The band's own sampling error
        moves qbar by about 0.1% over ten lags, which the 0.05% quantiles absorb.
        """
        law, n, b, max_lag = sv.StableParams.symmetric(1.6), 200, 0.55, 10
        p = np.array([
            sv.ks_test_stable(sv.sample_stable(law, n, substream(0, i)), 100,
                              seeding._child_seed(0, 1, i)).p_value
            for i in range(150)
        ])
        for c in (0.05, 0.10):
            lo, hi = binom.ppf(5e-4, 150, np.floor(101 * c) / 101), binom.isf(5e-4, 150, c)
            assert lo <= np.sum(p <= c) <= hi  # at these seeds 6 in [1, 18] and 10 in [4, 28]

        replicates, checks = 4000, 1000
        lo, hi = sv.auto_floc_null_band(law, n, max_lag, b, replicates, seeding._child_seed(0, 2))
        outside = 0
        for i in range(checks):
            lag = 1 + i % max_lag
            value = sv.auto_floc(sv.sample_stable(law, n, substream(1, i)), max_lag, b).values[lag]
            outside += not lo[lag] <= value <= hi[lag]
        qbar = 2 * (0.025 * (replicates - 1) + 1) / (replicates + 1)
        # at these seeds 54 of 1000, in [29, 75]
        assert binom.ppf(5e-4, checks, qbar) <= outside <= binom.isf(5e-4, checks, qbar)


class TestQqData:
    def test_gaussian_median_is_zero(self):
        fitted = sv.StableParams(2.0, 0.0, 1.0 / np.sqrt(2.0), 0.0)
        col = np.random.default_rng(3).standard_normal(500)
        qq = sv.qq_data(col, fitted, grid=5)  # levels 0.1, 0.3, 0.5, 0.7, 0.9
        assert qq.fitted[2] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_coordinates(self):
        col = sv.sample_stable(sv.StableParams.symmetric(1.6, 1.0), 1000, 13)
        fitted = sv.fit_stable_params(col)
        qq = sv.qq_data(col, fitted, grid=21)
        assert np.all(np.diff(qq.levels) > 0)
        assert np.all(np.diff(qq.empirical) >= 0)
        assert np.all(np.diff(qq.fitted) > 0)

    def test_self_consistency_on_own_sample(self):
        truth = sv.StableParams.symmetric(1.7, 1.0)
        col = sv.sample_stable(truth, 10**4, 14)
        fitted = sv.fit_stable_params(col)
        qq = sv.qq_data(col, fitted, grid=99)
        central = (qq.levels >= 0.05) & (qq.levels <= 0.95)
        rel = np.abs(qq.empirical[central] - qq.fitted[central]) / np.abs(qq.fitted[central])
        assert np.median(rel) < 0.05

    def test_fitted_quantiles_invert(self):
        fitted = sv.StableParams(1.8, 0.2, 1.1, 0.3)
        col = sv.sample_stable(fitted, 300, 15)
        qq = sv.qq_data(col, fitted, grid=9)
        back = stable_cdf(qq.fitted, fitted)
        assert np.max(np.abs(back - qq.levels)) < 1e-6

    def test_rejects_non_finite_column(self):
        col = sv.sample_stable(sv.StableParams.symmetric(1.7, 1.0), 300, 8)
        col[17] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            sv.qq_data(col, sv.StableParams.symmetric(1.7), grid=9)

    def test_rejects_empty_column(self):
        with pytest.raises(ValidationError, match="column is empty"):
            sv.qq_data([], sv.StableParams.symmetric(1.7), 5)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            sv.qq_data(np.ones(100), sv.StableParams.symmetric(1.5), grid=1)


class TestCsvEmitters:
    def test_auto_floc_csv(self, tmp_path):
        col = sv.sample_stable(sv.StableParams.symmetric(1.8, 1.0), 300, 16)
        b = 0.75
        af = sv.auto_floc(col, 5, b)
        band = sv.auto_floc_null_band(
            sv.StableParams.symmetric(1.8, 1.0), 300, 5, b, replicates=20, rng_seed=5
        )
        path = tmp_path / "af.csv"
        write_auto_floc_csv(path, af, band)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag,value,band_lo,band_hi"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == af.values[0]

    def test_qq_csv(self, tmp_path):
        fitted = sv.StableParams(2.0, 0.0, 1.0, 0.0)
        qq = sv.qq_data(np.random.default_rng(6).standard_normal(200), fitted, grid=4)
        path = tmp_path / "qq.csv"
        write_qq_csv(path, qq)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,empirical,fitted"
        assert len(lines) == 5
