import numpy as np
import pytest

import stablevar as sv
from helpers import brute_cross_floc, brute_lag_moment_matrix, var2_model
from stablevar.errors import ValidationError
from stablevar.floc import FlocConfig, _floc_moments


class TestFlocConfig:
    def test_negative_exponents_rejected(self):
        with pytest.raises(ValidationError):
            FlocConfig(-0.1, 0.5)
        with pytest.raises(ValidationError):
            FlocConfig(1.0, -0.5)

    @pytest.mark.parametrize(
        "a, b", [(1.0, float("nan")), (1.0, float("inf")), (float("nan"), 0.5)]
    )
    def test_non_finite_exponents_rejected(self, a, b):
        with pytest.raises(ValidationError, match="finite"):
            FlocConfig(a, b)

    def test_warn_without_hint(self):
        cfg = FlocConfig(1.0, 0.9)
        with pytest.warns(UserWarning):
            cfg.warn_if_invalid_for(1.6)


class TestSignedPower:
    def test_hand_values(self):
        assert sv.signed_power(-4.0, 0.5) == pytest.approx(-2.0, abs=1e-15)
        assert sv.signed_power(3.7, 1.0) == 3.7
        assert sv.signed_power(-2.5, 1.0) == -2.5
        assert sv.signed_power(0.0, 0.0) == 0.0

    def test_odd(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal() * 10
            a = rng.uniform(0, 3)
            assert sv.signed_power(-x, a) == pytest.approx(-sv.signed_power(x, a), rel=1e-14)

    def test_vectorized(self):
        out = sv.signed_power(np.array([-1.0, 0.0, 4.0]), 0.5)
        assert np.allclose(out, [-1.0, 0.0, 2.0], atol=1e-15)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            sv.signed_power(1.0, -0.5)


class TestCrossFloc:
    def test_all_ones(self):
        ones = np.ones(7)
        for a, b in ((0.3, 0.8), (1.0, 1.0), (0.0, 0.0)):
            assert sv.cross_floc(ones, ones, 0, FlocConfig(a, b)) == pytest.approx(1.0, abs=1e-15)

    def test_hand_lag0(self):
        v = sv.cross_floc([1, -2, 3], [2, -1, 1], 0, FlocConfig(1.0, 1.0))
        assert v == pytest.approx(7.0 / 3.0, abs=1e-15)

    def test_hand_lag1_fractional(self):
        v = sv.cross_floc([1, -2, 3], [2, -1, 1], 1, FlocConfig(1.0, 0.5))
        assert v == pytest.approx((-2.0 * np.sqrt(2.0) - 3.0) / 2.0, abs=1e-14)

    def test_brute_force_oracle_sweep(self):
        # window count and value against the double-loop oracle
        rng = np.random.default_rng(1234)
        for _ in range(300):
            n = int(rng.integers(5, 120))
            xi = rng.standard_t(2, n) * rng.uniform(0.5, 3)
            xj = rng.standard_t(2, n) * rng.uniform(0.5, 3)
            k = int(rng.integers(-(n - 1), n))
            a = float(rng.uniform(0, 2))
            b = float(rng.uniform(0, 2))
            got = sv.cross_floc(xi, xj, k, FlocConfig(a, b))
            want, count, terms = brute_cross_floc(xi, xj, k, a, b)
            assert count == n - abs(k)
            scale = max(np.mean(np.abs(terms)), 1e-30)
            assert abs(got - want) <= 1e-12 * scale

    def test_asymmetric_in_arguments(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 1.0])
        cfg = FlocConfig(1.0, 0.5)
        assert sv.cross_floc(x, y, 0, cfg) != sv.cross_floc(y, x, 0, cfg)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        xi = rng.standard_normal(60)
        xj = rng.standard_normal(60)
        for a, b, c in ((0.7, 0.4, 2.5), (1.0, 0.55, 0.3), (1.3, 0.0, 7.0)):
            cfg = FlocConfig(a, b)
            base = sv.cross_floc(xi, xj, 2, cfg)
            assert sv.cross_floc(c * xi, xj, 2, cfg) == pytest.approx(c**a * base, rel=1e-12)
            assert sv.cross_floc(xi, c * xj, 2, cfg) == pytest.approx(c**b * base, rel=1e-12)

    def test_lag_out_of_range(self):
        with pytest.raises(ValidationError):
            sv.cross_floc([1.0, 2.0], [1.0, 2.0], 2, FlocConfig(1.0, 1.0))
        with pytest.raises(ValidationError):
            sv.cross_floc([1.0, 2.0], [1.0, 2.0], -2, FlocConfig(1.0, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            sv.cross_floc([1.0, 2.0], [1.0], 0, FlocConfig(1.0, 1.0))


class TestLagMoments:
    def test_paths_match_brute_force_with_zeros(self):
        # cross_floc, the lag moments and auto_floc share one signed-power matmul path
        rng = np.random.default_rng(77)
        values = rng.standard_t(1.5, (40, 2))
        values[[0, 5, 6, 17, 39], 0] = 0.0
        values[[3, 5, 22], 1] = 0.0
        for a in (0.5, 1.0):
            for b in (0.0, 0.3, 0.55):
                cfg = FlocConfig(a, b)
                auto = sv.auto_floc(values[:, 0], 3, cfg).values
                mats = _floc_moments(values, values, range(-3, 4), cfg)
                for k in range(-3, 4):
                    mat = mats[k + 3]
                    for i in range(2):
                        for j in range(2):
                            want, count, terms = brute_cross_floc(values[:, i], values[:, j], k, a, b)
                            assert count == 40 - abs(k)
                            tol = 1e-12 * max(np.mean(np.abs(terms)), 1e-30)
                            assert abs(mat[i, j] - want) <= tol
                            got = sv.cross_floc(values[:, i], values[:, j], k, cfg)
                            assert abs(got - want) <= tol
                            if i == j == 0 and k >= 0:
                                assert abs(auto[k] - want) <= tol


    def test_lag_sequence_equals_scalar_calls(self):
        rng = np.random.default_rng(78)
        xi, xj = rng.standard_t(1.5, (2, 30))
        cfg = FlocConfig(1.0, 0.4)
        lags = np.array([2, -1, 0, 29, -29])
        got = sv.cross_floc(xi, xj, lags, cfg)
        assert got.shape == (5,)
        for k, v in zip(lags, got):
            assert v == sv.cross_floc(xi, xj, int(k), cfg)
        square = sv.cross_floc(xi, xj, lags[:4].reshape(2, 2), cfg)
        assert square.shape == (2, 2)
        assert np.array_equal(square.ravel(), got[:4])
        assert type(sv.cross_floc(xi, xj, np.int64(2), cfg)) is float
        for bad, message in (([0, 30], "lag 30 out"), ([-30], "lag -30 out"), (30, "lag 30 out")):
            with pytest.raises(ValidationError, match=message):
                sv.cross_floc(xi, xj, bad, cfg)
        with pytest.raises(ValidationError, match="no lags"):
            sv.cross_floc(xi, xj, [], cfg)

    @pytest.mark.parametrize(
        "lag", [1.5, 1.0, True, np.float64(2.0), [0, 1.5], np.array([True, False]), [1, None]]
    )
    def test_non_integer_lag_is_refused(self, lag):
        xi, xj = np.random.default_rng(5).standard_t(1.5, (2, 30))
        with pytest.raises(ValidationError, match="lags must be integers"):
            sv.cross_floc(xi, xj, lag, FlocConfig(1.0, 0.4))


class TestLagMatrix:
    def test_unit_exponents_equal_cross_moments(self):
        series = sv.mean_correct(sv.simulate(var2_model(2.0), 2000, 200, 3))
        lags = (-2, -1, 0, 1, 2)
        mats = _floc_moments(series.values, series.values, lags, FlocConfig(1.0, 1.0))
        for lag, got in zip(lags, mats):
            want = brute_lag_moment_matrix(series.values, lag)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_iid_noise_structure(self):
        spec = sv.SymmetricStableNoiseSpec.iid(2, 2.0)
        series = sv.sample_noise_matrix(spec, 50000, 21)
        g0 = _floc_moments(series.values, series.values, [0], FlocConfig(1.0, 1.0))[0]
        # diagonal near E|Z|^2 = 2 sigma^2, off-diagonal near zero
        assert abs(g0[0, 0] - 2.0) < 0.1 and abs(g0[1, 1] - 2.0) < 0.1
        assert abs(g0[0, 1]) < 0.05 and abs(g0[1, 0]) < 0.05

    def test_scalar_series_reduces_to_cross_floc(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(100)
        cfg = FlocConfig(1.0, 0.7)
        got = _floc_moments(col[:, None], col[:, None], [3], cfg)[0]
        assert got.shape == (1, 1)
        assert got[0, 0] == sv.cross_floc(col, col, 3, cfg)


class TestLagMatrixSet:
    def test_ranges(self):
        series = sv.simulate(var2_model(1.6), 100, 0, 7)
        cfg = FlocConfig(1.0, 0.55)
        assert sv.lag_matrix_set(series, 1, cfg).shape == (2, 2, 2)
        assert sv.lag_matrix_set(series, 2, cfg).shape == (4, 2, 2)

    def test_consistent_with_direct_calls(self):
        series = sv.simulate(var2_model(1.6), 100, 0, 8)
        cfg = FlocConfig(1.0, 0.55)
        built = sv.lag_matrix_set(series, 2, cfg)
        lags = np.arange(-1, 3)
        assert np.array_equal(built, _floc_moments(series.values, series.values, lags, cfg))
        for k, mat in zip(range(-1, 3), built):
            want = sv.cross_floc(series.values[:, 0], series.values[:, 1], k, cfg)
            assert mat[0, 1] == pytest.approx(want, rel=1e-12)

    def test_stack_gives_each_series_its_own_bits(self):
        stack = np.stack([sv.simulate(var2_model(1.6), 100, 0, seed).values for seed in (1, 2, 3)])
        cfg = FlocConfig(1.0, 0.55)
        built = sv.lag_matrix_set(stack, 2, cfg)
        assert built.shape == (3, 4, 2, 2)
        for values, mats in zip(stack, built):
            assert np.array_equal(mats, sv.lag_matrix_set(sv.SeriesMatrix(values), 2, cfg))
        assert np.array_equal(sv.lag_matrix_set(stack[None], 2, cfg)[0], built)

    def test_too_short(self):
        series = sv.SeriesMatrix(np.arange(8, dtype=float).reshape(4, 2))
        with pytest.raises(ValidationError):
            sv.lag_matrix_set(series, 2, FlocConfig(1.0, 0.5))
