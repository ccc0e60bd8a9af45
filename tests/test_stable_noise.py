import warnings

import numpy as np
import pytest

import stablevar as sv
from helpers import brute_fit_stable_params
from stablevar import _kernels, stable_noise
from stablevar.errors import ValidationError


class TestStableParams:
    def test_alpha_range(self):
        sv.StableParams(2.0)
        sv.StableParams(0.5)
        with pytest.raises(ValidationError):
            sv.StableParams(0.0)
        with pytest.raises(ValidationError):
            sv.StableParams(2.1)

    def test_beta_sigma_ranges(self):
        with pytest.raises(ValidationError):
            sv.StableParams(1.5, beta=1.2)
        with pytest.raises(ValidationError):
            sv.StableParams(1.5, sigma=0.0)
        with pytest.raises(ValidationError):
            sv.StableParams(1.5, delta=float("nan"))
        with pytest.raises(ValidationError, match="sigma must be positive and finite, got inf"):
            sv.StableParams(1.5, sigma=float("inf"))

    def test_symmetric_constructor(self):
        p = sv.StableParams.symmetric(1.6, 2.0)
        assert p.beta == 0.0 and p.delta == 0.0 and p.is_symmetric

    def test_noise_spec_requires_symmetric(self):
        # components are numbered from 1, as A_1 and x1 are
        with pytest.raises(ValidationError, match=r"^component 1 must be symmetric "):
            sv.SymmetricStableNoiseSpec((sv.StableParams(1.5, beta=0.5),))
        with pytest.raises(ValidationError):
            sv.SymmetricStableNoiseSpec(())
        with pytest.raises(ValidationError, match="^component 2 is not StableParams$"):
            sv.SymmetricStableNoiseSpec((sv.StableParams(1.5), 1.5))
        spec = sv.SymmetricStableNoiseSpec.iid(3, 1.7)
        assert spec.dim == 3


class TestSampler:
    def test_gaussian_case_variance(self):
        # exp{-(sigma t)^2} with sigma = 1/sqrt(2) is the standard normal
        p = sv.StableParams.symmetric(2.0, 1.0 / np.sqrt(2.0))
        x = sv.sample_stable(p, 10**5, 0)
        assert abs(x.var() - 1.0) < 0.05

    def test_ecf_single_point(self):
        x = sv.sample_stable(sv.StableParams.symmetric(1.6, 1.0), 10**5, 1)
        assert abs(np.cos(x).mean() - np.exp(-1.0)) < 0.01

    def test_median_symmetric(self):
        x = sv.sample_stable(sv.StableParams.symmetric(1.5, 1.0), 10**5, 2)
        assert abs(np.median(x)) < 0.02

    @pytest.mark.parametrize("alpha", [1.5, 1.6, 1.75, 1.85, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_ecf_matches_char_fn(self, alpha, t):
        p = sv.StableParams.symmetric(alpha, 1.0)
        x = sv.sample_stable(p, 10**5, seed_for(alpha))
        assert abs(np.cos(t * x).mean() - np.exp(-((p.sigma * abs(t)) ** alpha))) < 0.01

    def test_cauchy_branch_quartiles(self):
        # alpha = 1, beta = 0 is Cauchy: quartiles at delta +- sigma
        x = sv.sample_stable(sv.StableParams(1.0, 0.0, 2.0, 0.5), 10**5, 11)
        q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
        assert abs(q25 - (-1.5)) < 0.1
        assert abs(q50 - 0.5) < 0.05
        assert abs(q75 - 2.5) < 0.1

    def test_skewed_branch_matches_char_fn(self):
        # modulus and phase of the empirical CF against the closed form
        alpha, beta = 1.7, 0.8
        z = sv.sample_stable(sv.StableParams(alpha, beta, 1.0, 0.0), 2 * 10**5, 7)
        for t in (0.5, 1.0):
            emp = np.mean(np.exp(1j * t * z))
            theo = np.exp(-(t**alpha) * (1 - 1j * beta * np.tan(np.pi * alpha / 2)))
            assert abs(abs(emp) - abs(theo)) < 0.01
            assert abs(np.angle(emp) - np.angle(theo)) < 0.02

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.3, 1.5, 1.6, 1.9])
    def test_symmetric_transform_is_closed_form(self, alpha):
        # beta = 0 runs the general CMS formula; it must give the symmetric form's bits
        rng = np.random.default_rng(3)
        phi = rng.uniform(-np.pi / 2, np.pi / 2, 10**5)
        w = rng.exponential(size=10**5)
        closed = (np.sin(alpha * phi) / np.cos(phi) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * phi) / w
        ) ** ((1.0 - alpha) / alpha)
        assert np.array_equal(_kernels.stable_transform(phi, w, alpha, 0.0), closed)

    def test_determinism(self):
        p = sv.StableParams.symmetric(1.7, 1.0)
        assert np.array_equal(sv.sample_stable(p, 1000, 5), sv.sample_stable(p, 1000, 5))

    def test_count_validation(self):
        for count in (0, 2.0, True):
            with pytest.raises(ValidationError, match="count must be an integer >= 1"):
                sv.sample_stable(sv.StableParams.symmetric(1.5), count, 0)
        with pytest.raises(ValidationError, match="n must be an integer >= 1, got 3.0"):
            sv.sample_noise_matrix(sv.SymmetricStableNoiseSpec.iid(2, 1.5), 3.0, 0)


def seed_for(alpha: float) -> int:
    return int(round(alpha * 100))


class TestNoiseMatrix:
    def test_shape_and_independence(self):
        spec = sv.SymmetricStableNoiseSpec.iid(2, 2.0)
        m = sv.sample_noise_matrix(spec, 3, 0)
        assert m.values.shape == (3, 2)
        big = sv.sample_noise_matrix(spec, 20000, 1).values
        corr = np.corrcoef(big[:, 0], big[:, 1])[0, 1]
        assert abs(corr) < 0.03

    def test_gaussian_column(self):
        spec = sv.SymmetricStableNoiseSpec.iid(1, 2.0)
        col = sv.sample_noise_matrix(spec, 10**5, 3).values[:, 0]
        assert abs(col.var() - 2.0) < 0.05  # variance 2 sigma^2 with sigma = 1

    def test_fixed_seed_identical(self):
        spec = sv.SymmetricStableNoiseSpec.iid(2, 1.6)
        a = sv.sample_noise_matrix(spec, 50, 9)
        b = sv.sample_noise_matrix(spec, 50, 9)
        assert np.array_equal(a.values, b.values)


class TestFitStableParams:
    @pytest.mark.parametrize("alpha", [1.5, 1.6, 1.75, 1.85, 2.0])
    def test_roundtrips_sampler(self, alpha):
        x = sv.sample_stable(sv.StableParams.symmetric(alpha, 1.0), 10**5, seed_for(alpha))
        fit = sv.fit_stable_params(x)
        assert abs(fit.alpha - alpha) < 0.1
        assert abs(fit.sigma - 1.0) < 0.1
        assert abs(fit.beta) < 0.15

    def test_gaussian_case(self):
        x = sv.sample_stable(sv.StableParams.symmetric(2.0, 1.0), 10**5, 17)
        fit = sv.fit_stable_params(x)
        assert 1.9 <= fit.alpha <= 2.0
        assert abs(fit.delta) < 0.05

    def test_recovers_shift_and_scale(self):
        x = sv.sample_stable(sv.StableParams(1.7, 0.0, 2.5, -3.0), 10**5, 23)
        fit = sv.fit_stable_params(x)
        assert abs(fit.sigma - 2.5) < 0.25
        assert abs(fit.delta - (-3.0)) < 0.15

    def test_detects_skewness(self):
        x = sv.sample_stable(sv.StableParams(1.7, 0.7, 1.0, 0.0), 10**5, 29)
        fit = sv.fit_stable_params(x)
        assert abs(fit.beta - 0.7) < 0.2

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9, 0.99, 1.0, 1.01, 1.2, 1.4, 1.6, 1.8, 1.95, 2.0])
    def test_matches_brute_fit(self, alpha):
        # running ECF powers, the closed-form line and the stacked phase solve move
        # each parameter by rounding only (worst seen: 7e-11 relative)
        for beta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for n in (100, 1000, 20_000):
                for seed in range(3):
                    x = sv.sample_stable(sv.StableParams(alpha, beta, 1.3, 0.4), n, seed)
                    fit, want = sv.fit_stable_params(x), brute_fit_stable_params(x)
                    assert fit.alpha == pytest.approx(want.alpha, rel=1e-9, abs=0)
                    assert fit.sigma == pytest.approx(want.sigma, rel=1e-9, abs=0)
                    assert abs(fit.beta - want.beta) <= 1e-9
                    assert abs(fit.delta - want.delta) <= 1e-9 * want.sigma

    def test_gaussian_fit_drops_the_vanishing_skew_column(self):
        # tan(pi alpha / 2), -1.2e-16 where alpha clips to 2 and under 0.035 past 1.98, leaves
        # the skew column below the phase's sampling noise; that noise alone drove beta to
        # +-1 in the first sample without a rank cutoff, and in 8 of the 20 others with one
        samples = [np.random.default_rng(0).standard_normal(100)]
        samples += [np.random.default_rng(seed).standard_normal(2000) for seed in range(20)]
        fits = [sv.fit_stable_params(x) for x in samples]
        assert fits[0].alpha == 2.0
        assert all(fit.alpha > 1.98 and abs(fit.beta) <= 1e-12 for fit in fits)

    def test_each_row_of_the_stack_fits_alone(self):
        # the batch rule: a row gets the same bits alone or in any stack
        laws = [(0.6, 0.5), (0.9, -0.3), (1.0, 0.0), (1.01, 0.8), (1.56, 0.2), (1.9, -1.0), (2.0, 0.0)]
        x = np.stack(
            [sv.sample_stable(sv.StableParams(a, b, 2.0, -1.0), 1000, r) for r, (a, b) in enumerate(laws * 5)]
        )
        stack = stable_noise._fit_stack(x)
        for r in range(x.shape[0]):
            alone = stable_noise._fit_stack(x[r : r + 1])
            assert all(np.array_equal(col[r : r + 1], one) for col, one in zip(stack, alone))
            assert sv.fit_stable_params(x[r]) == sv.StableParams(*(float(col[r]) for col in stack))

    def test_errors(self):
        with pytest.raises(ValidationError):
            sv.fit_stable_params(np.zeros(50))  # too short
        with pytest.raises(ValidationError):
            sv.fit_stable_params(np.ones(500))  # degenerate
        with pytest.raises(ValidationError, match="sample contains non-finite values"):
            sv.fit_stable_params(np.r_[np.arange(200.0), np.inf])

    def test_tied_middle_with_a_spread_interquartile_range(self):
        # half the sample tied at the median: the 28% and 72% quantiles meet
        # while the quartiles do not; the scale start divides by the former
        rng = np.random.default_rng(0)
        x = np.concatenate([np.zeros(50), rng.uniform(-2.0, -1.0, 25), rng.uniform(1.0, 2.0, 25)])
        assert np.quantile(x, 0.75) > np.quantile(x, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="28%-72%"):
                sv.fit_stable_params(x)
