import math

import numpy as np
import pytest
import scipy.fft
import scipy.special
from scipy.optimize import brentq
from scipy.stats import levy_stable, norm

import stablevar as sv
from helpers import brute_gil_pelaez_cdf, quad_cdf
from stablevar import _kernels, stable_dist
from stablevar.errors import ValidationError
from stablevar.stable_dist import _GRID_CAP, _TAIL_Z, stable_cdf, stable_cdf_bulk, stable_quantile

ENGINE_ALPHAS = (1.05, 1.3, 1.6, 1.9, 2.0)
ENGINE_BETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
TAIL_LEVELS = np.array([1e-4, 0.005, 0.5, 0.995, 1.0 - 1e-4])
SWEEP_ALPHAS = (1.01, 1.02, 1.05, 1.1, 1.2, 1.4, 1.6, 1.8, 1.95, 2.0)
SWITCH_ALPHAS = (0.1, 0.5, 0.9, 0.999, 1.001, 1.01, 1.05, 1.6, 1.9)


def _switch(alpha, beta):
    """The standardized tail switch _TAIL_Z s_ab, s_ab = (1 + zeta^2)^(1/(2 alpha))."""
    return _TAIL_Z * math.hypot(1.0, beta * math.tan(0.5 * math.pi * alpha)) ** (1.0 / alpha)


def _engine_points(alpha, beta, seed):
    """Standardized draws from the law plus the points just inside the switch
    at _TAIL_Z s_ab, which the grid's reach holds."""
    edge = _TAIL_Z - 0.01
    draws = sv.sample_stable(sv.StableParams(alpha, beta, 1.0, 0.0), 40, seed)
    draws = draws[np.abs(draws) < edge]
    return np.concatenate([[-edge, edge], draws, np.linspace(-6.0, 6.0, 13)])


class TestCdf:
    def test_gaussian_case_matches_normal(self):
        # alpha = 2 with scale sigma is a normal with standard deviation sigma*sqrt(2)
        p = sv.StableParams(2.0, 0.0, 1.0, 0.0)
        xs = np.linspace(-5.0, 5.0, 41)
        got = stable_cdf(xs, p)
        want = norm.cdf(xs, scale=np.sqrt(2.0))
        assert np.max(np.abs(got - want)) < 1e-6

    def test_gaussian_case_bulk_path(self):
        p = sv.StableParams(2.0, 0.0, 1.0, 0.0)
        xs = np.linspace(-5.0, 5.0, 41)
        got = stable_cdf_bulk(xs, p)
        want = norm.cdf(xs, scale=np.sqrt(2.0))
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize(
        "alpha,beta,sigma,delta,x",
        [
            (1.6, 0.0, 1.0, 0.0, 0.7),
            (1.5, 0.5, 1.2, -0.3, 1.1),
            (1.85, -0.7, 0.5, 0.1, -0.4),
            (1.2, 0.3, 2.0, 1.0, 3.5),
            (0.9, 0.0, 1.0, 0.0, 0.5),
        ],
    )
    def test_against_scipy(self, alpha, beta, sigma, delta, x):
        ours = stable_cdf(x, sv.StableParams(alpha, beta, sigma, delta))
        theirs = levy_stable.cdf(x, alpha, beta, loc=delta, scale=sigma)
        assert ours == pytest.approx(theirs, abs=2e-7)

    def test_symmetry(self):
        p = sv.StableParams(1.7, 0.0, 1.0, 0.0)
        for z in (0.3, 1.0, 4.0, 15.0):
            assert stable_cdf(-z, p) == pytest.approx(1.0 - stable_cdf(z, p), abs=1e-9)

    def test_monotone(self):
        p = sv.StableParams(1.5, 0.4, 1.0, 0.0)
        xs = np.linspace(-20, 20, 101)
        vals = stable_cdf(xs, p)
        assert np.all(np.diff(vals) > 0)

    def test_bulk_matches_quad(self):
        zs = np.concatenate([np.linspace(-60, 60, 61), [-150.0, 150.0]])
        for alpha in (1.5, 1.6, 1.85, 2.0):
            for beta in (-0.5, 0.0, 0.5):
                p = sv.StableParams(alpha, beta, 1.3, -0.4)
                a = stable_cdf_bulk(zs, p)
                b = quad_cdf(zs, p)
                assert np.max(np.abs(a - b)) < 2e-5

    @pytest.mark.parametrize(
        "alpha,oracle,bound",
        [(a, "levy", 1e-7) for a in (0.3, 0.4)]
        + [(a, "levy", 1e-8) for a in (0.5, 0.6, 0.7, 0.8, 1.3, 1.5, 1.7, 1.9, 2.0)]
        + [(a, "quad", 1e-8) for a in (0.85, 0.9, 0.95, 0.99, 1.0, 1.01, 1.05, 1.1, 1.2)],
    )
    def test_zolotarev_accuracy(self, alpha, oracle, bound):
        # levy_stable is itself up to 2e-3 off near alpha 1, where quadrature
        # is the oracle; at alpha 0.999 and 1.001 quadrature is 5e-7 and 3e-6
        # off mpmath spot values that stable_cdf meets, so neither is an oracle
        zs = np.concatenate([np.linspace(-100.0, 100.0, 201), [-0.3, -0.01, 0.01, 0.3]])
        for beta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            p = sv.StableParams(alpha, beta, 1.0, 0.0)
            want = levy_stable.cdf(zs, alpha, beta) if oracle == "levy" else quad_cdf(zs, p)
            assert np.max(np.abs(stable_cdf(zs, p) - want)) <= bound

    def test_alpha_one_consistency(self):
        # Cauchy: closed-form CDF available
        p = sv.StableParams(1.0, 0.0, 2.0, 0.5)
        for x in (-3.0, 0.5, 4.0):
            want = 0.5 + np.arctan((x - 0.5) / 2.0) / np.pi
            assert stable_cdf(x, p) == pytest.approx(want, abs=1e-8)


class TestQuantile:
    def test_roundtrip(self):
        p = sv.StableParams(1.7, 0.3, 0.8, 0.2)
        levels = np.array([0.005, 0.05, 0.25, 0.5, 0.75, 0.95, 0.995])
        qs = stable_quantile(levels, p)
        back = stable_cdf(qs, p)
        assert np.max(np.abs(back - levels)) < 1e-6

    def test_monotone(self):
        p = sv.StableParams(1.6, 0.0, 1.0, 0.0)
        qs = stable_quantile(np.linspace(0.02, 0.98, 25), p)
        assert np.all(np.diff(qs) > 0)

    def test_symmetric_median(self):
        p = sv.StableParams(1.8, 0.0, 1.5, -2.0)
        assert stable_quantile(0.5, p) == pytest.approx(-2.0, abs=1e-9)

    def test_level_validation(self):
        p = sv.StableParams(1.6, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            stable_quantile(0.0, p)
        with pytest.raises(ValidationError):
            stable_quantile(np.array([0.5, 1.0]), p)

    @pytest.mark.parametrize("levels", [np.nan, [0.5, np.nan], [[0.25], [np.nan]]])
    def test_nan_level_is_refused(self, levels):
        with pytest.raises(ValidationError, match=r"strictly inside \(0, 1\)"):
            stable_quantile(levels, sv.StableParams(1.6, 0.0, 1.0, 0.0))


class TestTailRule:
    @pytest.mark.parametrize("alpha", SWITCH_ALPHAS)
    def test_monotone_and_continuous_across_the_switch(self, alpha):
        for beta in ENGINE_BETAS:
            p, edge = sv.StableParams(alpha, beta, 1.0, 0.0), _switch(alpha, beta)
            # steps of edge / 100 from the bulk out to 3 edges, each tail
            side = edge * np.linspace(0.5, 3.0, 251)
            points = np.concatenate([-side[::-1], side])
            assert np.all(np.diff(stable_cdf(points, p)) >= 0.0)
            # the bulk CDF's chirp-z grid hands over at the same switch; its one dip on these
            # points, 4e-18 at alpha 1.05, beta 1, lies at the grid's cap, not at the switch
            assert np.all(np.diff(stable_cdf_bulk(points, p)) >= -1e-16)
            for sign in (-1.0, 1.0):
                across = sign * edge * np.array([1.0 - 1e-13, 1.0 + 1e-13])
                inside, outside = stable_cdf(across, p)
                assert abs(outside - inside) <= 1e-13
                inside, outside = stable_cdf_bulk(across, p)
                assert abs(outside - inside) <= 1e-9  # worst 1.1e-11, at alpha 1.001

    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9, 0.95, 0.99, 0.999,
                                       1.001, 1.01, 1.05, 1.3, 1.6, 1.9, 1.99))
    def test_series_matches_zolotarev(self, alpha):
        for beta in (0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0):
            z = _switch(alpha, beta) * np.array([1.0, 1.5, 3.0])
            zolotarev = stable_dist._zolotarev_cdf(np.concatenate([z, -z]), alpha, beta)
            series = np.concatenate([1.0 - stable_dist._tail_prob(z, alpha, beta),
                                     stable_dist._tail_prob(z, alpha, -beta)])
            assert np.max(np.abs(series - zolotarev)) <= 1e-13

    @pytest.mark.parametrize("alpha", (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1.001, 1.01, 1.05,
                                       1.3, 1.6, 1.9, 1.99, 1.999))
    def test_series_relative_accuracy_on_the_heavy_side(self, alpha):
        # _invert works on logit(F), so the tail's relative error is what counts; P(Z > z)
        # at beta >= 0 is the heavy side, and Zolotarev's form gives it as P(Z < -z) of the
        # mirrored law, with no cancellation; worst measured 5.1e-12 (alpha 0.999, beta 0.9)
        for beta in (0.0, 0.1, 0.5, 0.9, 0.99):
            z = _switch(alpha, beta) * np.array([1.0, 1.5, 3.0])
            zolotarev = stable_dist._zolotarev_cdf(-z, alpha, -beta)
            series = stable_dist._tail_prob(z, alpha, beta)
            assert np.max(np.abs(series / zolotarev - 1.0)) <= 1e-11

    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9, 1.05, 1.6, 1.9))
    def test_tail_quantiles_round_trip(self, alpha):
        levels = np.logspace(-30.0, -8.0, 12)
        for beta in (-1.0, 0.0, 0.5):
            p = sv.StableParams(alpha, beta, 1.0, 0.0)
            qs = stable_quantile(levels, p)
            assert np.all(qs < -_TAIL_Z) and np.all(np.diff(qs) > 0)
            assert np.allclose(stable_cdf(qs, p), levels, rtol=1e-12, atol=0.0)

    def test_switch_moves_out_with_the_skew_near_alpha_one(self):
        # a fixed switch at 45 sat inside this law's bulk: the bulk CDF gave 0
        # at -45.01, where quadrature gives 0.964; now Zolotarev's form serves
        # both points, within the switch (zeta = 64 keeps this law off the grid)
        p = sv.StableParams(1.01, 1.0, 1.0, 0.0)
        z = np.array([-100.0, -45.01])
        assert quad_cdf(z, p)[1] == pytest.approx(0.96416001, abs=1e-8)
        assert np.max(np.abs(stable_cdf_bulk(z, p) - quad_cdf(z, p))) <= 1e-6

    def test_monotone_past_a_fixed_switch_near_alpha_one(self):
        # a fixed switch at 100 gave 0.0043 at -150, where the law, whose mass
        # lies near -637, has almost all of it
        p = sv.StableParams(0.999, -1.0, 1.0, 0.0)
        values = stable_cdf(np.array([-1000.0, -637.0, -150.0, -100.0, -45.0]), p)
        assert np.all(np.diff(values) >= 0.0)
        assert values[2] == pytest.approx(1.0, abs=1e-12)


class TestGridEngine:
    @pytest.mark.parametrize("alpha", ENGINE_ALPHAS)
    def test_grid_is_the_corrected_trapezoid(self, alpha):
        # each row of the law's grid is the dense trapezoid sum on _bulk_grid's nodes plus
        # P(z) / pi, P of _trapezoid_correction, or its first or second z-derivative;
        # worst measured 9.1e-15
        poly = np.polynomial.polynomial
        for beta in ENGINE_BETAS:
            zeta, _, _, h, m, size = stable_dist._law(alpha, beta)
            law = np.array([alpha]), np.array([zeta]), np.array([h])
            f = stable_dist._cdf_grid(*law, m, size)[0]
            z = stable_dist._GRID_DZ * np.arange(-m, m + 1)
            pick = np.linspace(0, z.size - 1, 61).astype(int)
            t, amp, ph, w0 = (v[0] for v in stable_dist._bulk_grid(*law, size - 2 * m - 1))
            b = stable_dist._trapezoid_correction(*law)[0]
            scale = h / (2.0 * np.pi)
            p = np.stack([poly.polyval(scale * z[pick], poly.polyder(b, d)) * scale**d
                          for d in range(3)])
            want = brute_gil_pelaez_cdf(z[pick], t, amp, ph, w0) + p / np.pi
            assert np.max(np.abs(f[:, pick] - want)) <= 1e-12

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_matches_zolotarev(self, alpha):
        # worst measured 1.6e-10 (alpha 1.01, beta 0, zmax 0.5), most of it the
        # quintic Hermite interpolation between the grid's nodes
        for beta in (-1.0, -0.5, 0.0, 0.3, 1.0):
            reach = stable_dist._law(alpha, beta)[2]
            if reach == 0.0:
                continue
            for zmax in (0.5, 2.0, 4.0, 10.0, 36.0, min(90.0, reach)):
                z = np.linspace(-zmax, zmax, 97)
                got = stable_cdf_bulk(z, sv.StableParams(alpha, beta, 1.0, 0.0))
                assert np.max(np.abs(got - stable_dist._zolotarev_cdf(z, alpha, beta))) <= 1e-9

    def test_riemann_zeta_matches_scipy(self):
        x = np.concatenate([1.0 + np.logspace(-9.0, 0.0, 91), np.linspace(2.0, 40.0, 381)])
        want = scipy.special.zeta(x)
        assert np.max(np.abs(stable_dist._riemann_zeta(x) / want - 1.0)) <= 1e-10

    @pytest.mark.parametrize("zmax", (4.0, 10.0, 45.0, 100.0))
    def test_kernel_rows_match_dense_node_sum(self, zmax):
        # all three rows, on the spacing of _cdf_grid and on an arbitrary one, at ~150
        # grid points, with nodes spaced at most 1 / zmax; worst measured 9.3e-14
        for alpha, beta in ((1.05, 1.0), (1.5, 0.3), (1.9, -1.0)):
            zeta, _, _, h, _, _ = stable_dist._law(alpha, beta)
            h = min(h, 1.0 / zmax)
            t, amp, ph, w0 = (v[0] for v in stable_dist._bulk_grid(
                np.array([alpha]), np.array([zeta]), np.array([h]),
                math.ceil(stable_dist._LOG_CUTOFF ** (1.0 / alpha) / h)))
            for dz in (stable_dist._GRID_DZ, 0.0173):
                m = int(zmax / dz) + 2
                z = dz * np.arange(-m, m + 1)
                pick = np.linspace(0, 2 * m, 151).astype(int)
                got = _kernels.gil_pelaez_cdf(z, t, amp, ph, w0)[:, pick]
                want = brute_gil_pelaez_cdf(z[pick], t, amp, ph, w0)
                assert np.max(np.abs(got - want)) <= 2e-13

    def test_fast_len_is_scipys_real_fast_length(self):
        got = [stable_dist._fast_len(n) for n in range(1, 20001)]
        assert got == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 20001)]

    def test_node_count_fills_the_kernels_fft_length(self, monkeypatch):
        # gil_pelaez_cdf takes nodes + 2m + 1 as its FFT length, so _law must pick a node
        # count that makes it fast and that still reaches _LOG_CUTOFF^(1/alpha)
        fft, lengths = np.fft.fft, []

        def record(a, n=None, *args, **kwargs):
            lengths.append(n)
            return fft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", record)
        gridded = 0
        for alpha in ENGINE_ALPHAS:
            for beta in ENGINE_BETAS:
                zeta, _, reach, h, m, size = stable_dist._law(alpha, beta)
                if reach == 0.0:
                    continue
                gridded += 1
                law = np.array([alpha]), np.array([zeta]), np.array([h])
                nodes = stable_dist._bulk_grid(*law, size - 2 * m - 1)[0].shape[-1]
                assert nodes + 2 * m + 1 == size == stable_dist._fast_len(size)
                assert nodes * h >= stable_dist._LOG_CUTOFF ** (1.0 / alpha)
                lengths.clear()
                stable_dist._cdf_grid(*law, m, size)
                assert lengths == [size, size]
        assert gridded == len(ENGINE_ALPHAS) * len(ENGINE_BETAS)

    @pytest.mark.parametrize("alpha", ENGINE_ALPHAS)
    def test_matches_quad(self, alpha):
        for i, beta in enumerate(ENGINE_BETAS):
            p = sv.StableParams(alpha, beta, 1.0, 0.0)
            # the grid spans the law's reach whatever the points: worst measured 1.0e-10
            for z in (_engine_points(alpha, beta, 100 + i)[:12], np.linspace(-10.0, 10.0, 41),
                      np.linspace(-4.0, 4.0, 41)):
                assert np.max(np.abs(stable_cdf_bulk(z, p) - quad_cdf(z, p))) <= 1e-9

    @pytest.mark.parametrize("beta", (-1.0, 1.0))
    def test_full_skew_near_alpha_one_leaves_the_grid(self, beta):
        # |zeta| > 32 (637 at alpha 1.001) outruns the grid's nodes: 3.8e-5 off there;
        # Zolotarev's form serves instead, and up to |zeta| 32 the grid stays within 1e-9
        z = np.linspace(-45.0, 45.0, 181)
        for alpha in (1.001, 1.005, 1.01, 1.02, 1.05):
            got = stable_cdf_bulk(z, sv.StableParams(alpha, beta, 1.0, 0.0))
            zolotarev = stable_dist._zolotarev_cdf(z, alpha, beta)
            if alpha <= 1.01:
                assert np.array_equal(got, zolotarev)
            else:
                assert np.max(np.abs(got - zolotarev)) <= 1e-9

    def test_no_zolotarev_above_alpha_one(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-point engine reached")

        # alpha > 1 stays on the chirp-z grid; stable_dist looks both up at call time
        monkeypatch.setattr(stable_dist, "_zolotarev_cdf", refuse)
        monkeypatch.setattr(stable_dist, "_angle_integral", refuse)
        p = sv.StableParams(1.4, 0.3, 2.0, 1.0)
        stable_cdf_bulk(np.linspace(-200.0, 200.0, 41), p)
        stable_quantile(TAIL_LEVELS, p)


class TestStack:
    # grid shapes (m, FFT length), alpha 2 (t^alpha by its exponent) in a chirp-z pass with
    # other laws, a law whose reach stops short of its switch, and laws without a grid:
    # alpha 0.9, alpha 1 with skew, |zeta| > 32
    LAWS = ((1.6, 0.0), (1.6, 0.3), (1.75, -0.2), (1.3, 0.9), (2.0, 0.4), (2.0, 0.0),
            (1.95, 0.0), (1.05, 1.0), (0.9, 0.2), (1.0, 0.5), (1.01, 1.0))

    def test_rows_keep_their_one_law_bits(self, monkeypatch):
        gridded = [law for law in self.LAWS if stable_dist._law(*law)[2] > 0.0]
        shapes = [stable_dist._law(*law)[4:] for law in gridded]
        assert len(set(shapes)) >= 4 and shapes.count(stable_dist._law(2.0, 0.0)[4:]) == 3
        rng = np.random.default_rng(7)
        far = [-1e4, -150.0, -100.0, -20.0, 20.0, 100.0, 150.0, 1e4]
        z = np.sort(np.column_stack([4.0 * rng.standard_cauchy((len(self.LAWS), 30)),
                                     np.tile(far, (len(self.LAWS), 1))]), axis=1)
        alpha, beta = np.array(self.LAWS).T
        want = np.stack([stable_cdf_bulk(row, sv.StableParams(*law))
                         for row, law in zip(z, self.LAWS)])
        assert np.array_equal(stable_dist._cdf_stack(z, alpha, beta), want)
        # chirp-z passes of one law and point passes of 3 rows keep every row's bits too
        monkeypatch.setattr(stable_dist, "_PASS_VALUES", 3 * z.shape[1])
        assert np.array_equal(stable_dist._cdf_stack(z, alpha, beta), want)


class TestVectorizedQuantile:
    @pytest.mark.parametrize("alpha", ENGINE_ALPHAS + (0.5, 0.9, 1.0))
    def test_roundtrip_and_tail_levels(self, alpha):
        for beta in (-1.0, 0.0, 0.5, 1.0):
            p = sv.StableParams(alpha, beta, 1.0, 0.0)
            qs = stable_quantile(TAIL_LEVELS, p)
            assert np.all(np.isfinite(qs)) and np.all(np.diff(qs) > 0)
            for level, q in zip(TAIL_LEVELS, qs):
                assert stable_quantile(level, p) == q
            back = stable_cdf(qs, p)
            # the grid reaches the switch, but no further than _GRID_CAP
            inner = np.abs(qs) <= min(_switch(alpha, beta), _GRID_CAP)
            assert np.max(np.abs(back[inner] - TAIL_LEVELS[inner])) < 1e-6
            # past the grid the quantile inverts stable_cdf itself
            assert np.allclose(back[~inner], TAIL_LEVELS[~inner], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", (1.05, 1.3, 1.6, 1.9, 2.0))
    def test_grid_quantiles_match_zolotarev_inversion(self, alpha):
        # levels whose quantile lies within the grid's reach, against a root of
        # Zolotarev's form: relative error (absolute within +-1), worst measured
        # 2.8e-10 (alpha 1.6, beta +-1)
        levels = np.array([1e-4, 0.005, 0.05, 0.25, 0.5, 0.75, 0.95, 0.995, 1.0 - 1e-4])
        for beta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            reach = stable_dist._law(alpha, beta)[2]
            qs = stable_quantile(levels, sv.StableParams(alpha, beta, 1.0, 0.0))
            for level, q in zip(levels, qs):
                if abs(q) > reach:
                    continue

                def gap(v, level=level):
                    return stable_dist._zolotarev_cdf(np.array([v]), alpha, beta)[0] - level

                want = brentq(gap, q - 1.0, q + 1.0, xtol=1e-14, rtol=1e-15)
                assert abs(q - want) <= 1e-9 * max(abs(want), 1.0)

    def test_tail_levels_reached(self):
        # alpha <= 1 included: these levels lie past any bracket on the quadrature
        for alpha, level in ((1.05, 1e-4), (0.3, 1e-9), (0.5, 1e-15), (0.9, 1e-30)):
            p = sv.StableParams(alpha, 0.0, 1.0, 0.0)
            levels = np.array([level, 1.0 - 1e-4])
            qs = stable_quantile(levels, p)
            assert qs[0] < -_TAIL_Z and qs[-1] > _TAIL_Z
            # past the grid the quantile inverts stable_cdf itself
            assert np.allclose(stable_cdf(qs, p), levels, rtol=1e-12, atol=0.0)
        # past the grid's reach: inverted on stable_cdf itself
        p = sv.StableParams(1.05, 0.0, 1.0, 0.0)
        qs = stable_quantile(np.array([0.004, 0.996]), p)
        assert np.all(np.abs(qs) > _TAIL_Z)
        assert np.allclose(stable_cdf(qs, p), [0.004, 0.996], rtol=1e-12, atol=0.0)

    def test_levels_once_in_the_tail_switch_jump(self):
        # a leading-term tail past a fixed switch at 100 jumped below Zolotarev's
        # form there (0.001227 against 0.001298 at alpha = 1.05, beta = 0.5, and
        # 0.007987 against 0.008326 at alpha = 0.9, beta = -0.5) and these levels
        # mapped to the switch point; now they invert the one continuous CDF
        for alpha, beta, levels in (
            (1.05, 0.5, [0.0012, 0.00126, 0.00135]),
            (0.9, -0.5, [0.0079, 0.0081, 0.0085]),
        ):
            p = sv.StableParams(alpha, beta, 1.0, 0.0)
            qs = stable_quantile(np.array(levels), p)
            assert np.all(qs < -_TAIL_Z) and np.all(np.diff(qs) > 0)
            assert np.allclose(stable_cdf(qs, p), levels, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha, beta", [(2.0, 0.0), (1.6, 1.0)])
    def test_light_tail_quantiles_stay_in_order(self, alpha, beta):
        # these levels lie below the CDF's accuracy in a light tail, where they have no
        # meaningful quantile; an earlier inversion gave -11.97, -11.41, -11.92 at alpha 2
        qs = stable_quantile(np.logspace(-30.0, -8.0, 12), sv.StableParams(alpha, beta, 1.0, 0.0))
        assert np.all(np.isfinite(qs)) and np.all(np.diff(qs) >= 0.0)

    def test_shape_kept(self):
        p = sv.StableParams(1.6, 0.2, 1.0, 0.0)
        levels = np.array([[0.1, 0.2], [0.7, 0.9]])
        assert stable_quantile(levels, p).shape == (2, 2)
        assert isinstance(stable_quantile(0.3, p), float)

    def test_small_levels_at_alpha_near_zero(self):
        # at alpha 0.1, beta 1 these quantiles lie within 3e-10 of the edge at 0;
        # a node table that stopped at 2^-30 left them 3e-8 off in probability
        p = sv.StableParams(0.1, 1.0, 1.0, 0.0)
        levels = np.logspace(-12, -4, 33)
        assert np.max(np.abs(stable_cdf(stable_quantile(levels, p), p) - levels)) <= 1e-15

    def test_alpha_below_one_fallback(self):
        p = sv.StableParams(0.9, 0.2, 1.0, 0.0)
        levels = np.array([0.2, 0.5, 0.8])
        back = stable_cdf(stable_quantile(levels, p), p)
        assert np.max(np.abs(back - levels)) < 1e-9
