import os
import re
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.linalg import solve_discrete_lyapunov

import stablevar as sv
from helpers import A1, A2, brute_psi, brute_var_recursion, var2_model
from stablevar import _kernels
from stablevar.errors import ValidationError
from stablevar.floc import _floc_moments
from stablevar.seeding import substream
from stablevar.series import _write_csv
from stablevar.var_core import (
    DEFAULT_BURN_IN,
    _simulate_paths,
    companion_matrix,
    psi_count_for_tolerance,
)


def det_polynomial_roots(coeffs):
    """Roots of det(I - A_1 z - ... - A_p z^p) for 2x2 matrices, computed
    from the determinant expansion (independent of the companion form)."""
    r = coeffs[0].shape[0]
    assert r == 2
    entry = {}
    for i in range(2):
        for j in range(2):
            poly = [1.0 if i == j else 0.0] + [-a[i, j] for a in coeffs]
            entry[(i, j)] = np.array(poly)
    det = P.polysub(
        P.polymul(entry[(0, 0)], entry[(1, 1)]), P.polymul(entry[(0, 1)], entry[(1, 0)])
    )
    return np.roots(det[::-1])


def random_causal_model(seed: int, radius: float) -> sv.VarModel:
    """A random VAR(p), r in 1-4 and p in 1-3, at companion spectral radius ``radius``."""
    rng = np.random.default_rng(seed)
    r, p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    coeffs = [rng.normal(size=(r, r)) for _ in range(p)]
    # A_k -> s^k A_k scales every companion eigenvalue by s
    s = radius / np.max(np.abs(np.linalg.eigvals(companion_matrix(coeffs))))
    coeffs = tuple(a * s ** k for k, a in enumerate(coeffs, start=1))
    return sv.VarModel(coeffs=coeffs, noise=sv.SymmetricStableNoiseSpec.iid(r, 1.6))


# companion spectral radius 0.999: 27,618 Psi terms to 1e-12
NEAR_UNIT_ROOT = np.array([[0.999, 0.0], [0.1, 0.5]])


class TestValidation:
    def test_shape_mismatch(self):
        noise = sv.SymmetricStableNoiseSpec.iid(2, 1.6)
        with pytest.raises(ValidationError):
            sv.VarModel(coeffs=(np.zeros((2, 3)),), noise=noise)
        with pytest.raises(ValidationError):
            sv.VarModel(coeffs=(np.zeros((2, 2)), np.zeros((3, 3))), noise=noise)

    def test_noise_dim_mismatch(self):
        with pytest.raises(ValidationError):
            sv.VarModel(coeffs=(np.eye(2) * 0.5,), noise=sv.SymmetricStableNoiseSpec.iid(3, 1.6))

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((), "coefficients must be a sequence of matrices A_1 ... A_p, got none"),
            ((np.eye(2) * 0.5, np.array([[0.1, np.nan], [0.0, 0.1]])),
             re.escape("A_2 of shape (2, 2) must be a finite 2x2 matrix")),
        ],
    )
    def test_missing_or_non_finite_coeffs(self, coeffs, message):
        with pytest.raises(ValidationError, match=message):
            sv.VarModel(coeffs=coeffs, noise=sv.SymmetricStableNoiseSpec.iid(2, 1.6))


COEFF_ENTRIES = {
    "is_causal": sv.is_causal,
    "residuals": lambda coeffs: sv.residuals(sv.SeriesMatrix(np.ones((10, 2))), coeffs),
    "VarModel": lambda coeffs: sv.VarModel(coeffs, sv.SymmetricStableNoiseSpec.iid(2, 1.6)),
}


class TestCoefficientCheck:
    @pytest.mark.parametrize("entry", list(COEFF_ENTRIES))
    @pytest.mark.parametrize(
        "coeffs, message",
        [
            # a bare matrix once read as rows A_1 = (0.5, 0), A_2 = (0, 0.5): "radius 1.0"
            (np.eye(2) * 0.5, "sequence of matrices A_1 ... A_p, got A_1 of shape (2,)"),
            ([], "sequence of matrices A_1 ... A_p, got none"),
            ([np.eye(2) * 0.5, np.eye(3) * 0.1], "A_2 of shape (3, 3) must be a finite 2x2 matrix"),
            ([np.zeros((2, 3))], "A_1 of shape (2, 3) must be a finite 2x2 matrix"),
            ([np.full((2, 2), np.nan)], "A_1 of shape (2, 2) must be a finite 2x2 matrix"),
        ],
        ids=["bare", "empty", "mismatched", "non-square", "nan"],
    )
    def test_one_check_at_every_entry(self, entry, coeffs, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            COEFF_ENTRIES[entry](coeffs)


class TestCoefficientLayout:
    @pytest.mark.parametrize("wrap", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_one_read_only_stack(self, wrap):
        a1, a2 = A1.copy(), A2.copy()
        model = sv.VarModel(coeffs=wrap([a1, a2]), noise=sv.SymmetricStableNoiseSpec.iid(2, 1.6))
        assert isinstance(model.coeffs, np.ndarray) and model.coeffs.dtype == float
        assert model.coeffs.shape == (2, 2, 2) and (model.order, model.dim) == (2, 2)
        assert np.array_equal(model.coeffs[0], A1) and np.array_equal(model.coeffs[1], A2)
        with pytest.raises(ValueError, match="read-only"):
            model.coeffs[0, 0, 0] = 0.5
        a1[0, 0] = 0.5  # the model holds its own copy
        assert model.coeffs[0, 0, 0] == A1[0, 0]


class TestCausality:
    def test_diagonal_var1(self):
        model = sv.VarModel(coeffs=(0.5 * np.eye(2),), noise=sv.SymmetricStableNoiseSpec.iid(2, 1.6))
        res = sv.is_causal(model.coeffs)
        assert res.causal and res.spectral_radius == pytest.approx(0.5, abs=1e-12)

    def test_unit_root(self):
        res = sv.is_causal((np.eye(2),))
        assert not res.causal and res.spectral_radius == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValidationError, match="model is not causal"):
            sv.VarModel(coeffs=(np.eye(2),), noise=sv.SymmetricStableNoiseSpec.iid(2, 1.6))

    def test_var2_model_against_det_roots(self):
        model = var2_model(1.6)
        res = sv.is_causal(model.coeffs)
        roots = det_polynomial_roots(model.coeffs)
        assert res.causal
        assert np.min(np.abs(roots)) > 1.0
        # companion spectral radius equals 1 / closest determinant root
        assert res.spectral_radius == pytest.approx(1.0 / np.min(np.abs(roots)), abs=1e-10)

    def test_similarity_invariance(self):
        comp = companion_matrix(var2_model(1.6).coeffs)
        rng = np.random.default_rng(4)
        s = rng.normal(size=comp.shape) + 1e-1 * np.eye(comp.shape[0])
        transformed = np.linalg.solve(s, comp @ s)
        r1 = np.max(np.abs(np.linalg.eigvals(comp)))
        r2 = np.max(np.abs(np.linalg.eigvals(transformed)))
        assert abs(r1 - r2) < 1e-10


class TestPsi:
    def test_psi0_identity(self):
        psi = sv.psi_matrices(var2_model(1.6), 0)
        assert np.array_equal(psi[0], np.eye(2))

    def test_one_array_of_count_plus_one_matrices(self):
        model = random_causal_model(3, 0.5)
        psi = sv.psi_matrices(model, 7)
        assert type(psi) is np.ndarray and psi.shape == (8, model.dim, model.dim)

    def test_var1_powers(self):
        a = np.array([[0.5, 0.2], [0.1, 0.4]])
        model = sv.VarModel(coeffs=(a,), noise=sv.SymmetricStableNoiseSpec.iid(2, 1.6))
        psi = sv.psi_matrices(model, 5)
        for j in range(6):
            assert np.allclose(psi[j], np.linalg.matrix_power(a, j), atol=1e-14)

    def test_var2_expansion(self):
        # by hand: Psi_1 = A_1, Psi_2 = A_1^2 + A_2, Psi_3 = A_1^3 + A_1 A_2 + A_2 A_1
        psi = sv.psi_matrices(var2_model(1.6), 3)
        assert np.allclose(psi[1], A1, atol=1e-14)
        assert np.allclose(psi[2], A1 @ A1 + A2, atol=1e-14)
        assert np.allclose(psi[3], A1 @ A1 @ A1 + A1 @ A2 + A2 @ A1, atol=1e-14)

    def test_geometric_decay_and_count_helper(self):
        model = var2_model(1.6)
        count = psi_count_for_tolerance(model)
        psi = sv.psi_matrices(model, count)
        assert np.max(np.abs(psi[count])) < 1e-12
        assert np.max(np.abs(psi[count // 2])) > np.max(np.abs(psi[count]))

    def test_rejects_noncausal(self):
        # a unit root has no decaying Psi; the model that would carry it is never made
        message = "model is not causal: companion spectral radius 1.000000 >= 1"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sv.VarModel(coeffs=(np.eye(2),), noise=sv.SymmetricStableNoiseSpec.iid(2, 1.6))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_convolution_oracle(self, seed):
        model = random_causal_model(seed, 0.2 + 0.1 * seed)
        want = np.array(brute_psi(model, 300))
        got = np.array(sv.psi_matrices(model, 300))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "model",
        [var2_model(1.6), sv.VarModel((NEAR_UNIT_ROOT,), sv.SymmetricStableNoiseSpec.iid(2, 1.6))]
        + [random_causal_model(seed, radius) for seed, radius in enumerate((0.5, 0.9, 0.99))],
    )
    def test_count_is_the_first_oracle_term_below_tol(self, model):
        count = psi_count_for_tolerance(model)
        peaks = [np.max(np.abs(psi)) for psi in brute_psi(model, count)]
        assert peaks[count] < 1e-12 <= min(peaks[1:count], default=1.0)


class TestSimulate:
    def test_zero_coeffs_reproduce_noise_exactly(self):
        noise_spec = sv.SymmetricStableNoiseSpec.iid(2, 1.6)
        model = sv.VarModel(coeffs=(np.zeros((2, 2)),), noise=noise_spec)
        path = sv.simulate(model, 100, burn_in=0, rng_seed=12)
        direct = sv.sample_noise_matrix(noise_spec, 100, 12)
        assert np.array_equal(path.values, direct.values)

    def test_fixed_seed_identical(self):
        model = var2_model(1.6)
        a = sv.simulate(model, 200, 500, 3)
        b = sv.simulate(model, 200, 500, 3)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("a", [1.2, 1.0 - 1e-9])  # past 1, and inside the causality margin
    def test_rejects_noncausal(self, a):
        # refused where the model is made, so simulate never sees it, with or without burn_in
        message = f"model is not causal: companion spectral radius {a:.6f} >= 1"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sv.VarModel(coeffs=(np.array([[a]]),), noise=sv.SymmetricStableNoiseSpec.iid(1, 1.6))

    # a seed is an int or a Generator; a SeedSequence is refused like any other object
    @pytest.mark.parametrize("seed", [1.5, -1, True, np.random.SeedSequence(3)])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            sv.simulate(var2_model(1.6), 50, 10, seed)

    @pytest.mark.parametrize(
        "n, burn_in, message",
        [
            (200.0, 10, "n must be an integer >= 1, got 200.0"),
            (True, 10, "n must be an integer >= 1, got True"),
            (0, 10, "n must be an integer >= 1, got 0"),
            (50, 10.5, "burn_in must be a non-negative integer, got 10.5"),
            (50, -1, "burn_in must be a non-negative integer, got -1"),
        ],
    )
    def test_rejects_sizes_that_are_not_integers(self, n, burn_in, message):
        with pytest.raises(ValidationError, match=message):
            sv.simulate(var2_model(1.6), n, burn_in, 0)

    def test_default_burn_in_is_500_for_a_fast_decaying_model(self):
        model = var2_model(1.6)
        assert psi_count_for_tolerance(model) < DEFAULT_BURN_IN
        assert np.array_equal(
            sv.simulate(model, 80, rng_seed=4).values, sv.simulate(model, 80, 500, 4).values
        )

    def test_default_burn_in_clears_near_unit_root_transient(self):
        # radius 0.999: a fixed 500-row burn-in left 0.999^500 ~ 0.61 of the zero start
        model = sv.VarModel(coeffs=(NEAR_UNIT_ROOT,), noise=sv.SymmetricStableNoiseSpec.iid(2, 2.0))
        tol, n = 1e-12, 200
        burn_in = psi_count_for_tolerance(model)
        assert burn_in > DEFAULT_BURN_IN
        path = sv.simulate(model, n, rng_seed=3).values
        noise = sv.sample_noise_matrix(model.noise, burn_in + n, 3).values
        coeffs = model.coeffs
        assert np.array_equal(path, _kernels.var_recursion(coeffs, noise)[burn_in:])
        # the same noise after a 3,000-row history instead of a zero start
        history = sv.sample_noise_matrix(model.noise, 3000, 4).values
        started = _kernels.var_recursion(coeffs, np.concatenate([history, noise]))
        state = started[history.shape[0] - 1]
        transient = started[history.shape[0] + burn_in :] - path
        # row t carries A^(burn_in + t + 1) of the start state; ||A^j||_inf <= r max|Psi_j|
        assert np.max(np.abs(state)) > 1.0
        assert np.max(np.abs(transient)) < model.dim * tol * np.max(np.abs(state))

    def test_default_burn_in_past_the_psi_cap_is_refused(self):
        a = np.array([[0.99999]])
        model = sv.VarModel(coeffs=(a,), noise=sv.SymmetricStableNoiseSpec.iid(1, 1.6))
        with pytest.raises(ValidationError, match="no default burn-in: Psi entries"):
            sv.simulate(model, 10, rng_seed=0)
        assert sv.simulate(model, 10, 0, 0).n == 10

    def test_moving_average_reconstruction(self):
        model = var2_model(1.6)
        n = 300
        count = psi_count_for_tolerance(model)
        psi = sv.psi_matrices(model, count)
        noise = sv.sample_noise_matrix(model.noise, n, 77).values
        rebuilt = np.zeros_like(noise)
        for t in range(n):
            for j in range(min(t, count) + 1):
                rebuilt[t] += psi[j] @ noise[t - j]
        path = sv.simulate(model, n, burn_in=0, rng_seed=77)
        assert np.max(np.abs(path.values - rebuilt)) < 1e-6

    def test_gaussian_lag0_covariance_matches_lyapunov(self):
        a = np.array([[0.5, 0.2], [0.1, 0.3]])
        model = sv.VarModel(coeffs=(a,), noise=sv.SymmetricStableNoiseSpec.iid(2, 2.0))
        target = solve_discrete_lyapunov(a, 2.0 * np.eye(2))
        x = sv.simulate(model, 10**5, 500, 31).values
        x = x - x.mean(axis=0)
        sample = x.T @ x / x.shape[0]
        assert np.max(np.abs(sample - target)) / np.max(np.abs(target)) < 0.10

    def test_gaussian_moment_relation(self):
        # lagged moment matrices of a long path satisfy
        # Gamma_1 = A_1 Gamma_0 + A_2 Gamma_-1 up to sampling error
        model = var2_model(2.0)
        series = sv.mean_correct(sv.simulate(model, 10**4, 500, 8))
        b = 1.0
        g = dict(zip((-1, 0, 1), _floc_moments(series.values, series.values, (-1, 0, 1), b)))
        gap = g[1] - (A1 @ g[0] + A2 @ g[-1])
        assert np.max(np.abs(gap)) < 0.05


class TestBatchedRecursion:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("reps", [1, 3])
    def test_matches_loop_oracle(self, p, r, reps):
        rng = np.random.default_rng(100 * p + 10 * r + reps)
        coeffs = rng.uniform(-0.4, 0.4, (p, r, r)) / p
        for m in (1, p, p + 1, 60):  # m <= p: no step sees a full window
            noise = rng.standard_cauchy((reps, m, r))
            path = _kernels.var_recursion(coeffs, noise)
            assert path.shape == noise.shape
            for i in range(reps):
                oracle = brute_var_recursion(coeffs, noise[i])
                assert np.max(np.abs(path[i] - oracle)) <= 1e-12 * np.max(np.abs(oracle))
                # a stack gives each series the bits it gets alone
                assert np.array_equal(path[i], _kernels.var_recursion(coeffs, noise[i]))

    @pytest.mark.parametrize(
        "p, r, reps", [(1, 1, 4), (2, 3, 4), (3, 2, 4), (3, 3, 100)], ids=["1-1", "2-3", "3-2", "3-3"]
    )
    def test_block_boundaries(self, p, r, reps):
        rng = np.random.default_rng(10 * p + r)
        coeffs = rng.uniform(-0.4, 0.4, (p, r, r)) / p
        size = _kernels._BLOCK
        # m <= p, m < L, exactly L, one past L, several blocks with a partial last one
        for m in (1, p, size // 2, size, size + 1, 3 * size + 5):
            noise = rng.standard_cauchy((reps, m, r))
            path = _kernels.var_recursion(coeffs, noise)
            for i in range(reps):
                oracle = brute_var_recursion(coeffs, noise[i])
                assert np.max(np.abs(path[i] - oracle)) <= 1e-12 * np.max(np.abs(oracle))
                assert np.array_equal(path[i], _kernels.var_recursion(coeffs, noise[i]))
            assert np.array_equal(path[1:3], _kernels.var_recursion(coeffs, noise[1:3]))

    def test_near_unit_root_long_path(self):
        # companion eigenvalues 0.9994, 0.5 (first component) and 0.5, -0.2 (second)
        a1 = np.array([[1.4994, 0.2], [0.0, 0.3]])
        a2 = np.array([[-0.4997, 0.0], [0.0, 0.1]])
        radius = np.max(np.abs(np.linalg.eigvals(companion_matrix([a1, a2]))))
        assert abs(radius - 0.9994) < 1e-9
        coeffs = np.stack([a1, a2])
        noise = np.random.default_rng(7).standard_cauchy((40_000, 2))
        path = _kernels.var_recursion(coeffs, noise)
        oracle = brute_var_recursion(coeffs, noise)
        assert np.max(np.abs(path - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_replication_path_equals_simulate(self):
        model = var2_model(1.6)
        paths = _simulate_paths(model, 120, 40, [substream(5, i) for i in range(4)])
        assert paths.shape == (4, 120, 2)
        for i, path in enumerate(paths):
            alone = sv.simulate(model, 120, 40, substream(5, i))
            assert np.array_equal(path, alone.values)


class TestMeanCorrect:
    def test_constant_column(self):
        s = sv.SeriesMatrix(np.full((5, 1), 3.7))
        assert np.allclose(sv.mean_correct(s).values, 0.0, atol=1e-15)

    def test_hand_example(self):
        s = sv.SeriesMatrix(np.array([[1.0, 4.0], [3.0, 8.0]]))
        assert np.array_equal(sv.mean_correct(s).values, np.array([[-1.0, -2.0], [1.0, 2.0]]))

    def test_zero_mean_unchanged(self):
        v = np.array([[1.0, -2.0], [-1.0, 2.0]])
        assert np.allclose(sv.mean_correct(sv.SeriesMatrix(v)).values, v, atol=1e-15)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            sv.mean_correct(sv.SeriesMatrix(np.ones((1, 2))))


class TestSeriesCsv:
    def test_roundtrip_exact(self, tmp_path):
        series = sv.simulate(var2_model(1.6), 50, 0, 99)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        back = sv.SeriesMatrix.from_csv(path)
        assert np.array_equal(series.values, back.values)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2"

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            sv.SeriesMatrix.from_csv(p)
        p.write_text("t,x1\n1,2\n2\n")
        with pytest.raises(ValidationError):
            sv.SeriesMatrix.from_csv(p)
        p.write_text("t,x1\n")
        with pytest.raises(ValidationError):
            sv.SeriesMatrix.from_csv(p)
        # t must read 1..n in order and column names must be distinct
        for text, line in [
            ("t,x1\n2,1.0\n1,2.0\n", 2),  # shuffled
            ("t,x1\n1,1.0\n2,2.0\n2,3.0\n", 4),  # repeated
            ("t,x1\n1,1.0\n2.0,2.0\n", 3),  # non-integer
            ("t,x1,x2\nabc,1.0,2.0\n", 2),  # not a number
            ("t,x1,x1\n1,1.0,2.0\n", 1),  # repeated column name
            ("t,x1\n1,2.0\n\n3\n", 4),  # short row after a blank line
        ]:
            p.write_text(text)
            with pytest.raises(ValidationError, match=re.escape(f"{p}:{line}:")):
                sv.SeriesMatrix.from_csv(p)

    def test_fast_path_reads_to_csv_bits(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_cauchy((300, 3)) * 10.0 ** rng.integers(-300, 300, (300, 3))
        values[:4, 0] = [5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308]
        path = tmp_path / "series.csv"
        sv.SeriesMatrix(values).to_csv(path)
        back = sv.SeriesMatrix.from_csv(path).values
        assert back.flags.c_contiguous
        assert np.array_equal(back.view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("t,x1\n1,1.5\n 2 ,2.5\n", [1.5, 2.5]),
            ("t,x1\n1,1.5\n+2,2.5\n", ":3: expected t = 2, got '+2'"),
            ("t,x1\n1,1.5\n02,2.5\n", ":3: expected t = 2, got '02'"),
            ("t,x1\n+1,1.5\n", ":2: expected t = 1, got '+1'"),
            # value text: np.loadtxt's reading, which Python's float widens
            ("t,x1\n1,1_0\n2,2.5\n", ":2: could not convert string to float: '1_0'"),
            ("t,x1\n1,2\xa0\n", [2.0]),
            ("t,x1\n1, 2\n", [2.0]),
            ("t,x1\n1,\u0661\n", ":2: could not convert string to float: '\u0661'"),
            ("t,x1\n1,\uff11\n", ":2: could not convert string to float: '\uff11'"),
            ("t,x1\n1,2\u200b\n", ":2: could not convert string to float: '2\\u200b'"),
            ("t,x1\n1,\u00bd\n", ":2: could not convert string to float: '\u00bd'"),
            ("t,x1\r\n1,1.5\r\n2,2.5\r\n", [1.5, 2.5]),
            ("t,x1\n1,1.5\n\n2,2.5\n\n", [1.5, 2.5]),
            ("t,x1\n1,1.5\n \t \n2,2.5\n", [1.5, 2.5]),
            ("t,x1\n\n1,1.5\n", [1.5]),
            ("t,x1\n1, 1.5 \n", [1.5]),
            ("t,x1\n1,1.5\n# 2,2.5\n", ":3: expected t = 2, got '# 2'"),
            ("t,x1\n1,\n", ":2: could not convert string to float: ''"),
            ("t,x1\n1,1.5,\n", ":2: expected 2 fields, got 3"),
            ("t,x1\n1,1e999\n", "series contains non-finite entries"),
            ("", ": empty file"),
        ],
    )
    @pytest.mark.parametrize("line_reader_only", [False, True])
    def test_fast_path_gives_the_line_readers_answer(
        self, tmp_path, monkeypatch, text, expected, line_reader_only
    ):
        if line_reader_only:
            monkeypatch.setattr("stablevar.series._canonical_values", lambda fh, dim: None)
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            message = re.escape(f"{path}{expected}" if expected.startswith(":") else expected)
            with pytest.raises(ValidationError, match=message):
                sv.SeriesMatrix.from_csv(path)
        else:
            back = sv.SeriesMatrix.from_csv(path).values
            assert np.array_equal(back, np.array(expected)[:, None])

    # in the header, and in a data row far past it, which the fast path hands to the line reader
    @pytest.mark.parametrize("at", [0, 60_000])
    def test_undecodable_byte_names_the_file(self, tmp_path, at):
        path = tmp_path / "series.csv"
        sv.SeriesMatrix(np.random.default_rng(6).standard_normal((2000, 2))).to_csv(path)
        text = path.read_bytes()
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not utf-8 text")):
            sv.SeriesMatrix.from_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # the mark once stuck to the header: "expected header 't,x1,...,xr', got '\ufefft,x1,x2'"
        path = tmp_path / "series.csv"
        series = sv.SeriesMatrix(np.random.default_rng(6).standard_normal((50, 2)))
        series.to_csv(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert np.array_equal(sv.SeriesMatrix.from_csv(path).values, series.values)

    def test_header_only_raises_without_warning(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,x1,x2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(f"{path}: no data rows")):
                sv.SeriesMatrix.from_csv(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_non_seekable_input_is_read_line_by_line(self, tmp_path):
        # a pipe cannot rewind, so the reader skips the loadtxt pass and reads lines only
        def read_through_fifo(text):
            path = tmp_path / "series.fifo"
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
            writer.start()
            try:
                return sv.SeriesMatrix.from_csv(path).values
            finally:
                writer.join(timeout=10)
                path.unlink()

        regular = tmp_path / "series.csv"
        sv.SeriesMatrix(np.random.default_rng(7).standard_normal((50, 2))).to_csv(regular)
        piped = read_through_fifo(regular.read_text())
        assert np.array_equal(piped, sv.SeriesMatrix.from_csv(regular).values)
        with pytest.raises(ValidationError) as info:
            read_through_fifo("t,x1\n1,1.5\n3,2.5\n")
        assert str(info.value) == f"{tmp_path / 'series.fifo'}:3: expected t = 2, got '3'"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            sv.SeriesMatrix(np.array([[1.0], [np.inf]]))

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.ones(3), "series must be 2-D, got shape (3,)"),
            (np.ones((0, 2)), "series must be non-empty, got shape (0, 2)"),
        ],
    )
    def test_shape_rejected(self, values, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            sv.SeriesMatrix(values)

    def test_write_csv_value_text(self, tmp_path):
        # every writer's value rule: str, the shortest round-trip text of a float
        path = tmp_path / "row.csv"
        _write_csv(path, "a,b,c,d,e", [(0.1, np.float64(1) / 3, 7, np.int64(-2), "floc")], "# x\n")
        assert path.read_text() == "# x\na,b,c,d,e\n0.1,0.3333333333333333,7,-2,floc\n"
