import numpy as np
import pytest

from plumerom import ConfigError, DataError
from plumerom import pod, priors, rom
from conftest import toy_matrix


class TestGammaSolvers:
    def test_mode_mean_example(self):
        g = priors.gamma_from_mode_mean(0.01, 0.5)
        assert g.rate == pytest.approx(1.0 / 0.49, rel=1e-12)
        assert g.shape == pytest.approx(0.5 / 0.49, rel=1e-12)
        assert g.mode == pytest.approx(0.01, rel=1e-12)
        assert g.mean == pytest.approx(0.5, rel=1e-12)

    def test_mode_variance_example(self):
        g = priors.gamma_from_mode_variance(1.0, 1.0)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        assert g.rate == pytest.approx(golden, rel=1e-12)
        assert g.shape == pytest.approx(golden**2, rel=1e-12)
        assert g.mode == pytest.approx(1.0, rel=1e-12)
        assert g.variance == pytest.approx(1.0, rel=1e-12)

    def test_invalid_pairs(self):
        with pytest.raises(ConfigError):
            priors.gamma_from_mode_mean(0.5, 0.5)  # mode must be < mean
        with pytest.raises(ConfigError):
            priors.gamma_from_mode_variance(0.0, 1.0)


class TestNoiseEstimator:
    def test_identical_windows_give_zero(self):
        matrix = toy_matrix(40, 10, seed=0)
        basis = pod.fit(matrix, 5)
        s2 = priors.noise_variances(basis, matrix, matrix)
        assert np.all(s2 == 0.0)

    def test_injected_difference_variance(self):
        # direct simulation oracle: build paired fields whose projected
        # difference is exactly the injected coefficient noise, so the
        # estimator must return var/2 (the 1/2N with N-term sum)
        rng = np.random.default_rng(1)
        matrix = toy_matrix(60, 30, seed=2)
        basis = pod.fit(matrix, 6)
        n_pairs, injected_var = 1000, 0.09
        k_base = rng.standard_normal((6, n_pairs))
        noise = rng.normal(0.0, np.sqrt(injected_var), size=(6, n_pairs))
        full = pod.reconstruct(basis, k_base)
        half = pod.reconstruct(basis, k_base + noise)
        s2 = priors.noise_variances(basis, full, half)
        assert np.allclose(s2, injected_var / 2.0, rtol=0.15)

    def test_unpaired_shapes_rejected(self):
        matrix = toy_matrix(40, 10, seed=3)
        basis = pod.fit(matrix, 4)
        with pytest.raises(DataError):
            priors.noise_variances(basis, matrix, matrix[:, :7])

    def test_single_pair_estimate(self):
        # N = 1 is inside the estimator's definition: (1/2N) sum gives
        # (k - k_50%)**2 / 2 per mode; only an empty set is refused
        matrix = toy_matrix(40, 10, seed=4)
        basis = pod.fit(matrix, 4)
        full = matrix[:, :1]
        half = toy_matrix(40, 10, seed=5)[:, :1]
        diff = pod.project(basis, full) - pod.project(basis, half)
        s2 = priors.noise_variances(basis, full, half)
        assert s2.shape == (4,)
        assert np.allclose(s2, diff[:, 0] ** 2 / 2.0, rtol=1e-12, atol=0.0)
        with pytest.raises(DataError):
            priors.noise_variances(basis, matrix[:, :0], matrix[:, :0])

    def test_surrogate_noise_increases_with_mode(self, dataset200):
        train, calib, _ = rom.split(dataset200)
        basis = pod.fit(train, 40)
        estimate = priors.estimate_noise(basis, calib.matrix(), calib.half_matrix())
        assert np.all(estimate.per_mode >= 0.0)
        assert estimate.fit_exponent > 0.0
        # default surrogate noise is tuned to the reported prefactor's decade
        assert 2.16e-5 <= estimate.fit_prefactor <= 2.16e-3


class TestPowerLawFit:
    def test_exact_recovery(self):
        l = np.arange(1, 61)
        data = 2.16e-4 * l**0.93
        a, b = priors.fit_noise_power_law(data)
        assert a == pytest.approx(2.16e-4, rel=1e-10)
        assert b == pytest.approx(0.93, rel=1e-10)

    def test_constant_data(self):
        a, b = priors.fit_noise_power_law(np.full(10, 0.007))
        assert a == pytest.approx(0.007, rel=1e-10)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_scaling_moves_prefactor_only(self):
        data = 3e-4 * np.arange(1, 31) ** 0.8
        a1, b1 = priors.fit_noise_power_law(data)
        a2, b2 = priors.fit_noise_power_law(10.0 * data)
        assert a2 == pytest.approx(10.0 * a1, rel=1e-10)
        assert b2 == pytest.approx(b1, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            priors.fit_noise_power_law(np.zeros(10))


class TestBuildPriors:
    def test_noise_prior_solves_mode_mean(self):
        ps = priors.build_priors(1, (0.01, 0.93))
        assert ps.noise.mode == pytest.approx(0.01, rel=1e-12)
        assert ps.noise.mean == pytest.approx(0.5, rel=1e-12)

    def test_source_lengthscale_follows_one_over_l(self):
        p1 = priors.build_priors(1, (2.16e-4, 0.93))
        p100 = priors.build_priors(100, (2.16e-4, 0.93))
        assert p1.lengthscales[2].mode == pytest.approx(1.0)
        assert p100.lengthscales[2].mode == pytest.approx(0.01)
        assert p100.lengthscales[3].mode == pytest.approx(0.01)
        # inflow parameters keep a constant unit mode
        assert p1.lengthscales[0].mode == pytest.approx(1.0)
        assert p100.lengthscales[0].mode == pytest.approx(1.0)
        assert p100.lengthscales[1].mode == pytest.approx(1.0)

    def test_signal_prior(self):
        ps = priors.build_priors(3, (2.16e-4, 0.93))
        assert ps.signal.mean == 1.0
        assert ps.signal.variance == 0.03

    def test_start_point_uses_modes_and_signal_mean(self):
        ps = priors.build_priors(4, (1e-3, 0.9))
        start = ps.start_point()
        assert start.noise_var == pytest.approx(ps.noise.mode)
        assert start.signal_var == pytest.approx(1.0)
        assert start.lengthscales[2] == pytest.approx(0.25)

    @pytest.mark.parametrize("l", [1, 2, 5, 20, 50, 100, 150, 200])
    def test_all_shapes_above_one(self, l):
        ps = priors.build_priors(l, (2.16e-4, 0.93))
        assert ps.noise.shape > 1.0
        for g in ps.lengthscales:
            assert g.shape > 1.0
            assert g.mode > 0.0

    def test_noise_mode_capped_below_mean(self):
        # a large prefactor would push the mode past the mean; the cap holds
        ps = priors.build_priors(100, (0.5, 1.0))
        assert ps.noise.mode == pytest.approx(priors.NOISE_MODE_CAP)
        assert ps.noise.mode < ps.noise.mean
        assert np.isfinite(ps.noise.logpdf(ps.noise.mode))

    def test_degenerate_fit_rejected(self):
        with pytest.raises(ConfigError):
            priors.build_priors(1, (float("nan"), float("nan")))
        with pytest.raises(ConfigError):
            priors.build_priors(0, (1e-4, 0.9))


class TestCalibrationMoments:
    def test_calibration_coefficients_near_whitened(self, splits750):
        # held-out calibration coefficients keep roughly whitened moments
        train, calib, _ = splits750
        basis = pod.fit(train, 50)
        coeff = pod.project(basis, calib.matrix())
        assert np.abs(coeff.mean(axis=1)).max() <= 0.3
        assert np.abs(coeff.var(axis=1, ddof=1) - 1.0).max() <= 0.5

    def test_calibration_variance_oscillates_around_one(self, splits750):
        # with more retained modes individual 53-sample variances fluctuate
        # harder, but their average stays pinned near one
        train, calib, _ = splits750
        basis = pod.fit(train, 60)
        coeff = pod.project(basis, calib.matrix())
        assert coeff.var(axis=1, ddof=1).mean() == pytest.approx(1.0, abs=0.1)
