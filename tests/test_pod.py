import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumerom import ConfigError, DataError
from plumerom import pod, rom
from conftest import toy_matrix


class TestCenterScale:
    def test_identical_snapshots_vanish(self):
        matrix = np.tile(np.arange(5.0)[:, None], (1, 4))
        _, scaled = pod.center_scale(matrix)
        assert np.all(scaled == 0.0)

    def test_column_sums_zero(self):
        _, scaled = pod.center_scale(toy_matrix(40, 9, seed=3))
        assert np.abs(scaled.sum(axis=1)).max() < 1e-10

    def test_inverse_affine_recovers(self):
        matrix = toy_matrix(25, 6, seed=4)
        mean, scaled = pod.center_scale(matrix)
        recovered = scaled * np.sqrt(matrix.shape[1] - 1) + mean[:, None]
        assert np.allclose(recovered, matrix, rtol=1e-12, atol=1e-12)

    def test_needs_two_snapshots(self):
        with pytest.raises(DataError):
            pod.center_scale(np.ones((5, 1)))


class TestFit:
    def test_matches_dense_eigendecomposition(self):
        matrix = toy_matrix(30, 8, seed=0)
        basis = pod.fit(matrix, 7)
        _, scaled = pod.center_scale(matrix)
        # brute-force oracle: dense eigendecomposition of the covariance
        eigvals, eigvecs = np.linalg.eigh(scaled @ scaled.T)
        eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
        assert np.allclose(basis.eigenvalues, eigvals[:7], rtol=1e-8, atol=1e-12)
        for l in range(7):
            overlap = abs(float(eigvecs[:, l] @ basis.modes[:, l]))
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_eigen_equation_residual(self):
        matrix = toy_matrix(30, 8, seed=1)
        basis = pod.fit(matrix, 5)
        _, scaled = pod.center_scale(matrix)
        cov = scaled @ scaled.T
        for l in range(5):
            residual = cov @ basis.modes[:, l] - basis.eigenvalues[l] * basis.modes[:, l]
            assert np.linalg.norm(residual) <= 1e-6 * basis.eigenvalues[l]

    def test_rank_one_ensemble(self):
        matrix = toy_matrix(30, 8, seed=2, rank=1)
        basis = pod.fit(matrix, 1)
        assert basis.spectrum.size >= 1
        full = np.linalg.svd(pod.center_scale(matrix)[1], compute_uv=False) ** 2
        assert full[1] / full[0] <= 1e-10

    def test_sign_canonicalization_bitwise(self):
        matrix = toy_matrix(30, 8, seed=5)
        a = pod.fit(matrix, 6)
        b = pod.fit(matrix, 6)
        assert np.array_equal(a.modes, b.modes)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        lead = np.abs(a.modes).argmax(axis=0)
        assert np.all(a.modes[lead, np.arange(6)] > 0)

    def test_orthonormal(self):
        basis = pod.fit(toy_matrix(50, 12, seed=6), 11)
        gram = basis.modes.T @ basis.modes
        assert np.abs(gram - np.eye(11)).max() <= 1e-8

    def test_full_rank_explains_everything(self):
        basis = pod.fit(toy_matrix(30, 8, seed=7), 7)
        assert pod.cumulative_variance(basis)[-1] == pytest.approx(1.0, abs=1e-10)

    def test_l_out_of_range(self):
        matrix = toy_matrix(30, 8)
        with pytest.raises(ConfigError):
            pod.fit(matrix, 8)  # max is n-1
        with pytest.raises(ConfigError):
            pod.fit(matrix, 0)

    @staticmethod
    def assert_matches_svd(matrix, L, rtol=1e-10):
        # brute-force oracle: thin SVD of the centered, scaled matrix
        basis = pod.fit(matrix, L)
        u, s, _ = np.linalg.svd(pod.center_scale(matrix)[1], full_matrices=False)
        assert np.allclose(basis.eigenvalues, s[:L] ** 2, rtol=rtol, atol=0.0)
        overlaps = np.abs(np.einsum("il,il->l", u[:, :L], basis.modes))
        assert np.abs(overlaps - 1.0).max() <= rtol
        rank = min(matrix.shape[0], matrix.shape[1] - 1)
        assert basis.total_variance == pytest.approx(float(np.sum(s[:rank] ** 2)),
                                                     rel=rtol)
        return basis

    def test_decaying_spectrum_matches_svd(self):
        # weights 0.5^k: squaring into the Gram matrix loses the most here
        rng = np.random.default_rng(8)
        weights = 0.5 ** np.arange(20)
        matrix = (rng.standard_normal((200, 20)) * weights) @ rng.standard_normal((20, 40))
        self.assert_matches_svd(matrix, 5)

    def test_wide_matrix_matches_svd(self):
        # fewer nodes than snapshots: the spectrum stops at n_nodes
        basis = self.assert_matches_svd(toy_matrix(6, 20, seed=22), 6)
        assert basis.spectrum.size == 6
        with pytest.raises(ConfigError):
            pod.fit(toy_matrix(6, 20, seed=22), 7)

    def test_reference_training_split_matches_svd(self, dataset200):
        train, _, _ = rom.split(dataset200)
        self.assert_matches_svd(train.matrix(), 100)


class TestProjectReconstruct:
    def test_mean_projects_to_zero(self):
        basis = pod.fit(toy_matrix(30, 8, seed=9), 5)
        assert np.abs(pod.project(basis, basis.mean_field)).max() <= 1e-10

    def test_project_reconstruct_identity_on_coefficients(self):
        basis = pod.fit(toy_matrix(30, 8, seed=10), 5)
        k = np.array([0.3, -1.2, 0.5, 2.0, -0.7])
        back = pod.project(basis, pod.reconstruct(basis, k))
        assert np.allclose(back, k, atol=1e-8)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        L=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=1, max_value=4),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_project_after_reconstruct_is_identity(self, seed, L, m, scale):
        # the modes are orthonormal, so projecting a reconstruction returns
        # its coefficients, for any basis, truncation and coefficient stack
        basis = pod.fit(toy_matrix(30, 8, seed=seed), L)
        coeff = scale * np.random.default_rng(seed).standard_normal((L, m))
        back = pod.project(basis, pod.reconstruct(basis, coeff))
        assert back.shape == (L, m)
        assert np.allclose(back, coeff, rtol=1e-9, atol=1e-9 * scale)

    def test_zero_coefficients_give_mean(self):
        basis = pod.fit(toy_matrix(30, 8, seed=11), 4)
        assert np.allclose(pod.reconstruct(basis, np.zeros(4)), basis.mean_field)

    def test_whitening_moments_on_training_stack(self):
        matrix = toy_matrix(60, 20, seed=12)
        basis = pod.fit(matrix, 10)
        coeff = pod.project(basis, matrix)
        assert np.abs(coeff.mean(axis=1)).max() <= 1e-8
        assert np.abs(coeff.var(axis=1, ddof=1) - 1.0).max() <= 1e-6

    def test_full_rank_training_reconstruction(self):
        matrix = toy_matrix(30, 8, seed=13)
        basis = pod.fit(matrix, 7)
        rebuilt = pod.reconstruct(basis, pod.project(basis, matrix))
        rel = np.linalg.norm(rebuilt - matrix) / np.linalg.norm(matrix)
        assert rel <= 1e-8

    def test_truncation_error_matches_unexplained_variance(self):
        # brute force from the full eigenspectrum: the ensemble-total squared
        # reconstruction error at truncation L is the unexplained variance
        matrix = toy_matrix(40, 12, seed=14)
        L = 4
        basis = pod.fit(matrix, L)
        rebuilt = pod.reconstruct(basis, pod.project(basis, matrix))
        _, scaled = pod.center_scale(matrix)
        num = np.sum((rebuilt - matrix) ** 2)
        den = np.sum((matrix - matrix.mean(axis=1, keepdims=True)) ** 2)
        q2 = pod.cumulative_variance(basis)[L - 1]
        assert num / den == pytest.approx(1.0 - q2, abs=1e-8)

    def test_grid_mismatch(self):
        basis = pod.fit(toy_matrix(30, 8, seed=15), 3)
        with pytest.raises(DataError):
            pod.project(basis, np.zeros(29))
        with pytest.raises(DataError):
            pod.reconstruct(basis, np.zeros(5))


class TestTruncationRules:
    def test_cumulative_variance_uniform_spectrum(self):
        q2 = pod.cumulative_variance(np.full(5, 3.0))
        assert np.allclose(q2, np.arange(1, 6) / 5.0)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_cumulative_variance_monotone(self, values):
        spectrum = np.sort(np.array(values))[::-1]
        q2 = pod.cumulative_variance(spectrum)
        assert np.all(np.diff(q2) >= -1e-15)
        assert q2[-1] == pytest.approx(1.0)


class TestCorrelationMap:
    def test_rank_one_unit_correlation(self):
        matrix = toy_matrix(30, 8, seed=16, rank=1)
        matrix += 1e-9 * toy_matrix(30, 8, seed=17)  # avoid exact degeneracy
        basis = pod.fit(matrix, 1)
        corr = pod.correlation_map(basis, 1)
        defined = ~np.isnan(corr)
        assert np.allclose(np.abs(corr[defined]), 1.0, atol=1e-3)

    def test_full_spectrum_correlations_sum_to_one(self):
        matrix = toy_matrix(20, 9, seed=18)
        basis = pod.fit(matrix, 8)
        total = np.zeros(20)
        for l in range(1, 9):
            total += pod.correlation_map(basis, l) ** 2
        assert np.allclose(total, 1.0, atol=1e-8)

    def test_zero_variance_node_marked_undefined(self):
        matrix = toy_matrix(15, 6, seed=19)
        matrix[4, :] = 2.5  # constant node: no ensemble variance
        basis = pod.fit(matrix, 3)
        corr = pod.correlation_map(basis, 1)
        assert np.isnan(corr[4])
        assert not np.isnan(np.delete(corr, 4)).any()

    def test_mode_index_validated(self):
        basis = pod.fit(toy_matrix(15, 6, seed=20), 3)
        with pytest.raises(ConfigError):
            pod.correlation_map(basis, 4)

    def test_first_mode_streamwise_elongated(self, dataset80_small):
        # the leading-mode correlation structures stretch along x: their
        # autocorrelation length along x exceeds 2 obstacle heights
        basis = pod.fit(dataset80_small, 10)
        grid = dataset80_small.grid
        corr = pod.correlation_map(basis, 1)
        field = np.nan_to_num(corr).reshape(grid.nz, grid.nx)
        dx = (grid.x_range[1] - grid.x_range[0]) / (grid.nx - 1)
        dz = (grid.z_range[1] - grid.z_range[0]) / (grid.nz - 1)

        def corr_length(arr, axis, step):
            a = arr - arr.mean()
            var = np.sum(a * a)
            lag = 0
            while True:
                lag += 1
                shifted = np.roll(a, lag, axis=axis)
                if axis == 1:
                    ac = np.sum(a[:, lag:] * shifted[:, lag:]) / var
                else:
                    ac = np.sum(a[lag:, :] * shifted[lag:, :]) / var
                if ac < 0.5 or lag > arr.shape[axis] - 2:
                    return lag * step

        lx = corr_length(field, axis=1, step=dx)
        lz = corr_length(field, axis=0, step=dz)
        assert lx > 2.0  # horizontally elongated beyond 2H
        assert lx > lz


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, dataset80_small):
        basis = pod.fit(dataset80_small, 6)
        basis.save(tmp_path / "basis")
        loaded = pod.ReducedBasis.load(tmp_path / "basis")
        assert np.array_equal(loaded.modes, basis.modes)
        assert np.array_equal(loaded.mean_field, basis.mean_field)
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert np.array_equal(loaded.node_variance, basis.node_variance)
        assert loaded.n_train == basis.n_train

    def test_checksum_detects_tampering(self, tmp_path):
        basis = pod.fit(toy_matrix(24, 8, seed=21), 3)
        basis.nx, basis.nz = 24, 1
        basis.save(tmp_path / "basis")
        raw = bytearray((tmp_path / "basis.smx").read_bytes())
        raw[-5] ^= 0xFF
        (tmp_path / "basis.smx").write_bytes(bytes(raw))
        with pytest.raises(DataError):
            pod.ReducedBasis.load(tmp_path / "basis")

    def test_non_finite_rejected(self, tmp_path):
        # node_variance is outside the checksum, so only the finite check sees it
        basis = pod.fit(toy_matrix(24, 8, seed=21), 3)
        basis.nx, basis.nz = 24, 1
        basis.node_variance[4] = np.nan
        basis.save(tmp_path / "basis")
        with pytest.raises(DataError):
            pod.ReducedBasis.load(tmp_path / "basis")
