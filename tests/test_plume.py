import json

import numpy as np
import pytest

from plumerom import ConfigError, DataError, ParameterSpace
from plumerom import pod, rom, smx
from plumerom.plume import Grid, SnapshotSet, generate_dataset, generate_field
from plumerom.sampling import design, reference_velocity, to_unit
from conftest import regenerate


def sample_at(space, u_zc, z0, x_src, z_src):
    """The unit-cube point of a physical parameter point."""
    return to_unit([u_zc, z0, x_src, z_src], space)


class TestGrid:
    def test_default_dimensions(self):
        grid = Grid()
        assert (grid.nx, grid.nz) == (171, 51)
        assert grid.n_nodes == 8721
        assert grid.x_range == (-3.5, 13.5)
        assert grid.z_range == (0.0, 5.0)

    def test_uniform_spacing(self):
        grid = Grid(nx=18, nz=11)
        assert np.allclose(np.diff(grid.x()), np.diff(grid.x())[0])
        assert np.allclose(np.diff(grid.z()), np.diff(grid.z())[0])

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            Grid(nx=1, nz=5)


class TestGenerateField:
    def test_bit_identical_repeats(self, space, small_grid):
        mu = sample_at(space, 5.0, 1e-2, -1.5, 0.8)
        a = generate_field(mu, small_grid, seed=3, space=space, u_tau_ref=0.37)
        b = generate_field(mu, small_grid, seed=3, space=space, u_tau_ref=0.37)
        assert np.array_equal(a, b)

    def test_noiseless_peak_at_source(self, space):
        grid = Grid()  # default: source coordinates below sit on grid nodes
        mu = sample_at(space, 5.0, 1e-2, -1.0, 0.8)
        field = generate_field(mu, grid, seed=0, space=space, u_tau_ref=0.37,
                               noise_amplitude=0.0).reshape(grid.nz, grid.nx)
        iz = np.argmin(np.abs(grid.z() - 0.8))
        ix = np.argmin(np.abs(grid.x() - (-1.0)))
        assert field[iz, ix] == field.max()

    def test_noiseless_non_negative(self, space, small_grid):
        for mu_phys in ([4.0, 5e-3, 2.5, 0.5], [8.0, 5e-2, -3.0, 1.8]):
            mu = sample_at(space, *mu_phys)
            values = generate_field(mu, small_grid, seed=0, space=space,
                                    u_tau_ref=0.37, noise_amplitude=0.0)
            assert values.min() >= 0.0

    def test_exclusion_box_rejected(self, space, small_grid):
        mu = sample_at(space, 6.0, 1e-2, 0.5, 0.5)
        with pytest.raises(DataError):
            generate_field(mu, small_grid, space=space, u_tau_ref=0.37)

    def test_bad_window_fraction(self, space, small_grid):
        mu = sample_at(space, 5.0, 1e-2, -1.5, 0.8)
        with pytest.raises(ConfigError):
            generate_field(mu, small_grid, window_fraction=0.0, space=space)

    def test_windows_differ_only_in_noise(self, space, small_grid):
        # difference of full- and half-window fields is pure noise: its
        # spatial mean, averaged over 100 seeds, is zero within 3 SE
        mu = sample_at(space, 5.0, 1e-2, -1.5, 0.8)
        means = []
        for seed in range(100):
            full = generate_field(mu, small_grid, "mean_concentration", 1.0,
                                  seed, space=space, u_tau_ref=0.37)
            half = generate_field(mu, small_grid, "mean_concentration", 0.5,
                                  seed, space=space, u_tau_ref=0.37)
            means.append((full - half).mean())
        means = np.array(means)
        se = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean()) <= 3.0 * se

    def test_integral_continuous_in_source_position(self, space):
        grid = Grid()
        dx = (grid.x_range[1] - grid.x_range[0]) / (grid.nx - 1)

        def integral(x_src):
            mu = sample_at(space, 5.0, 1e-2, x_src, 0.8)
            field = generate_field(mu, grid, seed=0, space=space, u_tau_ref=0.37,
                                   noise_amplitude=0.0).reshape(grid.nz, grid.nx)
            return np.trapezoid(np.trapezoid(field, grid.x(), axis=1), grid.z())

        a, b = integral(-1.5), integral(-1.5 + dx)
        assert a > 0.0
        assert abs(b - a) / a < 0.05

    def test_flux_channel_has_signed_lobes(self, space, small_grid):
        mu = sample_at(space, 5.0, 1e-2, -1.0, 0.8)
        values = generate_field(mu, small_grid, "vertical_flux", seed=0,
                                space=space, u_tau_ref=0.37, noise_amplitude=0.0)
        assert values.max() > 0.0
        assert values.min() < 0.0


class TestGenerateDataset:
    def test_shapes_and_windows(self, dataset80_small):
        n_nodes = dataset80_small.grid.n_nodes
        assert len(dataset80_small) == 80
        assert dataset80_small.matrix().shape == (n_nodes, 80)
        assert dataset80_small.half_matrix().shape == (n_nodes, 80)
        for i in (0, 79):
            assert np.array_equal(dataset80_small.matrix()[:, i],
                                  regenerate(dataset80_small, i, 1.0))
            assert np.array_equal(dataset80_small.half_matrix()[:, i],
                                  regenerate(dataset80_small, i, 0.5))

    def test_half_window_pairs_by_mu(self, dataset80_small):
        half = dataset80_small.half_matrix()
        for i in range(len(dataset80_small)):
            assert np.array_equal(half[:, i], regenerate(dataset80_small, i, 0.5))

    def test_manifest_contents(self, dataset80_small):
        manifest = dataset80_small.manifest
        assert manifest["u_tau_ref"] == pytest.approx(0.37, abs=5e-3)
        assert manifest["n_skipped"] >= 0
        assert "space" in manifest and "seed" in manifest

    def test_u_tau_ref_independent_of_seed(self, space):
        refs = [generate_dataset(space, 2, Grid(nx=5, nz=3), seed=s).manifest["u_tau_ref"]
                for s in (0, 1)]
        assert refs[0] == refs[1] == reference_velocity(space)
        assert refs[0] == pytest.approx(0.37008560, abs=5e-9)

    def test_default_normalization_matches_dataset(self, dataset80_small):
        m = dataset80_small.manifest
        for i in (0, 79):
            field = generate_field(dataset80_small.unit[i], dataset80_small.grid,
                                   seed=m["seed"], space=ParameterSpace.from_dict(m["space"]))
            assert np.array_equal(field, dataset80_small.matrix()[:, i])

    def test_follows_design_order(self, space, small_grid, dataset80_small):
        index, unit, physical, n_skipped = design(space, 80, 1)
        assert np.array_equal(dataset80_small.index, index)
        assert np.array_equal(dataset80_small.unit, unit)
        assert np.array_equal(dataset80_small.physical, physical)
        assert dataset80_small.manifest["n_skipped"] == n_skipped

    def test_ensemble_variance_positive_near_sources(self, dataset200):
        grid = dataset200.grid
        variance = dataset200.matrix().var(axis=1).reshape(grid.nz, grid.nx)
        xg, zg = grid.mesh()
        box = (xg >= -3.5) & (xg <= 4.5) & (zg <= 3.0)
        box &= ~((xg >= -1.0) & (xg <= 2.2) & (zg <= 2.2))  # skip dilated obstacle
        assert variance[box].min() > 0.0

    def test_monotone_noise_in_averaging_length(self, space, small_grid):
        # longer averaging window -> smaller full-vs-half projection spread
        spreads = []
        for periods in (10.0, 40.0, 160.0):
            ds = generate_dataset(space, 30, small_grid, seed=4,
                                  t_avg_periods=periods)
            basis = pod.fit(ds, 10)
            diff = pod.project(basis, ds.matrix()) - pod.project(basis, ds.half_matrix())
            spreads.append(diff.var())
        assert spreads[0] > spreads[1] > spreads[2]

    def test_requires_two_snapshots(self, space, small_grid):
        with pytest.raises(ConfigError):
            generate_dataset(space, 1, small_grid)

    def test_save_load_round_trip(self, tmp_path, dataset80_small):
        dataset80_small.save(tmp_path / "ds")
        loaded = SnapshotSet.load(tmp_path / "ds")
        assert np.array_equal(loaded.matrix(), dataset80_small.matrix())
        assert np.array_equal(loaded.half_matrix(), dataset80_small.half_matrix())
        assert loaded.manifest["u_tau_ref"] == dataset80_small.manifest["u_tau_ref"]
        assert len(loaded) == len(dataset80_small)

    def test_save_twice_identical_bytes(self, tmp_path, dataset80_small):
        dataset80_small.save(tmp_path / "a")
        dataset80_small.save(tmp_path / "b")
        assert (tmp_path / "a/full.smx").read_bytes() == (tmp_path / "b/full.smx").read_bytes()
        assert (tmp_path / "a/manifest.json").read_text() == (tmp_path / "b/manifest.json").read_text()


class TestSnapshotLayout:
    def test_matrix_is_stored_not_rebuilt(self, dataset80_small):
        assert dataset80_small.matrix() is dataset80_small.matrix()
        assert dataset80_small.half_matrix() is dataset80_small.half_matrix()

    def test_split_subsets_are_views(self, tmp_path, dataset80_small):
        dataset80_small.save(tmp_path / "ds")
        loaded = SnapshotSet.load(tmp_path / "ds")
        for part in rom.split(loaded):
            assert np.shares_memory(part.matrix(), loaded.matrix())
            assert np.shares_memory(part.half_matrix(), loaded.half_matrix())

    def test_subset_save_load_bit_exact(self, tmp_path, dataset80_small):
        part = dataset80_small.subset(range(17, 43))
        part.save(tmp_path / "part")
        loaded = SnapshotSet.load(tmp_path / "part")
        assert np.array_equal(loaded.matrix(), dataset80_small.matrix()[:, 17:43])
        assert np.array_equal(loaded.half_matrix(),
                              dataset80_small.half_matrix()[:, 17:43])
        assert np.array_equal(loaded.index, dataset80_small.index[17:43])
        assert np.array_equal(loaded.unit, dataset80_small.unit[17:43])
        assert np.array_equal(loaded.physical, dataset80_small.physical[17:43])
        assert np.array_equal(loaded.unit_inputs(), part.unit_inputs())

    @pytest.mark.parametrize("key, value", [("unit", float("nan")),
                                            ("physical", float("inf")),
                                            ("unit", None)])
    def test_non_finite_sample_coordinates_rejected(self, tmp_path, dataset80_small,
                                                    key, value):
        dataset80_small.save(tmp_path / "ds")
        path = tmp_path / "ds/manifest.json"
        manifest = json.loads(path.read_text())
        manifest["samples"][3][key][1] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="non-finite"):
            SnapshotSet.load(tmp_path / "ds")

    @pytest.mark.parametrize("key, value", [("unit", 1.5), ("unit", -0.5),
                                            ("unit", "drop"), ("physical", "drop")])
    def test_corrupt_sample_table_rejected(self, tmp_path, dataset80_small, key, value):
        dataset80_small.save(tmp_path / "ds")
        path = tmp_path / "ds/manifest.json"
        manifest = json.loads(path.read_text())
        if value == "drop":
            del manifest["samples"][3][key][1]
        else:
            manifest["samples"][3][key][1] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="sample table"):
            SnapshotSet.load(tmp_path / "ds")

    def test_matrices_must_match_samples(self, tmp_path, dataset80_small):
        dataset80_small.save(tmp_path / "ds")
        grid = dataset80_small.grid
        smx.write_smx(tmp_path / "ds/half.smx", dataset80_small.half_matrix()[:, :79],
                      grid.nx, grid.nz)
        with pytest.raises(DataError):
            SnapshotSet.load(tmp_path / "ds")
