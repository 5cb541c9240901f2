import numpy as np
import pytest

from plumerom import ConfigError, DataError
from plumerom import gpr, pod, rom, smx
from plumerom.plume import Grid, generate_dataset
from plumerom.sampling import to_unit
from conftest import regenerate


def explicit_truncated_q2(basis, coeff, true, l):
    """Global Q2 of the reconstruction from the first ``l`` modes, built in
    full (reference for the closed form in ``robustness_sweep``)."""
    weighted = coeff[:l] * np.sqrt(basis.eigenvalues[:l])[:, None]
    truncated = basis.modes[:, :l] @ weighted + basis.mean_field[:, None]
    return rom.q2_global(rom.q2_scores(true, truncated), rom.node_variance(true))


@pytest.fixture(scope="module")
def tiny_dataset(space):
    return generate_dataset(space, 40, Grid(nx=41, nz=21), seed=5)


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset):
    train_set, calib_set, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
    return rom.train(train_set, calib_set, 5, "map", seed=0)


@pytest.fixture(scope="module")
def noiseless_model(space):
    dataset = generate_dataset(space, 40, Grid(nx=41, nz=21), seed=6,
                               noise_amplitude=1e-6)
    train_set, calib_set, _ = rom.split(dataset, (0.6, 0.15, 0.25))
    model = rom.train(train_set, calib_set, 5, "map", seed=0)
    return model, train_set


class TestSplit:
    def test_reference_sizes(self, space):
        dataset = generate_dataset(space, 750, Grid(nx=11, nz=6), seed=7)
        train, calib, test = rom.split(dataset)
        assert (len(train), len(calib), len(test)) == (472, 53, 225)

    def test_disjoint_cover_in_order(self, tiny_dataset):
        train, calib, test = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        indices = np.concatenate([train.index, calib.index, test.index]).tolist()
        assert indices == tiny_dataset.index.tolist()
        assert len(set(indices)) == len(tiny_dataset)

    def test_empty_subset_rejected(self, space):
        dataset = generate_dataset(space, 3, Grid(nx=11, nz=6), seed=8)
        with pytest.raises(DataError):
            rom.split(dataset)

    def test_fractions_must_sum_to_one(self, tiny_dataset):
        with pytest.raises(ConfigError):
            rom.split(tiny_dataset, (0.5, 0.2, 0.2))

    def test_half_window_split_alongside(self, tiny_dataset):
        train, calib, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        assert train.half_matrix().shape == train.matrix().shape
        for i in range(len(calib)):
            assert np.array_equal(calib.half_matrix()[:, i], regenerate(calib, i, 0.5))


class TestTrain:
    def test_deterministic(self, tiny_dataset):
        train_set, calib_set, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        a = rom.train(train_set, calib_set, 4, "map", seed=3)
        b = rom.train(train_set, calib_set, 4, "map", seed=3)
        for ga, gb in zip(a.gps, b.gps):
            assert ga.theta == gb.theta

    def test_prior_only_records_zero_iterations(self, tiny_dataset):
        train_set, calib_set, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        model = rom.train(train_set, calib_set, 3, "prior", seed=0)
        assert all(g.diagnostics["total_iterations"] == 0 for g in model.gps)
        for l, gp in enumerate(model.gps, start=1):
            assert gp.theta.lengthscales[2] == pytest.approx(1.0 / l)

    def test_map_requires_calibration(self, tiny_dataset):
        train_set, _, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        with pytest.raises(ConfigError):
            rom.train(train_set, None, 3, "map")

    def test_gp_on_union_extends_inputs(self, tiny_dataset):
        train_set, calib_set, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        joint = rom.train(train_set, calib_set, 3, "map", seed=0, gp_on_union=True)
        assert joint.gps[0].n_train == len(train_set) + len(calib_set)
        assert joint.basis.n_train == len(train_set)

    def test_map_reference_modes_converge(self, dataset200):
        train_set, calib_set, _ = rom.split(dataset200)
        model = rom.train(train_set, calib_set, 8, "map", seed=0)
        assert [g.diagnostics["converged"] for g in model.gps] == [True] * 8
        assert all(g.diagnostics["nfev"] >= 1 for g in model.gps)

    def test_unknown_method(self, tiny_dataset):
        train_set, calib_set, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        with pytest.raises(ConfigError):
            rom.train(train_set, calib_set, 3, "bogus")


class TestPredict:
    def test_interpolates_training_snapshot(self, noiseless_model):
        model, train_set = noiseless_model
        snap = train_set.snapshots[4]
        fld, _, _ = rom.predict(model, snap.mu)
        pod_rebuilt = pod.reconstruct(
            model.basis, pod.project(model.basis, snap.values)
        )
        rel = np.linalg.norm(fld - pod_rebuilt) / np.linalg.norm(pod_rebuilt)
        assert rel <= 2e-2

    def test_outside_space_refused(self, tiny_model):
        # u_zc past the top of its interval, in unit-cube coordinates
        with pytest.raises(ConfigError):
            rom.predict(tiny_model, np.array([1.5, 0.5, 0.5, 0.5]))

    def test_exclusion_box_refused(self, tiny_model):
        unit = to_unit([6.0, 1e-2, 0.5, 0.5], tiny_model.space)
        with pytest.raises(ConfigError, match="exclusion box"):
            rom.predict(tiny_model, unit)

    def test_nominal_point_accepted(self, tiny_model):
        unit = to_unit([5.78, 2.79e-2, -1.01, 0.830], tiny_model.space)
        fld, mean, var = rom.predict(tiny_model, unit)
        assert fld.shape == (tiny_model.grid.n_nodes,)
        assert mean.shape == (tiny_model.L,)
        assert np.all(var >= 0.0)

    def test_far_from_data_reverts_to_mean_field(self, tiny_model):
        # with shrunk length-scales every training point is many correlation
        # lengths away, so coefficients revert to the zero prior mean
        shrunk = [
            gpr.fit_gp(
                g.inputs,
                g.targets,
                gpr.Hyperparameters(g.theta.noise_var, g.theta.signal_var,
                                    (0.002,) * 4),
            )
            for g in tiny_model.gps
        ]
        model = rom.RomModel(
            basis=tiny_model.basis, gps=shrunk, method="map",
            normalization=tiny_model.normalization,
            split_manifest=tiny_model.split_manifest,
            priors_audit=None, space=tiny_model.space,
            grid=tiny_model.grid, channel=tiny_model.channel,
        )
        unit = np.array([0.513, 0.487, 0.052, 0.951])
        fld, coeff, _ = rom.predict(model, unit)
        assert np.abs(coeff).max() <= 1e-6
        assert np.allclose(fld, model.basis.mean_field, atol=1e-6)

    @pytest.mark.parametrize("points", [
        [[0.5, np.nan, 0.5, 0.5]],
        [[0.5, 0.5, np.inf, 0.5]],
        [[0.5, 0.5, 0.5, 1.2]],
        [[-0.1, 0.5, 0.5, 0.5]],
        [[0.5, 0.5, 0.5]],
        [0.5, 0.5, 0.5, 0.5],
    ], ids=["nan", "inf", "above-1", "below-0", "width-3", "1-d"])
    def test_predict_fields_rejects_bad_points(self, tiny_model, points):
        with pytest.raises(ConfigError):
            rom.predict_fields(tiny_model, np.array(points))

    @pytest.mark.parametrize("unit", [
        [0.5, np.nan, 0.5, 0.5],
        [0.5, 0.5, 0.5, 1.2],
        [0.5, 0.5, 0.5],
        [0.5, 0.5, 0.5, 0.5, 0.5],
    ], ids=["nan", "above-1", "width-3", "width-5"])
    def test_predict_rejects_bad_point(self, tiny_model, unit):
        with pytest.raises(ConfigError):
            rom.predict(tiny_model, np.array(unit))

    def test_continuous_in_mu(self, tiny_model):
        base = np.array([5.5, 2e-2, -2.0, 1.5])
        step = np.array([1e-6, 0, 1e-6, 1e-6])
        f0, _, _ = rom.predict(tiny_model, to_unit(base, tiny_model.space))
        f1, _, _ = rom.predict(tiny_model, to_unit(base + step, tiny_model.space))
        assert np.linalg.norm(f1 - f0) / np.linalg.norm(f0) < 1e-3


class TestQ2Metrics:
    def test_perfect_predictor_scores_one(self):
        values = np.random.default_rng(0).random((30, 12))
        q2 = rom.q2_scores(values, values)
        assert np.allclose(q2[~np.isnan(q2)], 1.0)

    def test_mean_predictor_scores_zero(self):
        values = np.random.default_rng(1).random((30, 12))
        mean = np.tile(values.mean(axis=1, keepdims=True), (1, 12))
        q2 = rom.q2_scores(values, mean)
        assert np.allclose(q2[~np.isnan(q2)], 0.0, atol=1e-12)

    def test_negative_scores_not_clamped(self):
        values = np.random.default_rng(2).random((5, 20))
        bad = values + 10.0 * np.random.default_rng(3).standard_normal((5, 20))
        q2 = rom.q2_scores(values, bad)
        assert (q2[~np.isnan(q2)] < 0.0).any()

    def test_q2_equals_one_minus_mse_over_variance(self):
        # the per-mode criterion is literally 1 - MSE/var on the same sums
        rng = np.random.default_rng(4)
        k_true = rng.standard_normal((6, 50))
        k_pred = k_true + 0.3 * rng.standard_normal((6, 50))
        q2 = rom.q2_scores(k_true, k_pred)
        mse = np.mean((k_true - k_pred) ** 2, axis=1)
        var = np.mean((k_true - k_true.mean(axis=1, keepdims=True)) ** 2, axis=1)
        assert np.abs(q2 - (1.0 - mse / var)).max() <= 1e-12

    def test_global_is_convex_combination(self):
        q2 = np.full(10, 0.37)
        weights = np.random.default_rng(5).random(10)
        assert rom.q2_global(q2, weights) == pytest.approx(0.37)

    def test_global_skips_undefined(self):
        q2 = np.array([1.0, np.nan, 0.5])
        weights = np.array([1.0, 100.0, 1.0])
        assert rom.q2_global(q2, weights) == pytest.approx(0.75)

    def test_truncation_closed_form_matches_explicit(self):
        # constant rows are masked nodes where the modes still predict
        # variation, so their residuals must be subtracted exactly
        rng = np.random.default_rng(3)
        n_nodes, L, m = 30, 6, 12
        modes, _ = np.linalg.qr(rng.standard_normal((n_nodes, L)))
        eigenvalues = np.sort(rng.uniform(0.5, 4.0, L))[::-1]
        basis = pod.ReducedBasis(
            mean_field=rng.standard_normal(n_nodes), modes=modes,
            eigenvalues=eigenvalues, spectrum=eigenvalues,
            total_variance=float(eigenvalues.sum()), n_train=m,
            node_variance=np.ones(n_nodes),
        )
        true = rng.standard_normal((n_nodes, m))
        true[:4] = rng.standard_normal((4, 1))
        coeff = rng.standard_normal((L, m))
        closed_form = rom._q2_by_truncation(basis, coeff, true)
        for l in range(1, L + 1):
            expected = explicit_truncated_q2(basis, coeff, true, l)
            assert abs(closed_form[l - 1] - expected) <= 1e-12

    def test_eq28_identity_pod_self_reconstruction(self, tiny_dataset):
        # weighted local Q2 of pure POD reconstruction == cumulative variance
        train_set, _, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        matrix = train_set.matrix()
        for L in (2, 5, 10):
            basis = pod.fit(train_set, L)
            rebuilt = pod.reconstruct(basis, pod.project(basis, matrix))
            local = rom.q2_scores(matrix, rebuilt)
            weighted = rom.q2_global(local, basis.node_variance)
            assert weighted == pytest.approx(
                pod.cumulative_variance(basis)[L - 1], abs=1e-8
            )


class TestEvaluate:
    def test_leakage_guard(self, tiny_dataset, tiny_model):
        train_set, _, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        with pytest.raises(DataError):
            rom.evaluate(tiny_model, train_set, tag="test")

    def test_train_tag_allows_training_split(self, tiny_dataset, tiny_model):
        train_set, _, _ = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        report = rom.evaluate(tiny_model, train_set, tag="train")
        assert report.dataset_tag == "train"
        assert report.q2_global <= 1.0

    def test_report_identity(self, tiny_dataset, tiny_model):
        _, _, test_set = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        report = rom.evaluate(tiny_model, test_set, tag="test")
        recomputed = rom.q2_global(report.q2_local, report.node_weights)
        assert report.q2_global == pytest.approx(recomputed, abs=1e-10)
        assert np.array_equal(report.node_weights,
                              rom.node_variance(test_set.matrix()))

    def test_report_files(self, tmp_path, tiny_dataset, tiny_model):
        _, _, test_set = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        report = rom.evaluate(tiny_model, test_set, tag="test")
        report.save(tmp_path, tiny_model.grid.nx, tiny_model.grid.nz)
        lines = (tmp_path / "q2_per_mode.csv").read_text().splitlines()
        assert lines[0] == "mode,q2"
        assert len(lines) == tiny_model.L + 1
        assert (tmp_path / "q2_local.smx").exists()
        assert (tmp_path / "summary.json").exists()


class TestPersistence:
    def test_save_load_predictions_identical(self, tmp_path, tiny_model, tiny_dataset):
        tiny_model.save(tmp_path / "model")
        loaded = rom.RomModel.load(tmp_path / "model")
        _, _, test_set = rom.split(tiny_dataset, (0.6, 0.15, 0.25))
        a = rom.predict_fields(tiny_model, test_set.unit_inputs())
        b = rom.predict_fields(loaded, test_set.unit_inputs())
        assert np.array_equal(a, b)
        for unit in test_set.unit:
            _, mean_a, var_a = rom.predict(tiny_model, unit)
            _, mean_b, var_b = rom.predict(loaded, unit)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(var_a, var_b)
        assert loaded.method == tiny_model.method
        assert loaded.split_manifest == tiny_model.split_manifest

    def test_checksum_guard(self, tmp_path, tiny_model):
        tiny_model.save(tmp_path / "model")
        import json

        meta = json.loads((tmp_path / "model/model.json").read_text())
        meta["gps"][0]["theta"]["signal_var"] *= 1.5
        (tmp_path / "model/model.json").write_text(json.dumps(meta))
        with pytest.raises(DataError):
            rom.RomModel.load(tmp_path / "model")


    def test_non_finite_gp_table_rejected(self, tmp_path, tiny_model):
        tiny_model.save(tmp_path / "model")
        table, nx, nz = smx.read_smx(tmp_path / "model/gps.smx")
        table = table.copy()
        table[3, -1] = np.nan
        smx.write_smx(tmp_path / "model/gps.smx", table, nx, nz)
        with pytest.raises(DataError):
            rom.RomModel.load(tmp_path / "model")

    def test_unknown_format_rejected(self, tmp_path, tiny_model):
        import json

        tiny_model.save(tmp_path / "model")
        meta = json.loads((tmp_path / "model/model.json").read_text())
        meta["format"] = "plumerom-model-1"
        (tmp_path / "model/model.json").write_text(json.dumps(meta))
        with pytest.raises(DataError):
            rom.RomModel.load(tmp_path / "model")


class TestRobustnessSweep:
    def test_structure_and_bounds(self, space):
        dataset = generate_dataset(space, 60, Grid(nx=41, nz=21), seed=9)
        results = rom.robustness_sweep(dataset, [12, 24], method="prior", seed=0)
        assert [r["size"] for r in results] == [12, 24]
        for r in results:
            l_max = int(round(0.9 * r["size"])) - 1
            assert r["L"] == l_max
            assert set(r["q2_by_L"]) == set(range(1, l_max + 1))
            assert r["q2_global"] == r["q2_by_L"][l_max]
            assert len(r["q2_per_mode"]) == l_max

    def test_q2_by_L_matches_explicit_reconstruction(self, space):
        dataset = generate_dataset(space, 60, Grid(nx=41, nz=21), seed=9)
        size = 24
        (result,) = rom.robustness_sweep(dataset, [size], method="prior", seed=0)
        # the sweep's model, rebuilt as robustness_sweep builds it
        full_train, _, test = rom.split(dataset)
        n_pod = int(round(0.9 * size))
        model = rom.train(full_train.subset(range(n_pod)),
                          full_train.subset(range(n_pod, size)), n_pod - 1, "prior",
                          seed=0, gp_on_union=True)
        coeff, _ = rom._posterior_coefficients(model, test.unit_inputs())
        _, defined = rom._q2_denominators(test.matrix())
        assert not defined.all()  # the masked rows are exercised
        for l in (1, 7, n_pod - 1):
            expected = explicit_truncated_q2(model.basis, coeff, test.matrix(), l)
            assert abs(result["q2_by_L"][l] - expected) <= 1e-12

    def test_size_bounds_checked(self, space):
        dataset = generate_dataset(space, 60, Grid(nx=41, nz=21), seed=10)
        with pytest.raises(ConfigError):
            rom.robustness_sweep(dataset, [5])
        with pytest.raises(ConfigError):
            rom.robustness_sweep(dataset, [100])
