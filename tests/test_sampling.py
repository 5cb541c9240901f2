import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from plumerom import ConfigError, ParameterSpace
from plumerom.sampling import (
    check_unit,
    design,
    friction_velocity,
    halton_point,
    inlet_profile,
    radical_inverse,
    reference_velocity,
    to_physical,
    to_unit,
)

UNIT_COORD = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestHalton:
    def test_first_point_base2(self):
        assert halton_point(1, 1) == pytest.approx([0.5])

    def test_base2_sequence(self):
        assert halton_point(2, 1) == pytest.approx([0.25])
        assert halton_point(3, 1) == pytest.approx([0.75])

    def test_two_dimensional(self):
        assert halton_point(1, 2) == pytest.approx([0.5, 1.0 / 3.0])

    def test_index_zero_rejected(self):
        with pytest.raises(ConfigError):
            halton_point(0, 2)

    def test_dim_range(self):
        with pytest.raises(ConfigError):
            halton_point(1, 5)

    def test_radical_inverse_oracle(self):
        # brute force: digits of 13 in base 3 are 111 -> 1/3 + 1/9 + 1/27
        assert radical_inverse(13, 3) == pytest.approx(1 / 3 + 1 / 9 + 1 / 27)

    @pytest.mark.parametrize("n_pair", [(16, 256), (256, 4096)])
    def test_star_discrepancy_decreases(self, n_pair):
        def star_discrepancy(points):
            # exact 1-D star discrepancy from the sorted-points formula
            x = np.sort(points)
            n = len(x)
            i = np.arange(1, n + 1)
            return max(np.max(i / n - x), np.max(x - (i - 1) / n))

        d = [
            star_discrepancy(np.array([radical_inverse(k, 2) for k in range(1, n + 1)]))
            for n in n_pair
        ]
        assert d[1] < d[0] / 4  # order-of-magnitude style decrease


class TestParameterSpace:
    def test_bounds_in_coordinate_order(self, space):
        assert space.bounds == (space.u_zc_bounds, space.z0_bounds,
                                space.x_src_bounds, space.z_src_bounds)

    def test_dict_round_trip(self, space):
        shifted = ParameterSpace(u_zc_bounds=(6.0, 12.0), z_c=12.0)
        assert ParameterSpace.from_dict(shifted.to_dict()) == shifted
        assert list(space.to_dict())[:4] == ["u_zc_bounds", "z0_bounds",
                                             "x_src_bounds", "z_src_bounds"]

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError, match="x_src_bounds"):
            ParameterSpace(x_src_bounds=(1.0, 1.0))

    def test_contains_needs_every_coordinate(self, space):
        assert space.contains([6.0, 1e-2, 0.0, 1.0])
        assert not space.contains([6.0, 1e-2, 0.0, 2.5])
        with pytest.raises(ValueError):
            space.contains([6.0, 1e-2, 0.0])


class TestCheckUnit:
    def test_returns_the_float_table(self, space):
        points = check_unit([[0.0, 0.5, 1.0, 0.25], [1, 1, 0, 0]], space)
        assert points.dtype == float and points.shape == (2, 4)
        table = np.full((3, 4), 0.5)
        assert check_unit(table, space) is table

    @pytest.mark.parametrize("points", [
        [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
        [[0.5, 0.5, 0.5, "a"]],
    ], ids=["ragged", "text"])
    def test_rejects_what_is_not_a_table(self, space, points):
        # NaN, Inf, out-of-cube and mis-shaped arrays are rejected through
        # rom.predict_fields in test_rom.py
        with pytest.raises(ConfigError):
            check_unit(points, space)


class TestToPhysical:
    def test_z0_log_midpoint(self, space):
        physical = to_physical([0.0, 0.5, 0.9, 0.9], space)
        assert physical[1] == pytest.approx(1e-2, rel=1e-12)

    def test_u_zc_endpoints(self, space):
        assert to_physical([0.0, 0.5, 0.9, 0.9], space)[0] == pytest.approx(3.0)
        assert to_physical([1.0, 0.5, 0.9, 0.9], space)[0] == pytest.approx(9.0)

    def test_exclusion_box_flag(self, space):
        physical = to_physical([0.2, 0.2, 0.5, 0.5], space)
        assert physical[2] == pytest.approx(0.0)
        assert physical[3] == pytest.approx(1.1)
        assert space.in_exclusion_box(*physical[2:])

    def test_out_of_cube_rejected(self, space):
        with pytest.raises(ConfigError):
            to_physical([1.2, 0.5, 0.5, 0.5], space)
        with pytest.raises(ConfigError):
            to_physical([0.5, 0.5, 0.5], space)

    @given(u=st.tuples(UNIT_COORD, UNIT_COORD, UNIT_COORD, UNIT_COORD))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, u):
        space = ParameterSpace()
        back = to_unit(to_physical(np.array(u), space), space)
        assert np.allclose(back, u, atol=1e-12)

    @given(
        u=st.floats(min_value=0.0, max_value=0.98, allow_nan=False),
        delta=st.floats(min_value=1e-6, max_value=0.02, allow_nan=False),
        dim=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_strictly_monotone_per_coordinate(self, u, delta, dim):
        space = ParameterSpace()
        base = np.full(4, 0.4)
        lo, hi = base.copy(), base.copy()
        lo[dim], hi[dim] = u, u + delta
        a = to_physical(lo, space)[dim]
        b = to_physical(hi, space)[dim]
        assert b > a


class TestMostProfiles:
    def test_friction_velocity_nominal(self):
        # direct evaluation at the nominal snapshot parameters
        assert friction_velocity(5.78, 2.79e-2, 10.0, 0.41) == pytest.approx(
            0.4027190213644625, rel=1e-12
        )

    def test_friction_velocity_corner(self):
        assert friction_velocity(9.0, 1e-3, 10.0, 0.41) == pytest.approx(
            0.4006323099631886, rel=1e-12
        )

    def test_friction_velocity_linear_in_u(self):
        a = friction_velocity(4.0, 1e-2, 10.0, 0.41)
        b = friction_velocity(8.0, 1e-2, 10.0, 0.41)
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_friction_velocity_domain(self):
        with pytest.raises(ConfigError):
            friction_velocity(5.0, 0.0, 10.0, 0.41)
        with pytest.raises(ConfigError):
            friction_velocity(5.0, 1e-2, -1.0, 0.41)

    def test_inlet_zero_height(self):
        assert inlet_profile(0.0, 0.4, 1e-2, 0.41) == 0.0

    def test_inlet_negative_height(self):
        with pytest.raises(ConfigError):
            inlet_profile(-0.1, 0.4, 1e-2, 0.41)

    def test_inlet_inverts_friction_velocity(self):
        u_zc, z0, z_c, kappa = 7.3, 3.2e-2, 10.0, 0.41
        u_tau = friction_velocity(u_zc, z0, z_c, kappa)
        assert inlet_profile(z_c, u_tau, z0, kappa) == pytest.approx(u_zc, rel=1e-12)

    def test_inlet_one_meter(self):
        # direct evaluation: (0.4027/0.41) * log(1 + 1/0.0279)
        assert inlet_profile(1.0, 0.4027, 2.79e-2, 0.41) == pytest.approx(
            3.5424305755179, rel=1e-12
        )


class TestReferenceVelocity:
    def test_against_quadrature_oracle(self, space):
        # independent oracle: E[u_tau] by quadrature over the (u_zc, z0) box
        kappa, z_c = space.kappa, space.z_c
        a, b = space.z0_bounds

        def integrand(t):  # t = log z0, uniform on [log a, log b]
            return 1.0 / math.log1p(z_c / math.exp(t))

        expect_inv_log, _ = integrate.quad(integrand, math.log(a), math.log(b))
        expect_inv_log /= math.log(b) - math.log(a)
        oracle = kappa * 6.0 * expect_inv_log
        closed_form = reference_velocity(space)
        assert closed_form == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert closed_form == pytest.approx(0.370, abs=5e-3)  # the reported magnitude

    def test_tracks_the_space(self, space):
        # linear in mean(u_zc); the z0 factor is the same integral
        shifted = ParameterSpace(u_zc_bounds=(6.0, 12.0))
        assert reference_velocity(shifted) == pytest.approx(
            1.5 * reference_velocity(space), rel=1e-14
        )


class TestMarginalStatistics:
    def test_z0_moments(self, space):
        rng = np.random.Generator(np.random.Philox(5))
        a, b = space.z0_bounds
        z0 = np.exp(rng.uniform(math.log(a), math.log(b), size=100_000))
        assert z0.mean() == pytest.approx(0.0215, abs=1e-3)
        assert z0.std() == pytest.approx(0.025, abs=2e-3)

    def test_u_zc_std(self, space):
        rng = np.random.Generator(np.random.Philox(5))
        u = rng.uniform(*space.u_zc_bounds, size=100_000)
        assert u.std() == pytest.approx(1.732, abs=0.02)


class TestDesign:
    def test_single_sample_deterministic(self, space):
        index1, unit1, _, _ = design(space, 1, 1)
        index2, unit2, _, _ = design(space, 1, 1)
        assert index1[0] == index2[0]
        assert np.array_equal(unit1[0], unit2[0])

    def test_table_rows_are_halton_points(self, space):
        index, unit, physical, _ = design(space, 50, 1)
        assert index.shape == (50,) and unit.shape == physical.shape == (50, 4)
        for i, u, p in zip(index, unit, physical):
            assert np.array_equal(u, halton_point(int(i), 4))
            assert np.array_equal(p, to_physical(u, space))

    def test_all_samples_admissible(self, space):
        _, _, physical, _ = design(space, 100, 1)
        for p in physical:
            assert not space.in_exclusion_box(p[2], p[3])
            assert space.contains(p)

    def test_extendable_from_recorded_indices(self, space):
        index_all, unit_all, _, _ = design(space, 30, 1)
        next_index = index_all[14] + 1
        index_tail, unit_tail, _, _ = design(space, 15, next_index)
        assert np.array_equal(index_all[15:], index_tail)
        assert np.array_equal(unit_all[15:], unit_tail)

    def test_skips_are_counted(self, space):
        index, _, _, n_skipped = design(space, 200, 1)
        consumed = index[-1]
        assert consumed == 200 + n_skipped or consumed <= 200 + n_skipped
        assert n_skipped > 0  # the box removes a visible fraction
