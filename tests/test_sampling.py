import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from plumerom import ConfigError, ParameterSpace
from plumerom.sampling import (
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


class TestToPhysical:
    def test_z0_log_midpoint(self, space):
        sample = to_physical([0.0, 0.5, 0.9, 0.9], space)
        assert sample.z0 == pytest.approx(1e-2, rel=1e-12)

    def test_u_zc_endpoints(self, space):
        assert to_physical([0.0, 0.5, 0.9, 0.9], space).u_zc == pytest.approx(3.0)
        assert to_physical([1.0, 0.5, 0.9, 0.9], space).u_zc == pytest.approx(9.0)

    def test_exclusion_box_flag(self, space):
        sample = to_physical([0.2, 0.2, 0.5, 0.5], space)
        assert sample.x_src == pytest.approx(0.0)
        assert sample.z_src == pytest.approx(1.1)
        assert sample.rejected

    def test_out_of_cube_rejected(self, space):
        with pytest.raises(ConfigError):
            to_physical([1.2, 0.5, 0.5, 0.5], space)

    @given(u=st.tuples(UNIT_COORD, UNIT_COORD, UNIT_COORD, UNIT_COORD))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, u):
        space = ParameterSpace()
        sample = to_physical(np.array(u), space)
        back = to_unit(sample.physical, space)
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
        a = to_physical(lo, space).physical[dim]
        b = to_physical(hi, space).physical[dim]
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
        d1 = design(space, 1, 1)
        d2 = design(space, 1, 1)
        assert d1.samples[0].index == d2.samples[0].index
        assert np.array_equal(d1.samples[0].unit, d2.samples[0].unit)

    def test_all_samples_admissible(self, space):
        d = design(space, 100, 1)
        for s in d.samples:
            assert not space.in_exclusion_box(s.x_src, s.z_src)
            assert space.contains(s.physical)

    def test_extendable_from_recorded_indices(self, space):
        d_all = design(space, 30, 1)
        next_index = d_all.samples[14].index + 1
        d_tail = design(space, 15, next_index)
        for a, b in zip(d_all.samples[15:], d_tail.samples):
            assert a.index == b.index
            assert np.array_equal(a.unit, b.unit)

    def test_skips_are_counted(self, space):
        d = design(space, 200, 1)
        consumed = d.samples[-1].index
        assert consumed == 200 + d.n_skipped or consumed <= 200 + d.n_skipped
        assert d.n_skipped > 0  # the box removes a visible fraction
