import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config, make_env, make_grid
from pe3d.environment import (
    PERIODIC,
    SECTOR,
    TL_FLOOR_DB,
    Absorber,
    Environment,
    Grid3D,
    SoundSpeedProfile,
    SourceSpec,
    gaussian_starter,
    hankel_factor,
    refraction_index_grid,
    transmission_loss_field,
    wavenumber,
)
from pe3d.errors import InvariantError, ShapeError


class TestGrid3D:
    def test_valid_grid(self):
        grid = make_grid()
        assert grid.depth_extent == 31 * 4.0
        assert grid.range_at(3) == 5.0 + 15.0
        assert grid.range_at(grid.n_range) == 5.0 + 10 * 5.0

    @pytest.mark.parametrize("field,value", [
        ("n_range", 2), ("n_azimuth", 1), ("n_depth", 0),
        ("n_range", 10.5), ("n_azimuth", 16.0), ("n_range", 5.0),
        ("n_depth", True),
    ])
    def test_counts_at_least_three(self, field, value):
        # a count must be an int before its value is compared
        kwargs = dict(n_range=10, n_azimuth=8, n_depth=32)
        kwargs[field] = value
        rule = ">= 3" if type(value) is int else "is an integer"
        with pytest.raises(InvariantError, match=f"{field} {rule}"):
            make_grid(**kwargs)

    def test_spacings_positive(self):
        # a spacing must be a real number, and not a bool, before its value
        # is compared
        for field, value in (("delta_z", 0.0), ("delta_r", -1.0),
                             ("delta_r", "5.0"), ("delta_z", True),
                             ("delta_theta", "0.785")):
            with pytest.raises(InvariantError, match=f"^{field} > 0"):
                make_grid(**{field: value})

    def test_r_start_positive(self):
        for value in (0.0, "5.0", False):
            with pytest.raises(InvariantError, match="^r_start > 0"):
                make_grid(r_start=value)

    def test_periodic_closure_enforced(self):
        with pytest.raises(InvariantError, match="periodic closure"):
            Grid3D(n_range=5, n_azimuth=4, n_depth=8, delta_r=1.0,
                   delta_theta=math.pi / 4, delta_z=1.0, r_start=1.0,
                   azimuth_topology="periodic")

    def test_sector_needs_no_closure(self):
        grid = make_grid(topology=SECTOR, delta_theta=math.radians(2.0))
        assert grid.azimuth_topology == SECTOR


class TestWavenumber:
    def test_reference_values(self):
        assert wavenumber(50.0, 1500.0) == pytest.approx(
            0.20943951023931956, rel=1e-14)
        assert wavenumber(25.0, 1500.0) == pytest.approx(
            0.10471975511965978, rel=1e-14)

    def test_scale_invariance(self):
        assert wavenumber(50.0, 1500.0) == wavenumber(100.0, 3000.0)

    @given(st.floats(0.001, 1000.0), st.floats(1.0, 5000.0),
           st.floats(200.0, 2000.0))
    @settings(max_examples=100, deadline=None)
    def test_linear_in_frequency(self, a, f, c0):
        assert wavenumber(a * f, c0) == pytest.approx(
            a * wavenumber(f, c0), rel=1e-12)

    @pytest.mark.parametrize("f,c0", [(0.0, 1500.0), (-5.0, 1500.0),
                                      (50.0, 0.0), (50.0, -1.0)])
    def test_domain_errors(self, f, c0):
        # k0 = 2 pi f / c0 needs f > 0 and c0 > 0: no config holds others
        with pytest.raises(InvariantError, match="> 0 and finite"):
            make_config(env=make_env(make_grid(), c0=c0), frequencies=(f,))


class TestRefractionIndex:
    def test_homogeneous_unity_everywhere_above_absorber(self):
        grid = make_grid(n_depth=64)
        env = make_env(grid, speed=1500.0, c0=1500.0, attenuation=0.02)
        n = refraction_index_grid(env, grid)
        assert n.shape == (grid.n_depth,)  # one profile for every azimuth
        above = grid.depths() < env.absorber.start_depth
        assert np.all(n[above] == 1.0 + 0.0j)

    def test_real_part_is_speed_ratio(self):
        grid = make_grid()
        env = make_env(grid, speed=1450.0, c0=1500.0)
        n = refraction_index_grid(env, grid)
        assert grid.depths()[2] == 8.0
        assert n[2].real == pytest.approx(1.0344827586206897, rel=1e-14)

    def test_imaginary_part_hits_max_at_bottom(self):
        grid = make_grid(n_depth=64)
        env = make_env(grid, attenuation=0.03, start_frac=0.5)
        n = refraction_index_grid(env, grid)
        assert n[-1].imag == 0.03

    def test_quadratic_ramp_midpoint(self):
        grid = make_grid(n_depth=65, delta_z=4.0)
        env = make_env(grid, attenuation=0.04, start_frac=0.5)
        start = env.absorber.start_depth
        mid = start + 0.5 * (grid.depth_extent - start)
        n = refraction_index_grid(env, grid)
        assert grid.depths()[48] == mid
        assert n[48].imag == pytest.approx(0.04 * 0.25, rel=1e-12)

    def test_depth_profile_interpolation(self):
        profile = SoundSpeedProfile(np.array([0.0, 100.0]),
                                    np.array([1500.0, 1520.0]))
        assert profile.speed_at(50.0) == pytest.approx(1510.0)
        # clamped beyond the last sample
        assert profile.speed_at(150.0) == pytest.approx(1520.0)

    def test_one_sample_profile_is_that_speed_everywhere(self):
        profile = SoundSpeedProfile.uniform(1512.3)
        z = np.linspace(-10.0, 1e5, 1001)
        assert np.all(profile.speed_at(z) == 1512.3)
        assert profile.speed_at(42.0) == 1512.3


class TestEnvironmentInvariants:
    def test_speed_sanity_bounds(self):
        with pytest.raises(InvariantError, match="100, 100000"):
            SoundSpeedProfile.uniform(50.0)

    def test_profile_depths_increasing(self):
        with pytest.raises(InvariantError, match="strictly increasing"):
            SoundSpeedProfile(np.array([0.0, 0.0]), np.array([1500.0, 1500.0]))

    def test_c0_positive(self):
        for c0 in (0.0, "1500", True):
            with pytest.raises(InvariantError, match="^c0 > 0"):
                Environment(c0=c0, profile=SoundSpeedProfile.uniform(1500.0),
                            absorber=Absorber(10.0, 0.0))

    @pytest.mark.parametrize("start_depth,max_attenuation,field", [
        (-1.0, 0.01, "start_depth"), ("10", 0.01, "start_depth"),
        (10.0, None, "max_attenuation"), (10.0, True, "max_attenuation"),
    ])
    def test_absorber_values(self, start_depth, max_attenuation, field):
        with pytest.raises(InvariantError, match=f"^absorber.{field} >= 0"):
            Absorber(start_depth, max_attenuation)

    def test_source_spec_validation(self):
        with pytest.raises(InvariantError, match="every frequency > 0"):
            SourceSpec(frequencies=(50.0, -1.0), depth=100.0)
        with pytest.raises(InvariantError, match=">= 1 frequency"):
            SourceSpec(frequencies=(), depth=100.0)

    @pytest.mark.parametrize("frequencies,depth,field", [
        ("55", 100.0, "frequencies"),
        (b"55", 100.0, "frequencies"),
        (("50", 60.0), 100.0, "frequencies"),
        ((50.0, True), 100.0, "frequencies"),
        ((50.0,), "50", "depth"),
        ((50.0,), None, "depth"),
    ])
    def test_source_spec_values_are_numbers(self, frequencies, depth, field):
        # a string is a sequence of characters and bytes one of ints: both
        # would otherwise build frequencies silently
        with pytest.raises(InvariantError, match=f"^source {field} numeric"):
            SourceSpec(frequencies=frequencies, depth=depth)


class TestGaussianStarter:
    def test_value_at_source_depth_is_sqrt_k0(self):
        grid = make_grid(n_depth=64, delta_z=4.0)
        src = SourceSpec(frequencies=(50.0,), depth=64.0)
        k0 = wavenumber(50.0, 1500.0)
        slab = gaussian_starter(grid, src, k0)
        assert slab[0, 16] == math.sqrt(k0)

    def test_azimuth_independent(self):
        grid = make_grid(n_azimuth=16, n_depth=64)
        slab = gaussian_starter(grid, SourceSpec((50.0,), depth=60.0),
                                wavenumber(50.0, 1500.0))
        assert np.array_equal(slab, np.broadcast_to(
            slab[0], slab.shape))

    def test_frozen_value_ten_meters_off_source(self):
        # sqrt(k0) * exp(-(k0^2 / 2) * 10^2) for k0 = 2*pi*50/1500
        grid = make_grid(n_depth=128, delta_z=2.5)
        src = SourceSpec(frequencies=(50.0,), depth=100.0)
        slab = gaussian_starter(grid, src, wavenumber(50.0, 1500.0))
        l_plus = round(110.0 / 2.5)
        assert slab[0, l_plus].real == pytest.approx(
            0.051052254125796864, rel=1e-12)

    def test_symmetric_about_source_depth(self):
        grid = make_grid(n_depth=64, delta_z=4.0)
        src = SourceSpec(frequencies=(50.0,), depth=128.0)
        slab = gaussian_starter(grid, src, wavenumber(50.0, 1500.0))
        l_s = 32
        for d in (1, 5, 10):
            assert slab[0, l_s + d] == slab[0, l_s - d]

    def test_surface_row_zero(self):
        grid = make_grid(n_depth=32)
        slab = gaussian_starter(grid, SourceSpec((50.0,), depth=8.0),
                                wavenumber(50.0, 1500.0))
        assert np.all(slab[:, 0] == 0.0)

    @staticmethod
    def starter(topology):
        grid = make_grid(n_azimuth=6, n_depth=32, topology=topology)
        return gaussian_starter(grid, SourceSpec((50.0,), depth=60.0),
                                wavenumber(50.0, 1500.0))

    def test_sector_edge_azimuths_zero(self):
        # a sector's edge azimuths are Dirichlet rows, which the march
        # keeps zero from the starter on; the azimuths between them are the
        # starter column
        slab = self.starter(SECTOR)
        assert np.all(slab[[0, -1]] == 0.0)
        assert np.array_equal(slab[1:-1], np.broadcast_to(slab[1], (4, 32)))
        assert np.any(slab[1] != 0.0)

    def test_periodic_edge_azimuths_kept(self):
        # a periodic grid has no edges: every azimuth is the starter column
        slab = self.starter(PERIODIC)
        assert np.array_equal(slab, np.broadcast_to(slab[1], slab.shape))
        assert np.any(slab[0] != 0.0)


class TestHankelFactor:
    def test_magnitude_is_inverse_sqrt_r(self):
        k0 = wavenumber(50.0, 1500.0)
        assert abs(hankel_factor(k0, 100.0)) / abs(hankel_factor(k0, 400.0)) \
            == pytest.approx(2.0, rel=1e-14)

    def test_three_db_per_doubling(self):
        k0 = wavenumber(25.0, 1500.0)
        ratio = abs(hankel_factor(k0, 2 * 320.0)) / abs(hankel_factor(k0, 320.0))
        assert -20.0 * math.log10(ratio) == pytest.approx(
            3.010299956639812, rel=1e-12)

    def test_phase_at_full_cycle(self):
        r = 100.0
        k0 = 2.0 * math.pi / r
        w = hankel_factor(k0, r)
        assert math.atan2(w.imag, w.real) == pytest.approx(0.0, abs=1e-12)


def transmission_loss(u: complex, w: complex) -> float:
    """TL of one sample, through the field form on a 1 x 1 slab."""
    return transmission_loss_field(np.array([[u]]), w)[0][0, 0]


class TestTransmissionLoss:
    def test_unit_magnitude(self):
        assert transmission_loss(1.0 + 0.0j, 1.0 + 0.0j) == 0.0

    def test_sixty_db(self):
        values = np.full((2, 3), 1e-3 + 0.0j)
        tl, clamped, nonfinite = transmission_loss_field(values, 1.0 + 0.0j)
        assert tl == pytest.approx(np.full((2, 3), 60.0), rel=1e-13)
        assert (clamped, nonfinite) == (0, 0)

    def test_zero_clamps_to_floor(self):
        assert transmission_loss(0.0j, 1.0 + 0.0j) == TL_FLOOR_DB

    @given(st.floats(1e-12, 1e6), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_identity(self, mag, phase):
        u = mag * complex(math.cos(phase), math.sin(phase))
        tl = transmission_loss(u, 1.0 + 0.0j)
        assert tl + 20.0 * math.log10(abs(u)) == pytest.approx(0.0, abs=1e-9)

    def test_field_clamp_count(self):
        values = np.array([[0.0 + 0.0j, 1.0 + 0.0j, 0.0 + 0.0j]])
        tl, clamped, nonfinite = transmission_loss_field(values, 1.0 + 0.0j)
        assert clamped == 2 and nonfinite == 0
        assert tl[0, 0] == TL_FLOOR_DB and tl[0, 1] == 0.0
        assert np.all(np.isfinite(tl))

    def test_field_in_place_matches_allocating_form(self):
        # clamped zeros and non-finite samples included; the reference is
        # the expression the allocating form was first written as
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        values[0, :] = 0.0
        values[2, 3] = complex(np.nan, 0.0)
        values[4, 5] = complex(np.inf, 1.0)
        w = hankel_factor(0.2, 37.0)
        tl, clamped, nonfinite = transmission_loss_field(values, w)
        out = np.full((2,) + values.shape, 123.0)
        returned, out_clamped, out_nonfinite = transmission_loss_field(
            values, w, out=out[1])
        mag = np.abs(values) * abs(w)
        zero = mag == 0.0
        reference = np.where(zero, TL_FLOOR_DB,
                             -20.0 * np.log10(np.where(zero, 1.0, mag)))
        assert np.shares_memory(returned, out[1])
        assert out[1].tobytes() == tl.tobytes() == reference.tobytes()
        assert np.all(out[0] == 123.0)
        assert (out_clamped, out_nonfinite) == (clamped, nonfinite) == (9, 2)

