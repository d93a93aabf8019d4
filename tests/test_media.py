import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from qtmkit import (
    CODATA,
    InvalidGapError,
    InvalidRingError,
    PhysicalConstants,
    ValidationError,
    gap_medium,
    otto_cycle_energies,
    ring_levels,
    ring_medium,
)

# hbar^2 / (2 m_e r^2) at r = 100 nm with CODATA 2018 values, evaluated
# independently at 50-digit precision and frozen.
E_GROUND_100NM = 6.1042643149807904e-25  # J


class TestPhysicalConstants:
    def test_codata_2018_defaults(self):
        assert CODATA.hbar == 1.054571817e-34
        assert CODATA.boltzmann_k == 1.380649e-23
        assert CODATA.electron_mass == 9.1093837015e-31

    def test_reduced_units(self):
        reduced = PhysicalConstants.reduced()
        assert (reduced.hbar, reduced.boltzmann_k, reduced.electron_mass) == (
            1.0,
            1.0,
            1.0,
        )

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(ValidationError):
            PhysicalConstants(boltzmann_k=-1.0)
        with pytest.raises(ValidationError):
            PhysicalConstants(electron_mass=0.0)


class TestRingLevels:
    def test_ground_level_at_100nm(self):
        e_ground, e_excited = ring_levels(100e-9, CODATA)
        assert e_ground == pytest.approx(E_GROUND_100NM, rel=1e-12)
        assert e_excited == 4.0 * e_ground

    @given(radius=st.floats(1e-9, 1e-5))
    def test_excited_is_four_times_ground(self, radius):
        e_ground, e_excited = ring_levels(radius, CODATA)
        assert e_excited == 4.0 * e_ground

    def test_halving_the_radius_quadruples_the_levels(self):
        e_ground, _ = ring_levels(100e-9, CODATA)
        e_ground_half, _ = ring_levels(50e-9, CODATA)
        assert e_ground_half == 4.0 * e_ground

    @given(
        radius=st.floats(1e-9, 1e-6),
        factor=st.floats(0.1, 10.0),
    )
    def test_homogeneity_in_radius_and_mass(self, radius, factor):
        reduced = PhysicalConstants.reduced()
        base, _ = ring_levels(radius, reduced)
        scaled_r, _ = ring_levels(radius * factor, reduced)
        assert scaled_r == pytest.approx(base / factor**2, rel=1e-12)
        heavier, _ = ring_levels(radius, replace(reduced, electron_mass=factor))
        assert heavier == pytest.approx(base / factor, rel=1e-12)

    @pytest.mark.parametrize("radius", [0.0, -1e-9, math.inf])
    def test_invalid_radius(self, radius):
        with pytest.raises(InvalidRingError):
            ring_levels(radius)


class TestRingMedium:
    @pytest.mark.parametrize("r_low, r_high", [(0.0, 1e-7), (1e-7, -1e-7)],
                             ids=["r_low", "r_high"])
    def test_bad_radius_raises_invalid_ring(self, r_low, r_high):
        with pytest.raises(InvalidRingError):
            ring_medium(r_low, r_high, CODATA)

    def test_equal_radii_give_unit_gap_ratio(self):
        medium = ring_medium(100e-9, 100e-9, CODATA)
        assert medium.alpha_sq == 1.0
        energies = otto_cycle_energies(medium, 1.0, 5.0, CODATA.boltzmann_k)
        assert energies.e_out == 0.0

    def test_sqrt_five_compression_hits_the_carnot_ratio(self):
        medium = ring_medium(100e-9, 100e-9 / math.sqrt(5.0), CODATA)
        assert medium.alpha_sq == pytest.approx(5.0, rel=1e-14)

    def test_expansion_lands_in_two_acquirers(self):
        medium = ring_medium(100e-9, 200e-9, CODATA)
        assert medium.alpha_sq == pytest.approx(0.25, rel=1e-14)

    @given(
        r_low=st.floats(1e-8, 1e-6),
        rho=st.floats(0.05, 5.0),
    )
    def test_gap_ratio_is_rho_squared(self, r_low, rho):
        medium = ring_medium(r_low, r_low / rho, CODATA)
        assert medium.alpha_sq == pytest.approx(rho * rho, rel=1e-14)

    @given(rho=st.floats(0.1, 4.0))
    def test_high_ground_scales_with_rho_squared(self, rho):
        r_low = 100e-9
        medium = ring_medium(r_low, r_low / rho, CODATA)
        assert medium.high_config[0] == pytest.approx(
            rho * rho * medium.low_config[0], rel=1e-14
        )


class TestGapMedium:
    def test_explicit_gaps(self):
        medium = gap_medium(1.0, 2.0)
        assert medium.gap_low == 1.0
        assert medium.gap_high == 2.0
        assert medium.low_config == (0.0, 1.0)

    def test_ground_offsets_shift_configs(self):
        medium = gap_medium(3.0, 1.0, e_ground_low=0.0, e_ground_high=5.0)
        assert medium.gap_low == medium.gap_high == 3.0
        assert medium.high_config == (5.0, 8.0)

    @pytest.mark.parametrize("gap_low, alpha_sq", [(0.0, 1.0), (1.0, 0.0),
                                                   (-1.0, 2.0), (1.0, -2.0)])
    def test_validation(self, gap_low, alpha_sq):
        with pytest.raises(InvalidGapError):
            gap_medium(gap_low, alpha_sq)

    def test_cross_construction_matches_ring(self):
        # a generic medium built from the ring's own gaps and grounds must
        # drive an identical cycle
        ring = ring_medium(100e-9, 100e-9 / 1.7, CODATA)
        generic = gap_medium(
            ring.gap_low,
            ring.alpha_sq,
            e_ground_low=ring.low_config[0],
            e_ground_high=ring.high_config[0],
        )
        from_ring = otto_cycle_energies(ring, 1.0, 5.0, CODATA.boltzmann_k)
        from_generic = otto_cycle_energies(generic, 1.0, 5.0, CODATA.boltzmann_k)
        assert from_generic.e_high_gamma == pytest.approx(
            from_ring.e_high_gamma, rel=1e-12
        )
        assert from_generic.e_low_gamma == pytest.approx(
            from_ring.e_low_gamma, rel=1e-12
        )
