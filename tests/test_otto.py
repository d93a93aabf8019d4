import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import boltzmann_probabilities, exponential_cycle_energies
from qtmkit import (
    CODATA,
    DegenerateMediumError,
    InvalidTemperatureError,
    InvalidThetaError,
    LevelSpectrum,
    OccupationMismatchError,
    OperationalRegion,
    SpectrumMismatchError,
    TwoLevelMedium,
    ValidationError,
    classify_region,
    gap_medium,
    multilevel_exchange,
    occupation,
    otto_cycle_energies,
    ring_medium,
    work_exchange,
)

# Independently evaluated partition sums, frozen:
# three levels (0, E, 2E) at k_B*T = E give weights (1, 1/e, 1/e^2).
OCC3_AT_KT_EQ_E = (
    0.66524095577482189,
    0.24472847105479765,
    0.09003057317038046,
)
# Same spectrum, reservoir stroke from T = E/k_B to T = 2E/k_B.
Q3_HEAT = 0.25505371477463498

# Ring cycle at rho = 1.5, theta_sq = 5, T_low = 1 K, r_low = 100 nm (CODATA
# constants), frozen from the exponential closed form at 50-digit precision.
RING_E_HIGH = 7.4965191450593219e-26
RING_E_LOW = -3.3317862866930320e-26
RING_E_OUT = 4.1647328583662900e-26


class TestLevelSpectrum:
    def test_needs_two_levels(self):
        with pytest.raises(DegenerateMediumError):
            LevelSpectrum((1.0,))

    @pytest.mark.parametrize("levels", [(0.0, 0.0), (1.0, 0.5), (0.0, 1.0, 1.0)])
    def test_rejects_non_increasing(self, levels):
        with pytest.raises(DegenerateMediumError):
            LevelSpectrum(levels)

    def test_sequence_protocol(self):
        spectrum = LevelSpectrum((0.0, 1.0, 2.5))
        assert len(spectrum) == 3
        assert spectrum[1] == 1.0
        assert list(spectrum) == [0.0, 1.0, 2.5]


class TestOccupation:
    def test_infinite_temperature_limit(self):
        p = occupation(LevelSpectrum((0.0, 1.0)), 1e12, 1.0)
        assert p[0] == pytest.approx(0.5, abs=1e-12)
        assert p[1] == pytest.approx(0.5, abs=1e-12)

    def test_gap_of_kt_ln2_forces_two_thirds(self):
        gap = math.log(2.0)
        p = occupation(LevelSpectrum((0.0, gap)), 1.0, 1.0)
        assert p[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert p[1] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_three_level_partition_sum(self):
        p = occupation(LevelSpectrum((0.0, 1.0, 2.0)), 1.0, 1.0)
        for got, want in zip(p, OCC3_AT_KT_EQ_E):
            assert got == pytest.approx(want, rel=1e-14)

    def test_shift_invariance(self):
        # adding a constant to every level must not change the occupations
        base = occupation(LevelSpectrum((0.0, 1.0, 2.0)), 0.7, 1.0)
        shifted = occupation(LevelSpectrum((5.0, 6.0, 7.0)), 0.7, 1.0)
        np.testing.assert_allclose(shifted, base, rtol=1e-14)

    def test_survives_deep_gaps(self):
        # raw weights would underflow; the shifted form must stay finite
        p = occupation(LevelSpectrum((0.0, 1.0)), 1e-4, 1.0)
        assert p[0] == 1.0
        assert p[1] == 0.0

    @given(
        gap=st.floats(1e-6, 1e3),
        temperature=st.floats(1e-3, 1e3),
    )
    def test_normalized_and_ordered(self, gap, temperature):
        p = occupation(LevelSpectrum((0.0, gap)), temperature, 1.0)
        assert abs(p.sum() - 1.0) <= 1e-14
        assert p[0] >= p[1] >= 0.0

    def test_invalid_temperature(self):
        with pytest.raises(InvalidTemperatureError):
            occupation(LevelSpectrum((0.0, 1.0)), 0.0, 1.0)
        with pytest.raises(InvalidTemperatureError):
            occupation(LevelSpectrum((0.0, 1.0)), -1.0, 1.0)

    def test_invalid_boltzmann(self):
        with pytest.raises(ValidationError):
            occupation(LevelSpectrum((0.0, 1.0)), 1.0, 0.0)


class TestTwoLevelMedium:
    def test_gaps_and_ratio(self):
        medium = TwoLevelMedium((0.0, 1.0), (0.5, 3.5))
        assert medium.gap_low == 1.0
        assert medium.gap_high == 3.0
        assert medium.alpha_sq == 3.0

    @pytest.mark.parametrize(
        "low, high", [((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (2.0, 1.5))]
    )
    def test_rejects_non_positive_gap(self, low, high):
        with pytest.raises(DegenerateMediumError):
            TwoLevelMedium(low, high)


class TestOttoCycleEnergies:
    def test_reversible_gap_ratio_gives_zero_everywhere(self):
        # gap ratio equal to the temperature ratio: the bracket vanishes
        # identically, bit-for-bit
        medium = gap_medium(1.0, 2.0)
        energies = otto_cycle_energies(medium, 1.0, 2.0, 1.0)
        assert energies.e_high_gamma == 0.0
        assert energies.e_low_gamma == 0.0
        assert energies.e_out == 0.0

    def test_equal_gaps_exchange_but_produce_nothing(self):
        medium = gap_medium(1.0, 1.0)
        energies = otto_cycle_energies(medium, 1.0, 5.0, 1.0)
        assert energies.e_out == 0.0
        assert energies.e_high_gamma > 0.0
        assert energies.e_high_gamma == -energies.e_low_gamma

    def test_ring_at_rho_1_5(self):
        medium = ring_medium(100e-9, 100e-9 / 1.5, CODATA)
        energies = otto_cycle_energies(medium, 1.0, 5.0, CODATA.boltzmann_k)
        assert energies.e_high_gamma == pytest.approx(RING_E_HIGH, rel=1e-12)
        assert energies.e_low_gamma == pytest.approx(RING_E_LOW, rel=1e-12)
        assert energies.e_out == pytest.approx(RING_E_OUT, rel=1e-12)
        assert energies.e_high_gamma > 0 > energies.e_low_gamma
        assert energies.e_out > 0
        region = classify_region(energies.as_exchange_triple(), 5.0)
        assert region is OperationalRegion.OUT_TRANSFERS

    def test_validation(self):
        medium = gap_medium(1.0, 2.0)
        with pytest.raises(InvalidTemperatureError):
            otto_cycle_energies(medium, 0.0, 5.0, 1.0)
        with pytest.raises(InvalidThetaError):
            otto_cycle_energies(medium, 1.0, 1.0, 1.0)

    @given(
        gap_low=st.floats(0.1, 2.0),
        alpha_sq=st.floats(0.05, 12.0),
        ground_low=st.floats(0.0, 2.0),
        ground_high=st.floats(0.0, 2.0),
        t_low=st.floats(0.5, 4.0),
        theta_sq=st.floats(1.5, 8.0),
    )
    @settings(max_examples=300)
    def test_ratio_and_conservation(
        self, gap_low, alpha_sq, ground_low, ground_high, t_low, theta_sq
    ):
        medium = gap_medium(gap_low, alpha_sq, ground_low, ground_high)
        energies = otto_cycle_energies(medium, t_low, theta_sq, 1.0)
        assert energies.e_out - (energies.e_high_gamma + energies.e_low_gamma) == 0.0
        if energies.e_low_gamma != 0.0:
            assert -energies.e_high_gamma / energies.e_low_gamma == pytest.approx(
                medium.alpha_sq, rel=1e-12
            )

    def test_sign_structure_across_thresholds(self):
        # e_out flips alone at a gap ratio of 1; everything flips at theta_sq
        below_one = otto_cycle_energies(gap_medium(1.0, 0.5), 1.0, 5.0, 1.0)
        above_one = otto_cycle_energies(gap_medium(1.0, 1.5), 1.0, 5.0, 1.0)
        beyond = otto_cycle_energies(gap_medium(1.0, 7.0), 1.0, 5.0, 1.0)
        assert below_one.e_high_gamma > 0 > below_one.e_low_gamma
        assert below_one.e_out < 0
        assert above_one.e_high_gamma > 0 > above_one.e_low_gamma
        assert above_one.e_out > 0
        assert beyond.e_high_gamma < 0 < beyond.e_low_gamma
        assert beyond.e_out < 0

    @given(
        gap_low=st.floats(0.1, 2.0),
        alpha_sq=st.floats(0.05, 12.0),
        t_low=st.floats(0.5, 4.0),
        theta_sq=st.floats(1.5, 8.0),
    )
    @settings(max_examples=300)
    def test_matches_exponential_closed_form(
        self, gap_low, alpha_sq, t_low, theta_sq
    ):
        if abs(alpha_sq - theta_sq) <= 1e-2 * theta_sq:
            return  # both formulations share a cancelling bracket there
        medium = gap_medium(gap_low, alpha_sq, 0.3, 1.1)
        energies = otto_cycle_energies(medium, t_low, theta_sq, 1.0)
        e_high_ref, e_low_ref = exponential_cycle_energies(
            medium, t_low, theta_sq, 1.0
        )
        assert energies.e_high_gamma == pytest.approx(e_high_ref, rel=1e-10)
        assert energies.e_low_gamma == pytest.approx(e_low_ref, rel=1e-10)


class TestMultilevelExchange:
    def test_no_temperature_change_no_heat(self):
        spectrum = LevelSpectrum((0.0, 1.0, 2.0))
        assert multilevel_exchange(spectrum, 1.3, 1.3, 1.0) == 0.0

    def test_three_level_against_partition_sums(self):
        spectrum = LevelSpectrum((0.0, 1.0, 2.0))
        value = multilevel_exchange(spectrum, 1.0, 2.0, 1.0)
        assert value == pytest.approx(Q3_HEAT, rel=1e-14)
        # direct Boltzmann sums at both endpoints, no library code
        p1 = boltzmann_probabilities((0.0, 1.0, 2.0), 1.0, 1.0)
        p2 = boltzmann_probabilities((0.0, 1.0, 2.0), 2.0, 1.0)
        reference = sum(e * (b - a) for e, a, b in zip((0.0, 1.0, 2.0), p1, p2))
        assert value == pytest.approx(reference, rel=1e-13)

    def test_two_level_hot_stroke_matches_cycle_term(self):
        # contact with the hot reservoir on the wide-gap configuration
        medium = gap_medium(1.0, 3.0, 0.2, 0.5)
        t_low, theta_sq = 1.0, 6.0
        energies = otto_cycle_energies(medium, t_low, theta_sq, 1.0)
        high = LevelSpectrum(medium.high_config)
        # state entering the stroke carries the cold-side occupations, which
        # for two levels are thermal at t_low scaled by the gap ratio
        t_effective = t_low * medium.alpha_sq
        q_hot = multilevel_exchange(high, t_effective, theta_sq * t_low, 1.0)
        assert q_hot == pytest.approx(energies.e_high_gamma, rel=1e-12)

    def test_heating_absorbs(self):
        spectrum = LevelSpectrum((0.0, 2.0))
        assert multilevel_exchange(spectrum, 0.5, 5.0, 1.0) > 0.0
        assert multilevel_exchange(spectrum, 5.0, 0.5, 1.0) < 0.0


class TestWorkExchange:
    def test_identical_spectra_no_work(self):
        spectrum = LevelSpectrum((0.0, 1.0))
        assert work_exchange(spectrum, spectrum, (0.7, 0.3)) == 0.0

    def test_pure_ground_shift(self):
        low = LevelSpectrum((0.0, 1.0))
        high = LevelSpectrum((0.4, 2.4))
        value = work_exchange(low, high, (1.0, 0.0))
        assert value == pytest.approx(0.4, rel=1e-14)

    def test_isolation_strokes_sum_to_minus_e_out(self):
        medium = gap_medium(1.0, 2.5, 0.1, 0.7)
        t_low, theta_sq = 1.0, 5.0
        energies = otto_cycle_energies(medium, t_low, theta_sq, 1.0)
        low = LevelSpectrum(medium.low_config)
        high = LevelSpectrum(medium.high_config)
        p_cold = tuple(occupation(low, t_low, 1.0))
        p_hot = tuple(occupation(high, theta_sq * t_low, 1.0))
        compress = work_exchange(low, high, p_cold)
        expand = work_exchange(high, low, p_hot)
        assert compress + expand == pytest.approx(-energies.e_out, rel=1e-12)

    def test_spectrum_length_mismatch(self):
        with pytest.raises(SpectrumMismatchError):
            work_exchange(LevelSpectrum((0.0, 1.0)),
                          LevelSpectrum((0.0, 1.0, 2.0)), (0.7, 0.3))

    def test_occupation_length_mismatch(self):
        spectrum = LevelSpectrum((0.0, 1.0))
        with pytest.raises(OccupationMismatchError):
            work_exchange(spectrum, spectrum, (0.7, 0.2, 0.1))
