import math
import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import boltzmann_probabilities, exponential_cycle_energies
from qtmkit import (
    CODATA,
    DegenerateExchangeError,
    DegenerateMediumError,
    InvalidTemperatureError,
    InvalidThetaError,
    LevelSpectrum,
    MediumKind,
    OperationalRegion,
    PhysicalConstants,
    SweepSpec,
    TwoLevelMedium,
    ValidationError,
    classify_region,
    gap_medium,
    multilevel_exchange,
    occupation,
    otto_cycle_energies,
    ring_medium,
    run_sweep,
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
        with pytest.raises(DegenerateMediumError, match="gap must be positive, got"):
            TwoLevelMedium(low, high)

    @pytest.mark.parametrize("low, high, name", [
        ((0.0, 1.0), (-1e308, 1e308), "high_config"),
        ((-1e308, 1e308), (-1e308, 1e308), "low_config"),
        ((0, 1), (-10**308, 10**308), "high_config"),  # an int gap past the floats
    ])
    def test_rejects_a_gap_that_overflows(self, low, high, name):
        # finite levels whose difference is not: the cycle would see an inf gap
        with pytest.raises(DegenerateMediumError,
                           match=re.escape(f"{name} gap must be finite, got {high!r}")):
            TwoLevelMedium(low, high)

    @pytest.mark.parametrize("low", [(0.0, 1.0, 2.0), (0.0,), 1.0, None])
    def test_rejects_a_config_that_is_not_a_pair(self, low):
        with pytest.raises(DegenerateMediumError, match="low_config must be a"):
            TwoLevelMedium(low, (0.0, 1.0))


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

    def test_freeze_out_is_a_unit_error_naming_the_gaps(self):
        # k_B * t_low is subnormal: both Boltzmann exponents overflow, and
        # the occupation difference of two frozen-out media is inf - inf.
        with pytest.raises(DegenerateExchangeError) as info:
            otto_cycle_energies(gap_medium(1e10, 0.25), 1e-300, 5.0,
                                CODATA.boltzmann_k)
        assert str(info.value) == (
            "cycle energies vanished: the gaps 10000000000.0 and 2500000000.0 "
            f"are enormous compared to k_B * t_low = {CODATA.boltzmann_k * 1e-300!r}, "
            "with Boltzmann exponents b_low = inf and b_high = inf: gap / "
            "(k_B * t_low) overflowed the largest double, about 1.8e308, in both "
            "(check units and constants)")
        spec = SweepSpec(t_low=1e-300, theta_sq=5.0, rho_grid=(0.5,),
                         medium_kind=MediumKind.GENERIC_GAP, gap_low=1e10)
        with pytest.raises(DegenerateExchangeError) as swept:
            run_sweep(spec, CODATA)
        assert str(swept.value) == f"at rho=0.5: {info.value}"

    @pytest.mark.parametrize("alpha_sq, b_high", [(2.25, "4500"), (9.0, "1.8e+04")],
                             ids=["forward", "reversed"])
    def test_underflowed_exchanges_off_the_band_are_the_sweeps_unit_error(
            self, alpha_sq, b_high):
        # Finite Boltzmann exponents of 1e4 and more: x underflows to 0 on
        # either side of theta_sq, where a sweep stops at the same point
        # with the same message, prefixed with that point's rho.
        with pytest.raises(DegenerateExchangeError) as info:
            otto_cycle_energies(gap_medium(1.0, alpha_sq), 1e-4, 5.0, 1.0)
        assert str(info.value) == (
            f"cycle energies vanished: the gaps 1.0 and {alpha_sq!r} are "
            "enormous compared to k_B * t_low = 0.0001, with Boltzmann exponents "
            f"b_low = 1e+04 and b_high = {b_high}: an exchange, about gap * "
            "exp(-min(b_low, b_high)), fell below the smallest double, about "
            "exp(-745) (check units and constants)")
        rho = math.sqrt(alpha_sq)  # exact, so the sweep builds the same medium
        spec = SweepSpec(t_low=1e-4, theta_sq=5.0, rho_grid=(rho,),
                         medium_kind=MediumKind.GENERIC_GAP, gap_low=1.0)
        with pytest.raises(DegenerateExchangeError) as swept:
            run_sweep(spec, PhysicalConstants.reduced())
        assert str(swept.value) == f"at rho={rho!r}: {info.value}"

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

    @pytest.mark.parametrize("number", [np.float32, Decimal, Fraction],
                             ids=["float32", "Decimal", "Fraction"])
    def test_temperatures_of_other_number_types_are_taken_as_their_floats(self,
                                                                         number):
        # np.float32 temperatures once promoted the kernel to float32; a
        # Decimal one once crashed it with a TypeError.
        medium = gap_medium(0.9, 2.3)
        given = number("0.7"), number("5.3"), number("1.1")
        energies = otto_cycle_energies(medium, *given)
        assert energies == otto_cycle_energies(medium, *map(float, given))


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
        with pytest.raises(ValidationError) as info:
            work_exchange(LevelSpectrum((0.0, 1.0)),
                          LevelSpectrum((0.0, 1.0, 2.0)), (0.7, 0.3))
        assert str(info.value) == "spectra must have equal length, got 2 and 3"

    def test_occupation_length_mismatch(self):
        spectrum = LevelSpectrum((0.0, 1.0))
        with pytest.raises(ValidationError) as info:
            work_exchange(spectrum, spectrum, (0.7, 0.2, 0.1))
        assert str(info.value) == (
            "occupations must match the spectrum length 2, got shape (3,)")


U = 2.0**-53  # the unit roundoff of a double


def stroke_cond(levels, t_start, t_end, exchange):
    """The condition number of a reservoir stroke's sum
    ``sum E_n (p_n(t_end) - p_n(t_start))``, the multilevel analogue of the
    ``cond`` of the sweep's bound in ``test_kernel.py``: it grows as the two
    temperatures meet (``alpha_sq -> theta_sq`` in a cycle) and, for a sum
    that differences the occupations directly, at high temperature."""
    p_start, p_end = (boltzmann_probabilities(levels, t, 1.0) for t in (t_start, t_end))
    return sum(abs(e) * (a + b) for e, a, b in zip(levels, p_start, p_end)) / abs(exchange)


class TestMultilevelOracle:
    """The scalar multilevel strokes against the physics they must obey, for
    any spectrum (Quan et al., PRE 76, 031105 (2007); Kosloff and Rezek,
    Entropy 19, 136 (2017))."""

    @staticmethod
    def cycles(count=200):
        """Random cycles: a strictly increasing spectrum of 2 to 6 levels and
        the same spectrum scaled by ``alpha_sq``, with ``theta_sq`` and ``t``."""
        rng = np.random.default_rng(15)
        for _ in range(count):
            levels = np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 7))) + rng.uniform(-1, 1)
            alpha_sq, theta_sq = rng.uniform(0.2, 10.0), rng.uniform(1.1, 10.0)
            yield (LevelSpectrum(tuple(levels.tolist())),
                   LevelSpectrum(tuple((alpha_sq * levels).tolist())),
                   float(alpha_sq), float(theta_sq), float(10.0 ** rng.uniform(-1, 1)))

    def test_a_uniformly_scaled_spectrum_exchanges_in_the_ratio_alpha_sq(self):
        # The cold-side occupations are thermal on the high spectrum at
        # alpha_sq * t, the hot-side ones on the low spectrum at
        # theta_sq * t / alpha_sq, so e_high / e_low = -alpha_sq exactly.
        for low, high, alpha_sq, theta_sq, t in self.cycles():
            e_high = multilevel_exchange(high, alpha_sq * t, theta_sq * t, 1.0)
            e_low = multilevel_exchange(low, theta_sq * t / alpha_sq, t, 1.0)
            cond = (stroke_cond(high.levels, alpha_sq * t, theta_sq * t, e_high)
                    + stroke_cond(low.levels, theta_sq * t / alpha_sq, t, e_low))
            b_max = (low.levels[-1] - low.levels[0]) / min(t, theta_sq * t / alpha_sq)
            error = abs(e_high / e_low + alpha_sq) / alpha_sq
            assert error <= 16 * U * (1 + b_max) * cond, (low, alpha_sq, theta_sq, t)

    def test_the_four_strokes_of_a_cycle_sum_to_zero(self):
        for low, high, alpha_sq, theta_sq, t in self.cycles():
            p_cold, p_hot = occupation(low, t, 1.0), occupation(high, theta_sq * t, 1.0)
            strokes = (work_exchange(low, high, p_cold),
                       multilevel_exchange(high, alpha_sq * t, theta_sq * t, 1.0),
                       work_exchange(high, low, p_hot),
                       multilevel_exchange(low, theta_sq * t / alpha_sq, t, 1.0))
            assert abs(sum(strokes)) <= 1e-13 * max(map(abs, strokes))

    def test_a_stroke_meets_its_60_digit_value(self):
        # 600 strokes of 2 to 6 levels, both temperatures log-uniform on
        # [0.1, 10], against 60 digits.  The stroke is one occupation shift
        # from the hotter end; the difference of the two endpoints'
        # occupation vectors was off by up to 2.5e-12 relative here.
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(600):
            levels = np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 7))) + rng.uniform(-1, 1)
            t_start, t_end = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2)).tolist()
            levels = levels.tolist()
            value = multilevel_exchange(LevelSpectrum(tuple(levels)), t_start, t_end, 1.0)
            with mpmath.workdps(60):
                def mean(t):
                    weights = [mpmath.exp(-mpmath.mpf(e) / t) for e in levels]
                    return sum(e * w for e, w in zip(levels, weights)) / sum(weights)
                exact = mean(mpmath.mpf(t_end)) - mean(mpmath.mpf(t_start))
                worst = max(worst, float(abs((value - exact) / exact)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("size", [2, 3, 5, 10, 30])
    @pytest.mark.parametrize("t_start, t_end", [(0.5, 2.0), (3.0, 1.0), (0.2, 0.25)])
    def test_a_truncated_oscillator_meets_its_finite_sum(self, size, t_start, t_end):
        # E_n = n (hbar omega = k_B = 1) for n < size, against 50 digits.
        levels = tuple(map(float, range(size)))
        value = multilevel_exchange(LevelSpectrum(levels), t_start, t_end, 1.0)
        with mpmath.workdps(50):
            def mean(t):
                weights = [mpmath.exp(-n / mpmath.mpf(t)) for n in range(size)]
                return sum(n * w for n, w in zip(range(size), weights)) / sum(weights)
            exact = mean(t_end) - mean(t_start)
        bound = 16 * U * (1 + size / min(t_start, t_end)) * stroke_cond(
            levels, t_start, t_end, value)
        assert abs(value - exact) <= bound * abs(exact)

    @pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
    def test_a_truncated_oscillator_tends_to_the_closed_form(self, t):
        # From the ground state (t = 1e-3 leaves every excited weight 0), the
        # stroke absorbs <E>_L = 1/expm1(1/t) - L/expm1(L/t): the closed form
        # of the infinite ladder is met exponentially fast in L.
        closed = 1.0 / math.expm1(1.0 / t)
        for size in (5, 10, 20, 40, 80, 160):
            levels = LevelSpectrum(tuple(map(float, range(size))))
            value = multilevel_exchange(levels, 1e-3, t, 1.0)
            tail = size / math.expm1(size / t)
            assert closed - value == pytest.approx(tail, rel=1e-9, abs=64 * U * closed)
        assert value == pytest.approx(closed, rel=64 * U)
