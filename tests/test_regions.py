import math

import pytest
from hypothesis import given, strategies as st

from qtmkit import (
    BoundaryRegionError,
    DegenerateExchangeError,
    ExchangeTriple,
    InvalidSignsError,
    InvalidThetaError,
    OperationalRegion,
    QtmDesign,
    UnclassifiableExchangeError,
    ValidationError,
    admissible_designs,
    alpha_squared,
    classify_region,
)


class TestExchangeTriple:
    def test_e_out_is_the_sum(self):
        ex = ExchangeTriple(e_high=2.0, e_low=-0.5)
        assert ex.e_out == 1.5
        assert ex.e_out - (ex.e_high + ex.e_low) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ExchangeTriple(math.nan, 1.0)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_conservation_exact_for_any_pair(self, e_high, e_low):
        ex = ExchangeTriple(e_high, e_low)
        assert ex.e_out - (ex.e_high + ex.e_low) == 0.0


class TestAlphaSquared:
    @pytest.mark.parametrize(
        "e_high, e_low, expected",
        [(1.0, -2.0, 0.5), (2.0, -1.0, 2.0), (-5.0, 1.0, 5.0)],
    )
    def test_values(self, e_high, e_low, expected):
        assert alpha_squared(ExchangeTriple(e_high, e_low)) == expected

    @pytest.mark.parametrize("e_high, e_low", [(0.0, -1.0), (1.0, 0.0), (0.0, 0.0)])
    def test_degenerate(self, e_high, e_low):
        with pytest.raises(DegenerateExchangeError):
            alpha_squared(ExchangeTriple(e_high, e_low))

    @pytest.mark.parametrize("e_high, e_low", [(1.0, 2.0), (-1.0, -2.0)])
    def test_same_sign(self, e_high, e_low):
        with pytest.raises(InvalidSignsError):
            alpha_squared(ExchangeTriple(e_high, e_low))

    def test_wrapper_requires_positive(self):
        # valid exchanges whose ratio underflows to 0 or overflows
        with pytest.raises(ValidationError):
            alpha_squared(ExchangeTriple(1e-300, -1e300))
        with pytest.raises(ValidationError):
            alpha_squared(ExchangeTriple(1e300, -1e-300))


class TestClassifyRegion:
    @pytest.mark.parametrize(
        "e_high, e_low, theta_sq, expected",
        [
            (1.0, -2.0, 5.0, OperationalRegion.TWO_ACQUIRERS_HIGH),
            (0.1, -2.0, 5.0, OperationalRegion.TWO_ACQUIRERS_OUT),
            (2.0, -1.0, 5.0, OperationalRegion.OUT_TRANSFERS),
            (-5.0, 1.0, 4.0, OperationalRegion.PUMPERS),
            (1.0, -5.0, 5.0, OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS),
            (1.0, -1.0, 5.0, OperationalRegion.BOUNDARY_2ACQ_OUTT),
            (5.0, -1.0, 5.0, OperationalRegion.BOUNDARY_OUTT_PUMP),
            (-5.0, 1.0, 5.0, OperationalRegion.BOUNDARY_OUTT_PUMP),
        ],
    )
    def test_examples(self, e_high, e_low, theta_sq, expected):
        assert classify_region(ExchangeTriple(e_high, e_low), theta_sq) is expected

    def test_sign_patterns_per_region(self):
        # every non-boundary region fixes the sign of all three energies
        two_acq = ExchangeTriple(1.0, -2.0)
        assert two_acq.e_high > 0 and two_acq.e_low < 0 and two_acq.e_out < 0
        out_t = ExchangeTriple(2.0, -1.0)
        assert out_t.e_high > 0 and out_t.e_low < 0 and out_t.e_out > 0
        pump = ExchangeTriple(-5.0, 1.0)
        assert pump.e_high < 0 and pump.e_low > 0 and pump.e_out < 0

    @pytest.mark.parametrize(
        "e_high, e_low, theta_sq",
        [
            (1.0, 2.0, 5.0),  # both absorbed
            (-1.0, -2.0, 5.0),  # both released
            (10.0, -1.0, 5.0),  # engine pattern beyond the Carnot ratio
            (-2.0, 1.0, 5.0),  # pump pattern below the Carnot ratio
        ],
    )
    def test_inadmissible_patterns(self, e_high, e_low, theta_sq):
        with pytest.raises(UnclassifiableExchangeError):
            classify_region(ExchangeTriple(e_high, e_low), theta_sq)

    def test_zero_exchange_is_degenerate(self):
        with pytest.raises(DegenerateExchangeError):
            classify_region(ExchangeTriple(0.0, -1.0), 5.0)
        with pytest.raises(DegenerateExchangeError):
            classify_region(ExchangeTriple(1.0, 0.0), 5.0)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
    def test_an_infinite_ratio_lies_in_no_boundary_band(self, tol):
        # -e_high/e_low overflows: past the Carnot ratio of a forward
        # triple, deep in the Pumpers region of a reversed one
        with pytest.raises(UnclassifiableExchangeError):
            classify_region(ExchangeTriple(1e300, -1e-300), 5.0, tol)
        reversed_ = ExchangeTriple(-1e300, 1e-300)
        assert classify_region(reversed_, 5.0, tol) is OperationalRegion.PUMPERS

    def test_tolerance_band_is_relative(self):
        # 2e-10 off the subregion threshold: inside the default 1e-9 band
        near = ExchangeTriple(0.2 * (1 + 2e-10), -1.0)
        assert (
            classify_region(near, 5.0)
            is OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS
        )
        # with tol=0 the same triple falls in the adjacent subregion
        assert classify_region(near, 5.0, tol=0.0) is (
            OperationalRegion.TWO_ACQUIRERS_HIGH
        )

    def test_rejects_bad_theta_and_tol(self):
        ex = ExchangeTriple(1.0, -2.0)
        with pytest.raises(InvalidThetaError):
            classify_region(ex, 1.0)
        with pytest.raises(InvalidThetaError):
            classify_region(ex, 0.5)
        with pytest.raises(ValidationError):
            classify_region(ex, 5.0, tol=-1e-3)

    @given(
        e_high=st.floats(1e-3, 1e3),
        ratio=st.floats(1e-3, 1e3),
        scale=st.floats(1e-6, 1e6),
        theta_sq=st.floats(1.1, 50.0),
    )
    def test_scale_invariance(self, e_high, ratio, scale, theta_sq):
        ex = ExchangeTriple(e_high, -e_high / ratio)
        scaled = ExchangeTriple(scale * ex.e_high, scale * ex.e_low)
        try:
            region = classify_region(ex, theta_sq)
        except UnclassifiableExchangeError:
            with pytest.raises(UnclassifiableExchangeError):
                classify_region(scaled, theta_sq)
            return
        assert classify_region(scaled, theta_sq) is region
        assert alpha_squared(scaled) == pytest.approx(alpha_squared(ex), rel=1e-12)

    @given(
        alpha_sq=st.floats(1e-3, 1e3),
        theta_sq=st.floats(1.1, 50.0),
    )
    def test_interval_consistency(self, alpha_sq, theta_sq):
        # keep clear of the boundary bands so the expectation is unambiguous
        for threshold in (1.0 / theta_sq, 1.0, theta_sq):
            if abs(alpha_sq - threshold) <= 1e-6 * threshold:
                return
        forward = alpha_sq < theta_sq
        ex = (
            ExchangeTriple(alpha_sq, -1.0)
            if forward
            else ExchangeTriple(-alpha_sq, 1.0)
        )
        region = classify_region(ex, theta_sq)
        if alpha_sq < 1.0 / theta_sq:
            assert region is OperationalRegion.TWO_ACQUIRERS_OUT
        elif alpha_sq < 1.0:
            assert region is OperationalRegion.TWO_ACQUIRERS_HIGH
        elif alpha_sq < theta_sq:
            assert region is OperationalRegion.OUT_TRANSFERS
        else:
            assert region is OperationalRegion.PUMPERS

    def test_negated_pumpers_triple_has_engine_signs(self):
        pump = ExchangeTriple(-5.0, 1.0)
        assert classify_region(pump, 4.0) is OperationalRegion.PUMPERS
        mirrored = ExchangeTriple(-pump.e_high, -pump.e_low)
        assert mirrored.e_high > 0 and mirrored.e_low < 0 and mirrored.e_out > 0
        assert alpha_squared(mirrored) == alpha_squared(pump)
        # same ratio, other orientation: now super-Carnot, hence rejected
        with pytest.raises(UnclassifiableExchangeError):
            classify_region(mirrored, 4.0)


class TestAdmissibleDesigns:
    @pytest.mark.parametrize(
        "region, expected",
        [
            (OperationalRegion.TWO_ACQUIRERS_OUT, {QtmDesign.QCO, QtmDesign.QHT}),
            (OperationalRegion.TWO_ACQUIRERS_HIGH, {QtmDesign.QDP, QtmDesign.QHO}),
            (OperationalRegion.OUT_TRANSFERS, {QtmDesign.QEN, QtmDesign.QLL}),
            (OperationalRegion.PUMPERS, {QtmDesign.QRE, QtmDesign.QHP}),
        ],
    )
    def test_region_pairs(self, region, expected):
        assert admissible_designs(region) == frozenset(expected)

    @pytest.mark.parametrize(
        "region",
        [
            OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS,
            OperationalRegion.BOUNDARY_2ACQ_OUTT,
            OperationalRegion.BOUNDARY_OUTT_PUMP,
        ],
    )
    def test_boundaries_have_no_designs(self, region):
        assert region.is_boundary
        with pytest.raises(BoundaryRegionError):
            admissible_designs(region)

    def test_every_design_maps_back_to_its_region(self):
        for design in QtmDesign:
            assert design in admissible_designs(design.region)
