import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from qtmkit.regions import _REGIONS, _region_index, in_boundary_band


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

    @pytest.mark.parametrize("tol, forward_marker", [
        (0.5, OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS),  # in all three bands
        (0.3, OperationalRegion.BOUNDARY_2ACQ_OUTT),  # in the bands of 1 and 1.5
    ])
    def test_the_first_band_that_holds_wins(self, tol, forward_marker):
        # thresholds 2/3, 1 and 1.5; the bands of 2/3 and 1 hold for forward
        # triples only, so a reversed triple gets the theta_sq marker
        pump = OperationalRegion.BOUNDARY_OUTT_PUMP
        assert classify_region(ExchangeTriple(1.2, -1.0), 1.5, tol) is forward_marker
        assert classify_region(ExchangeTriple(-1.2, 1.0), 1.5, tol) is pump
        index = _region_index(np.array([1.2, 1.2]), np.array([True, False]), 1.5, tol)
        assert [_REGIONS[i] for i in index] == [forward_marker, pump]

    def test_a_ratio_past_the_carnot_bound_has_index_minus_one(self):
        # forward above theta_sq and reversed below it, outside every band;
        # the admissible orientation of each ratio keeps its interval index
        a = np.array([10.0, 2.0, 0.5, 0.1])
        index = _region_index(a, np.array([True, False, False, False]), 5.0)
        assert index.tolist() == [-1, -1, -1, -1]
        index = _region_index(a, np.array([False, True, True, True]), 5.0)
        assert index.tolist() == [3, 2, 1, 0]
        assert _region_index(10.0, True, 5.0) == -1

    @given(theta_sq=st.one_of(st.sampled_from([math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.5,
                                               5.0, 1e308]),
                              st.floats(1.0, 1e300, exclude_min=True)),
           tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]),
           near=st.lists(st.tuples(st.integers(0, 8), st.booleans()), min_size=1),
           other=st.lists(st.tuples(st.floats(0.0, math.inf), st.booleans())))
    def test_region_index_on_floats_is_the_array_paths(self, theta_sq, tol, near, other):
        # each threshold and one ulp either side, inf, and random ratios, in
        # both orientations; at tol 0.5 and small theta_sq the bands overlap
        ratios = [x for t in (1.0 / theta_sq, 1.0, theta_sq)
                  for x in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))]
        cases = ([(ratios[i], forward) for i, forward in near] + other
                 + [(math.inf, True), (math.inf, False)])
        a, forward = (np.array(column) for column in zip(*cases))
        with np.errstate(invalid="ignore"):  # tol 0 times inf: a NaN width, no band
            index, band = (_region_index(a, forward, theta_sq, tol),
                           in_boundary_band(a, theta_sq, tol))
        assert index.tolist() == [_region_index(x, f, theta_sq, tol) for x, f in cases]
        # the theta_sq band, as the rule reads: finite and within tol * x
        assert band.tolist() == [in_boundary_band(x, theta_sq, tol) for x, _ in cases] == [
            abs(x - theta_sq) <= tol * x and x < math.inf for x, _ in cases]

    def test_a_shared_sign_is_one_error_class(self):
        # the pair check behind both functions raises the same class
        for ex in (ExchangeTriple(1.0, 2.0), ExchangeTriple(-1.0, -2.0)):
            with pytest.raises(InvalidSignsError):
                classify_region(ex, 5.0)
            with pytest.raises(UnclassifiableExchangeError):
                alpha_squared(ex)

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


def entropy_production(e_high, e_low, theta_sq) -> Fraction:
    """The reservoirs' entropy change per cycle, times ``t_low``, exactly:
    ``-e_high/theta_sq - e_low`` (the reservoirs lose what the medium absorbs)."""
    return -Fraction(e_high) / Fraction(theta_sq) - Fraction(e_low)


#: theta_sq = 1 + 10**U(-6, 3), as in the sign draws below.
THETAS = st.floats(-6.0, 3.0).map(lambda k: 1.0 + 10.0**k)
MAGNITUDES = st.floats(-5.0, 5.0).map(lambda k: 10.0**k)


class TestSecondLaw:
    """The second law as an oracle for the admissibility rule, independent of
    the closed forms: it follows from the sign convention alone."""

    @given(theta_sq=THETAS, e_low=MAGNITUDES, forward=st.booleans(),
           ratio=MAGNITUDES | st.tuples(st.floats(-11.9, 1.0), st.booleans()))
    @settings(max_examples=300)
    def test_opposite_signs_are_admitted_exactly_when_entropy_grows(
            self, theta_sq, e_low, forward, ratio):
        # alpha_sq drawn at random, or at a relative distance of 10**U(-11.9, 1)
        # from theta_sq; outside 1e-12 of it the rounded ratio keeps its side.
        if isinstance(ratio, tuple):
            k, above = ratio
            ratio = theta_sq * (1.0 + 10.0**k if above else 1.0 / (1.0 + 10.0**k))
        sign = 1.0 if forward else -1.0
        e_high, e_low = sign * ratio * e_low, -sign * e_low
        alpha_sq = -Fraction(e_high) / Fraction(e_low)
        assume(abs(alpha_sq / Fraction(theta_sq) - 1) > Fraction(1e-12))
        try:
            classify_region(ExchangeTriple(e_high, e_low), theta_sq, tol=0.0)
            admitted = True
        except UnclassifiableExchangeError as exc:
            assert type(exc) is UnclassifiableExchangeError  # past Carnot
            admitted = False
        assert admitted is (entropy_production(e_high, e_low, theta_sq) >= 0)

    @given(theta_sq=THETAS, e_high=MAGNITUDES, e_low=MAGNITUDES,
           sign=st.sampled_from((1.0, -1.0)))
    def test_same_signs_are_rejected_whatever_the_entropy(
            self, theta_sq, e_high, e_low, sign):
        # Both absorbed: the second law rejects them (sigma < 0).  Both
        # released: sigma > 0, and the three-pattern rule rejects them.
        sigma = entropy_production(sign * e_high, sign * e_low, theta_sq)
        assert (sigma < 0) is (sign > 0)
        with pytest.raises(InvalidSignsError):
            classify_region(ExchangeTriple(sign * e_high, sign * e_low), theta_sq,
                            tol=0.0)


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
        with pytest.raises(BoundaryRegionError) as info:
            admissible_designs(region)
        assert str(info.value) == (
            f"no design operates on a region boundary ({region.value})")

    def test_every_design_maps_back_to_its_region(self):
        for design in QtmDesign:
            assert design in admissible_designs(design.region)
