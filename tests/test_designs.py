import copy
import math
import pickle
import re
from enum import Enum, unique
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qtmkit import (
    AlphaBounds,
    CarnotLimitKind,
    EnergyRole,
    ExchangeTriple,
    InvalidRhoError,
    InvalidThetaError,
    MediumKind,
    OperationalRegion,
    OutOfRegionError,
    QtmDesign,
    SingularEfficiencyError,
    ValidationError,
    alpha_bounds,
    boundary_report,
    carnot_efficiency,
    classical_otto_efficiency,
    classify_region,
    designs,
    efficiency,
)
from qtmkit.regions import _Enum

LOW_GROUP = (QtmDesign.QCO, QtmDesign.QHT, QtmDesign.QDP, QtmDesign.QHO)
HIGH_GROUP = (QtmDesign.QEN, QtmDesign.QLL, QtmDesign.QRE, QtmDesign.QHP)

inside_low = st.floats(1e-6, 1.0, exclude_max=True)
inside_high = st.floats(1.0, 1e6, exclude_min=True)
thetas = st.floats(1.0, 100.0, exclude_min=True)

Q = QtmDesign
#: The paper's closed forms: each design's efficiency at ``alpha_sq = a`` and
#: its Carnot value at ``theta_sq = t``.  qtmkit derives both from the
#: design's roles; these are the independent reference.
PAPER_EFFICIENCY = {
    Q.QCO: lambda a: a / (1.0 - a),
    Q.QHT: lambda a: 1.0 / (1.0 - a),
    Q.QDP: lambda a: (1.0 - a) / a,
    Q.QHO: lambda a: 1.0 / a,
    Q.QEN: lambda a: (a - 1.0) / a,
    Q.QLL: lambda a: 1.0 / a,
    Q.QRE: lambda a: 1.0 / (a - 1.0),
    Q.QHP: lambda a: a / (a - 1.0),
}
PAPER_CARNOT = {
    Q.QCO: lambda t: 1.0 / (t - 1.0),
    Q.QHT: lambda t: t / (t - 1.0),
    Q.QDP: lambda t: t - 1.0,
    Q.QHO: lambda t: t,
    Q.QEN: lambda t: (t - 1.0) / t,
    Q.QLL: lambda t: 1.0 / t,
    Q.QRE: lambda t: 1.0 / (t - 1.0),
    Q.QHP: lambda t: t / (t - 1.0),
}
#: The efficiency's limit at the end of its interval away from the Carnot
#: value, and an ``alpha_sq`` inside the interval close to that end.
PAPER_FAR_LIMIT = {
    Q.QCO: (0.0, 1e-300), Q.QHT: (1.0, 1e-300),
    Q.QDP: (0.0, 1.0 - 1e-12), Q.QHO: (1.0, 1.0 - 1e-12),
    Q.QEN: (0.0, 1.0 + 1e-12), Q.QLL: (1.0, 1.0 + 1e-12),
    Q.QRE: (0.0, 1e300), Q.QHP: (1.0, 1e300),
}

below_one = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
above_one = st.floats(1.0, 1e300, exclude_min=True)


class TestPaperClosedForms:
    @given(low=st.lists(below_one, min_size=1, max_size=8),
           high=st.lists(above_one, min_size=1, max_size=8))
    def test_efficiency_is_the_paper_form_bit_for_bit(self, low, high):
        for group, values in ((LOW_GROUP, low), (HIGH_GROUP, high)):
            grid = np.array(sorted(values))
            for design in group:
                paper = PAPER_EFFICIENCY[design]
                for a in values:
                    assert efficiency(design, a) == paper(a)
                with np.errstate(over="ignore"):  # a/(1-a) and 1/a at 5e-324
                    assert np.array_equal(
                        designs._efficiencies(design, grid), paper(grid))

    @given(theta_sq=st.floats(1.0, math.exp(20), exclude_min=True))
    def test_carnot_is_the_paper_form_bit_for_bit(self, theta_sq):
        for design in QtmDesign:
            assert carnot_efficiency(design, theta_sq) == (
                PAPER_CARNOT[design](theta_sq))

    @pytest.mark.parametrize("design", QtmDesign)
    def test_far_end_limits(self, design):
        limit, near = PAPER_FAR_LIMIT[design]
        assert designs._FAR_LIMIT[design] == limit
        assert PAPER_EFFICIENCY[design](near) == pytest.approx(limit, abs=1e-11)


def readme_signs():
    """Each design's sign pattern of ``(e_high, e_low, e_out)``, from the
    region table of README.md."""
    text = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    rows = re.findall(r"^\|[^|]*\| `([-+]), ([-+]), ([-+])` *\| ([A-Z, ]+?) *\|$",
                      text, re.MULTILINE)
    return {QtmDesign(name): signs
            for *signs, names in rows for name in names.split(", ")}


#: Each role's signed exchange, positive when the exchange takes place.
SIGNED_EXCHANGE = {
    EnergyRole.ABSORB_HIGH: lambda ex: ex.e_high,
    EnergyRole.RELEASE_HIGH: lambda ex: -ex.e_high,
    EnergyRole.ABSORB_LOW: lambda ex: ex.e_low,
    EnergyRole.RELEASE_LOW: lambda ex: -ex.e_low,
    EnergyRole.GENERATE_OUTSIDE: lambda ex: ex.e_out,
    EnergyRole.RECEIVE_OUTSIDE: lambda ex: -ex.e_out,
}


def exact_ratio(design, e_high, e_low):
    """|target|/|source| of ``design`` at an exact triple of Fractions."""
    ex = SimpleNamespace(e_high=e_high, e_low=e_low, e_out=e_high + e_low)
    return SIGNED_EXCHANGE[design.target](ex) / SIGNED_EXCHANGE[design.source](ex)


def test_readme_sign_table_names_every_design():
    assert set(readme_signs()) == set(QtmDesign)


@given(theta_sq=st.floats(1.01, 100.0), u=st.floats(0.01, 0.99))
def test_roles_take_place_in_the_region_triple(theta_sq, u):
    # The region triple is (a, -1), or (-a, 1) in Pumpers; in it, the target
    # and the source of every design of that region take place.
    signs = readme_signs()
    for design in QtmDesign:
        bounds = alpha_bounds(design, theta_sq)
        lo, hi = bounds.alpha_sq_min, bounds.alpha_sq_max
        a = lo / u if hi == math.inf else lo + u * (hi - lo)
        pumpers = design.region is OperationalRegion.PUMPERS
        ex = ExchangeTriple(-a, 1.0) if pumpers else ExchangeTriple(a, -1.0)
        assert classify_region(ex, theta_sq) is design.region
        assert ["+" if e > 0.0 else "-" for e in (ex.e_high, ex.e_low, ex.e_out)] == (
            signs[design])
        assert SIGNED_EXCHANGE[design.target](ex) > 0.0
        assert SIGNED_EXCHANGE[design.source](ex) > 0.0


class TestEfficiency:
    @pytest.mark.parametrize(
        "design, alpha_sq, expected",
        [
            (QtmDesign.QEN, 2.0, 0.5),
            (QtmDesign.QLL, 2.0, 0.5),
            (QtmDesign.QRE, 2.0, 1.0),
            (QtmDesign.QHP, 2.0, 2.0),
            (QtmDesign.QCO, 0.5, 1.0),
            (QtmDesign.QHT, 0.5, 2.0),
            (QtmDesign.QDP, 0.5, 1.0),
            (QtmDesign.QHO, 0.5, 2.0),
        ],
    )
    def test_examples(self, design, alpha_sq, expected):
        assert efficiency(design, alpha_sq) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("design", LOW_GROUP)
    def test_low_group_domain(self, design):
        with pytest.raises(SingularEfficiencyError):
            efficiency(design, 0.0)
        with pytest.raises(SingularEfficiencyError):
            efficiency(design, 1.0)
        with pytest.raises(OutOfRegionError):
            efficiency(design, 2.0)
        with pytest.raises(OutOfRegionError):
            efficiency(design, -0.5)

    @pytest.mark.parametrize("design", HIGH_GROUP)
    def test_high_group_domain(self, design):
        with pytest.raises(SingularEfficiencyError):
            efficiency(design, 1.0)
        with pytest.raises(OutOfRegionError):
            efficiency(design, 0.5)
        with pytest.raises(OutOfRegionError):
            efficiency(design, math.inf)

    @pytest.mark.parametrize("design, edge, limit", [
        (Q.QCO, 0.0, 0.0), (Q.QCO, 1.0, None), (Q.QHT, 0.0, 1.0), (Q.QHT, 1.0, None),
        (Q.QDP, 0.0, None), (Q.QDP, 1.0, 0.0), (Q.QHO, 0.0, None), (Q.QHO, 1.0, 1.0),
        (Q.QEN, 1.0, 0.0), (Q.QLL, 1.0, 1.0), (Q.QRE, 1.0, None), (Q.QHP, 1.0, None),
    ])
    def test_each_finite_edge_names_its_limit(self, design, edge, limit):
        # The twelve finite ends of the design intervals; None: it diverges.
        with pytest.raises(SingularEfficiencyError) as info:
            efficiency(design, edge)
        tail = "diverges" if limit is None else f"tends to {limit!r}"
        assert str(info.value) == (f"{design.value} efficiency is undefined at the "
                                   f"region edge alpha_sq={edge!r}, where it {tail}")
        # The paper's form one ulp inside the interval agrees.
        near = PAPER_EFFICIENCY[design](
            math.nextafter(edge, 0.5 if design in LOW_GROUP else 2.0))
        assert near > 1e15 if limit is None else near == pytest.approx(limit, abs=1e-15)

    @given(alpha_sq=inside_low)
    def test_low_group_positive(self, alpha_sq):
        for design in LOW_GROUP:
            assert efficiency(design, alpha_sq) > 0.0

    @given(alpha_sq=inside_high)
    def test_high_group_positive(self, alpha_sq):
        for design in HIGH_GROUP:
            assert efficiency(design, alpha_sq) > 0.0

    @given(a=st.floats(1e-6, 0.999), b=st.floats(0.0, 1.0, exclude_min=True,
                                                 exclude_max=True))
    def test_monotonic_directions_low(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            return
        assert efficiency(QtmDesign.QCO, lo) < efficiency(QtmDesign.QCO, hi)
        assert efficiency(QtmDesign.QHT, lo) < efficiency(QtmDesign.QHT, hi)
        assert efficiency(QtmDesign.QDP, lo) > efficiency(QtmDesign.QDP, hi)
        assert efficiency(QtmDesign.QHO, lo) > efficiency(QtmDesign.QHO, hi)

    @given(a=inside_high, b=inside_high)
    def test_monotonic_directions_high(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            return
        assert efficiency(QtmDesign.QEN, lo) < efficiency(QtmDesign.QEN, hi)
        assert efficiency(QtmDesign.QLL, lo) > efficiency(QtmDesign.QLL, hi)
        assert efficiency(QtmDesign.QRE, lo) > efficiency(QtmDesign.QRE, hi)
        assert efficiency(QtmDesign.QHP, lo) > efficiency(QtmDesign.QHP, hi)

    @given(alpha_sq=inside_low)
    def test_dominance_in_two_acquirers(self, alpha_sq):
        assert efficiency(QtmDesign.QHT, alpha_sq) > efficiency(
            QtmDesign.QCO, alpha_sq
        )
        assert efficiency(QtmDesign.QHO, alpha_sq) > efficiency(
            QtmDesign.QDP, alpha_sq
        )

    @given(alpha_sq=inside_high)
    def test_dominance_and_complementarity_above_one(self, alpha_sq):
        assert efficiency(QtmDesign.QHP, alpha_sq) > efficiency(
            QtmDesign.QRE, alpha_sq
        )
        qen = efficiency(QtmDesign.QEN, alpha_sq)
        qll = efficiency(QtmDesign.QLL, alpha_sq)
        assert qen + qll == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < qen < 1.0 and 0.0 < qll < 1.0


class TestCarnotEfficiency:
    def test_values_at_theta_five(self):
        expected = {
            QtmDesign.QEN: 0.8,
            QtmDesign.QLL: 0.2,
            QtmDesign.QCO: 0.25,
            QtmDesign.QRE: 0.25,
            QtmDesign.QHT: 1.25,
            QtmDesign.QHP: 1.25,
            QtmDesign.QDP: 4.0,
            QtmDesign.QHO: 5.0,
        }
        for design, value in expected.items():
            assert carnot_efficiency(design, 5.0) == pytest.approx(
                value, abs=1e-12
            )

    @pytest.mark.parametrize("theta_sq", [1.0, 0.9, -3.0, math.nan])
    def test_invalid_theta(self, theta_sq):
        with pytest.raises(InvalidThetaError):
            carnot_efficiency(QtmDesign.QEN, theta_sq)

    @given(theta_sq=thetas)
    def test_shared_closed_forms(self, theta_sq):
        assert carnot_efficiency(QtmDesign.QCO, theta_sq) == carnot_efficiency(
            QtmDesign.QRE, theta_sq
        )
        assert carnot_efficiency(QtmDesign.QHT, theta_sq) == carnot_efficiency(
            QtmDesign.QHP, theta_sq
        )

    # theta_sq is kept away from 1: there the bounding ratio 1/theta_sq is
    # not exactly representable and the pole at alpha_sq = 1 amplifies its
    # rounding far beyond any fixed relative tolerance.
    @given(theta_sq=st.floats(1.001, 1e6))
    def test_carnot_is_efficiency_at_the_bounding_ratio(self, theta_sq):
        for design in QtmDesign:
            bounds = alpha_bounds(design, theta_sq)
            at_bound = efficiency(design, bounds.carnot_alpha_sq)
            assert at_bound == pytest.approx(
                carnot_efficiency(design, theta_sq), rel=1e-12
            )

    # The second law pins the Carnot value of the four designs whose interval
    # ends at alpha_sq = theta_sq, the one ratio where sigma = 0.  The
    # 2Acquirers designs meet theirs at alpha_sq = 1/theta_sq, where
    # sigma * t_low = |e_low| * (1 - theta_sq**-2) > 0: there the value is the
    # paper's subregion definition, not the second law.
    @given(design=st.sampled_from(HIGH_GROUP), k=st.floats(-12.0, 6.0),
           j=st.floats(-12.0, 6.0))
    @settings(max_examples=300)
    def test_the_second_law_puts_the_efficiency_on_its_carnot_side(
            self, design, k, j):
        theta_sq = 1.0 + 10.0**k
        bounds = alpha_bounds(design, theta_sq)
        # Pumpers: alpha_sq = theta_sq * (1 + 10**j) and the triple (-a, 1).
        # OutTransfers: alpha_sq a share 10**j/(1 + 10**j) of the way from
        # theta_sq down to 1, and the triple (a, -1).
        pumpers = bounds.alpha_sq_max == math.inf
        alpha_sq = (theta_sq * (1.0 + 10.0**j) if pumpers
                    else theta_sq - (theta_sq - 1.0) * (10.0**j / (1.0 + 10.0**j)))
        assume(bounds.contains(alpha_sq))
        a, t = Fraction(alpha_sq), Fraction(theta_sq)
        assume(abs(a / t - 1) > Fraction(1e-12))
        sign = -1 if pumpers else 1
        # sigma * t_low = -e_high/theta_sq - e_low, exactly.
        assert -sign * a / t + sign > 0
        exact = exact_ratio(design, sign * a, Fraction(-sign))
        exact_carnot = exact_ratio(design, sign * t, Fraction(-sign))
        value = efficiency(design, alpha_sq)
        carnot = carnot_efficiency(design, theta_sq)
        # In floats a far alpha_sq at a large theta_sq may round to a tie.
        if bounds.carnot_limit_kind is CarnotLimitKind.MAXIMUM:
            assert exact < exact_carnot and value <= carnot
        else:
            assert exact > exact_carnot and value >= carnot

    @pytest.mark.parametrize("theta_sq", [1.0 + 1e-12, 1.5, 5.0, 1e6])
    @pytest.mark.parametrize("design", HIGH_GROUP)
    def test_the_efficiency_at_zero_entropy_production_is_the_carnot_value(
            self, design, theta_sq):
        assert efficiency(design, theta_sq) == carnot_efficiency(design, theta_sq)


class TestAlphaBounds:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError, match="alpha_sq_min must be below"):
            AlphaBounds(2.0, 1.0, CarnotLimitKind.MAXIMUM, 1.0)

    @pytest.mark.parametrize(
        "design, expected_min, expected_max, kind",
        [
            (QtmDesign.QCO, 0.0, 0.2, CarnotLimitKind.MAXIMUM),
            (QtmDesign.QHT, 0.0, 0.2, CarnotLimitKind.MAXIMUM),
            (QtmDesign.QDP, 0.2, 1.0, CarnotLimitKind.MAXIMUM),
            (QtmDesign.QHO, 0.2, 1.0, CarnotLimitKind.MAXIMUM),
            (QtmDesign.QEN, 1.0, 5.0, CarnotLimitKind.MAXIMUM),
            (QtmDesign.QLL, 1.0, 5.0, CarnotLimitKind.MINIMUM),
            (QtmDesign.QRE, 5.0, math.inf, CarnotLimitKind.MAXIMUM),
            (QtmDesign.QHP, 5.0, math.inf, CarnotLimitKind.MAXIMUM),
        ],
    )
    def test_at_theta_five(self, design, expected_min, expected_max, kind):
        bounds = alpha_bounds(design, 5.0)
        assert bounds.alpha_sq_min == pytest.approx(expected_min, abs=1e-15)
        assert bounds.alpha_sq_max == pytest.approx(expected_max, rel=1e-15)
        assert bounds.carnot_limit_kind is kind

    def test_only_the_laser_like_design_is_floored(self):
        floored = [
            d
            for d in QtmDesign
            if alpha_bounds(d, 3.0).carnot_limit_kind is CarnotLimitKind.MINIMUM
        ]
        assert floored == [QtmDesign.QLL]

    @given(theta_sq=thetas)
    def test_bounds_sit_inside_the_region_interval(self, theta_sq):
        for design in QtmDesign:
            bounds = alpha_bounds(design, theta_sq)
            assert bounds.alpha_sq_min < bounds.alpha_sq_max
            if design.region in (
                OperationalRegion.TWO_ACQUIRERS_OUT,
                OperationalRegion.TWO_ACQUIRERS_HIGH,
            ):
                assert 0.0 <= bounds.alpha_sq_min < bounds.alpha_sq_max <= 1.0
            else:
                assert bounds.alpha_sq_min >= 1.0

    @given(theta_sq=thetas)
    def test_intersections_are_shared_endpoints(self, theta_sq):
        thresholds = boundary_report(theta_sq)
        assert alpha_bounds(QtmDesign.QCO, theta_sq).alpha_sq_max == (
            thresholds.alpha_sq_subregion
        )
        assert alpha_bounds(QtmDesign.QDP, theta_sq).alpha_sq_min == (
            thresholds.alpha_sq_subregion
        )
        assert alpha_bounds(QtmDesign.QHO, theta_sq).alpha_sq_max == (
            thresholds.alpha_sq_2acq_outt
        )
        assert alpha_bounds(QtmDesign.QEN, theta_sq).alpha_sq_min == (
            thresholds.alpha_sq_2acq_outt
        )
        assert alpha_bounds(QtmDesign.QEN, theta_sq).alpha_sq_max == (
            thresholds.alpha_sq_outt_pump
        )
        assert alpha_bounds(QtmDesign.QRE, theta_sq).alpha_sq_min == (
            thresholds.alpha_sq_outt_pump
        )


def alpha_sq_thresholds(theta_sq):
    report = boundary_report(theta_sq)
    return (report.alpha_sq_subregion, report.alpha_sq_2acq_outt,
            report.alpha_sq_outt_pump)


class TestIntersections:
    def test_theta_five(self):
        thresholds = boundary_report(5.0)
        assert alpha_sq_thresholds(5.0) == (0.2, 1.0, 5.0)
        # as compression ratios these are the published crossing points
        assert math.sqrt(thresholds.alpha_sq_subregion) == pytest.approx(
            0.447, abs=5e-4
        )
        assert math.sqrt(thresholds.alpha_sq_outt_pump) == pytest.approx(
            2.236, abs=5e-4
        )

    def test_theta_four(self):
        assert alpha_sq_thresholds(4.0) == (0.25, 1.0, 4.0)

    def test_collapse_toward_degenerate_reservoirs(self):
        for value in alpha_sq_thresholds(1.0 + 1e-9):
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_invalid_theta(self):
        with pytest.raises(InvalidThetaError):
            boundary_report(1.0)


class TestClassicalOtto:
    @pytest.mark.parametrize(
        "rho, expected",
        [(8.0, 0.75), (27.0, 1.0 - 1.0 / 9.0), (1.0 + 1e-9, 6.67e-10)],
    )
    def test_examples(self, rho, expected):
        assert classical_otto_efficiency(rho) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("rho", [1.0, 0.5, -2.0, math.inf])
    def test_invalid_rho(self, rho):
        with pytest.raises(InvalidRhoError):
            classical_otto_efficiency(rho)

    @given(rho=st.floats(1.0, 1e9, exclude_min=True))
    def test_bounded_in_unit_interval(self, rho):
        value = classical_otto_efficiency(rho)
        assert 0.0 < value < 1.0


class TestDesignMetadata:
    def test_targets_and_sources(self):
        assert QtmDesign.QEN.target is EnergyRole.GENERATE_OUTSIDE
        assert QtmDesign.QEN.source is EnergyRole.ABSORB_HIGH
        assert QtmDesign.QLL.target is EnergyRole.RELEASE_LOW
        assert QtmDesign.QRE.target is EnergyRole.ABSORB_LOW
        assert QtmDesign.QRE.source is EnergyRole.RECEIVE_OUTSIDE
        assert QtmDesign.QHP.target is EnergyRole.RELEASE_HIGH
        assert QtmDesign.QCO.target is EnergyRole.ABSORB_HIGH
        assert QtmDesign.QHT.target is EnergyRole.RELEASE_LOW
        assert QtmDesign.QDP.target is EnergyRole.RECEIVE_OUTSIDE
        assert QtmDesign.QHO.target is EnergyRole.RELEASE_LOW

    def test_region_assignment(self):
        assert QtmDesign.QCO.region is OperationalRegion.TWO_ACQUIRERS_OUT
        assert QtmDesign.QDP.region is OperationalRegion.TWO_ACQUIRERS_HIGH
        assert QtmDesign.QEN.region is OperationalRegion.OUT_TRANSFERS
        assert QtmDesign.QHP.region is OperationalRegion.PUMPERS


#: Every enum of the package; each derives from the one member-less base.
PACKAGE_ENUMS = (OperationalRegion, EnergyRole, QtmDesign, CarnotLimitKind,
                 MediumKind)


@pytest.mark.parametrize("member", [m for kind in PACKAGE_ENUMS for m in kind],
                         ids=lambda m: m.value)
def test_a_member_is_a_key_and_its_copies_are_the_member(member):
    # Every package enum hashes by identity (object.__hash__), not by name.
    kind = type(member)
    assert hash(member) == object.__hash__(member)
    assert (member.value, member.name) == (member._value_, member._name_)
    assert {member: 1}[member] == 1
    assert member in {member} and member in frozenset(kind)
    assert set(kind) == set(kind.__members__.values())
    for other in (pickle.loads(pickle.dumps(member)), copy.deepcopy(member),
                  copy.copy(member), kind(member.value), kind[member.name]):
        assert other is member
        assert {member: 1}[other] == 1 and other in frozenset([member])
        if kind is QtmDesign:
            assert designs.CATALOG[other].region in designs._PAIRS
            assert other in designs._PAIRS[other.region]
        elif kind is OperationalRegion and not other.is_boundary:
            assert designs._PAIRS[other] == tuple(
                d for d in QtmDesign if d.region is member)


def test_the_identity_hash_adds_no_member():
    assert QtmDesign.__hash__ is OperationalRegion.__hash__ is object.__hash__
    assert [m.name for m in QtmDesign] == [
        "QCO", "QHT", "QDP", "QHO", "QEN", "QLL", "QRE", "QHP"]
    assert list(QtmDesign.__members__) == [m.name for m in QtmDesign]
    assert list(OperationalRegion.__members__) == [m.name for m in OperationalRegion]
    assert len(OperationalRegion) == 7


@pytest.mark.parametrize("kind", PACKAGE_ENUMS, ids=lambda k: k.__name__)
def test_the_enum_base_changes_no_member(kind):
    # against a plain Enum of the same members: lookups, order and spelling
    twin = Enum(kind.__name__, [(m.name, m.value) for m in kind])
    assert issubclass(kind, _Enum) and kind.__hash__ is object.__hash__
    assert list(kind.__members__) == list(twin.__members__)
    for member, plain in zip(kind, twin, strict=True):
        assert kind(plain.value) is member and kind[plain.name] is member
        assert (member.name, member.value) == (plain.name, plain.value)
        assert (repr(member), str(member), f"{member}") == (repr(plain), str(plain), f"{plain}")
    with pytest.raises(ValueError, match="duplicate values"):
        unique(_Enum("Twice", [("A", 1), ("B", 1)]))


def test_the_enum_properties_read_as_before():
    assert [r.is_boundary for r in OperationalRegion] == [False] * 4 + [True] * 3
    for design, row in designs.CATALOG.items():
        assert (design.region, design.target, design.source) == tuple(row)
