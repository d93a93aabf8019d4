"""The array sweep kernel against a 50-digit oracle and the scalar API.

The sweep evaluates its whole grid in one numpy pass; the scalar functions
evaluate one point.  Both compute the excited-occupation difference in a form
that does not cancel, so the exchanges stay non-zero, and the region right,
arbitrarily close to the reversible ratio.
"""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qtmkit
from conftest import mpmath_cycle_energies, mpmath_ring_energies
from qtmkit import (
    CODATA,
    DEFAULT_CLASSIFY_TOL,
    DegenerateExchangeError,
    ExchangeTriple,
    InvalidSignsError,
    MediumKind,
    OperationalRegion,
    PhysicalConstants,
    QtmDesign,
    SingularEfficiencyError,
    SweepSpec,
    UnclassifiableExchangeError,
    ValidationError,
    admissible_designs,
    alpha_bounds,
    boundary_report,
    carnot_efficiency,
    classify_region,
    default_rho_grid,
    efficiency,
    efficiency_curves,
    emit,
    gap_medium,
    otto_cycle_energies,
    parse_records,
    ring_medium,
    run_sweep,
)

from qtmkit import otto
from qtmkit.regions import _REGIONS, _region_index
from qtmkit.sweep import _classify

REDUCED = PhysicalConstants.reduced()


def rel_err(value, exact):
    return float(abs((value - exact) / exact))


def test_reference_sweep_energies_match_mpmath():
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=default_rho_grid(5.0),
                     r_low=1e-7)
    records, _ = run_sweep(spec, CODATA)
    worst = 0.0
    for record in records:
        if record.region.is_boundary:
            continue
        e_high, e_low = mpmath_ring_energies(record.rho, 1e-7, 1.0, 5.0, CODATA)
        worst = max(worst, rel_err(record.e_high, e_high),
                    rel_err(record.e_low, e_low))
    assert worst <= 1e-12


def test_near_reversible_high_temperature_cycle_does_not_cancel():
    # the two occupations agree to about 16 digits; their difference does not
    medium = gap_medium(1e-10, 5.0 * (1.0 - 1e-7))
    energies = otto_cycle_energies(medium, 1.0, 5.0, 1.0)
    e_high, e_low = mpmath_cycle_energies(medium.gap_low, medium.gap_high,
                                          1.0, 5.0)
    assert energies.e_high_gamma == pytest.approx(float(e_high), rel=1e-8)
    assert energies.e_low_gamma == pytest.approx(float(e_low), rel=1e-8)
    assert 1e-27 < energies.e_high_gamma < 2e-27


#: The unit roundoff of a double, and its smallest subnormal.
U, TINY = 2.0**-53, math.ldexp(1.0, -1074)


@st.composite
def random_sweeps(draw, ring):
    """A random sweep of either medium kind, with half of its grid packed
    within 1e-15 to 1e-3 (relative) of the reversible ratio sqrt(theta_sq)."""
    exponent = st.floats  # of 10
    theta_sq = 1.0 + 10.0 ** draw(exponent(-10.0, 4.0) if ring
                                  else exponent(-13.0, 6.0))
    root = math.sqrt(theta_sq)
    n = draw(st.integers(2, 20))
    near = [root * (1.0 + draw(st.sampled_from((-1.0, 1.0))) * 10.0**e)
            for e in draw(st.lists(exponent(-15.0, -3.0), min_size=n, max_size=n))]
    wide = draw(st.lists(st.floats(0.05, 1.5 * root), min_size=n, max_size=n))
    grid = tuple(sorted(set(near + wide)))
    t_low = 10.0 ** draw(exponent(-2.0, 3.0))
    if ring:
        return SweepSpec(t_low=t_low, theta_sq=theta_sq, rho_grid=grid,
                         r_low=10.0 ** draw(exponent(-9.0, -5.5)))
    return SweepSpec(t_low=t_low, theta_sq=theta_sq, rho_grid=grid,
                     medium_kind=MediumKind.GENERIC_GAP,
                     gap_low=t_low * 10.0 ** draw(exponent(-8.0, 2.5)))


@pytest.mark.parametrize("ring", [True, False], ids=["ring", "generic"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_sweep_energies_meet_the_conditioned_bound(ring, data):
    # Against 50 digits, each exchange is off by at most
    # 16 u (1 + b_max) cond: the rounding of a Boltzmann exponent b, which
    # exp amplifies, and the cancellation in d = b_low - b_high near the
    # reversible ratio, cond = 1 + alpha_sq / |theta_sq - alpha_sq|.  In the
    # subnormal range a rounding is absolute: a few 2**-1075 of x, times its gap.
    spec = data.draw(random_sweeps(ring))
    constants = CODATA if ring else REDUCED
    try:
        records, _ = run_sweep(spec, constants)
    except DegenerateExchangeError:
        assume(False)  # an exact exchange underflowed: the unit-mismatch error
    gap_low = (ring_medium(spec.r_low, spec.r_low, constants) if ring
               else gap_medium(spec.gap_low, 1.0)).gap_low
    with mpmath.workdps(50):
        kt_low = mpmath.mpf(constants.boltzmann_k) * spec.t_low
        for record in records:
            rho_sq = mpmath.mpf(record.rho) ** 2
            gaps = (gap_low * rho_sq, mpmath.mpf(gap_low))
            if ring:
                exact = mpmath_ring_energies(record.rho, spec.r_low, spec.t_low,
                                             spec.theta_sq, constants)
            else:
                exact = mpmath_cycle_energies(gap_low, gaps[0], kt_low,
                                              kt_low * spec.theta_sq)
            b_max = max(gaps[1] / kt_low, gaps[0] / (kt_low * spec.theta_sq))
            cond = (1 + rho_sq / abs(spec.theta_sq - rho_sq)
                    if rho_sq != spec.theta_sq else mpmath.inf)
            for value, ex, gap in zip((record.e_high, record.e_low), exact, gaps):
                if abs(ex) < TINY:
                    continue
                slack = 16 * U * (1 + b_max) * cond * abs(ex) + 2 * TINY * (1 + gap)
                assert abs(value - ex) <= slack, (record.rho, value, float(ex))


@given(
    theta_sq=st.floats(1.1, 30.0),
    log_gap=st.floats(-10.0, -3.0),
    log_delta=st.floats(-9.0, -3.0),
    above=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_high_temperature_region_follows_the_gap_ratio(
    theta_sq, log_gap, log_delta, above
):
    delta = 10.0**log_delta
    alpha_sq = theta_sq * (1.0 + delta if above else 1.0 - delta)
    # Outside the band, with room for the few ulps by which the exchanges'
    # ratio may differ from alpha_sq at the band edge.
    assume(abs(alpha_sq - theta_sq) > DEFAULT_CLASSIFY_TOL * alpha_sq * (1 + 1e-5))
    energies = otto_cycle_energies(gap_medium(10.0**log_gap, alpha_sq), 1.0,
                                   theta_sq, 1.0)
    assert energies.e_high_gamma != 0.0
    assert energies.e_low_gamma != 0.0
    expected = (OperationalRegion.PUMPERS if alpha_sq > theta_sq
                else OperationalRegion.OUT_TRANSFERS)
    assert classify_region(energies.as_exchange_triple(), theta_sq) is expected


def scalar_point(spec, rho, constants):
    """One grid point through the scalar API, with the sweep's rule for an
    exactly reversible point."""
    if spec.medium_kind is MediumKind.QUANTUM_RING:
        medium = ring_medium(spec.r_low, spec.r_low / rho, constants)
    else:
        medium = gap_medium(spec.gap_low, rho * rho)
    energies = otto_cycle_energies(medium, spec.t_low, spec.theta_sq,
                                   constants.boltzmann_k)
    try:
        region = classify_region(energies.as_exchange_triple(), spec.theta_sq)
    except DegenerateExchangeError:
        region = OperationalRegion.BOUNDARY_OUTT_PUMP
    designs = []
    if not region.is_boundary:
        designs = [
            (d, efficiency(d, medium.alpha_sq),
             carnot_efficiency(d, spec.theta_sq))
            for d in QtmDesign
            if d in admissible_designs(region)
            and alpha_bounds(d, spec.theta_sq).contains(medium.alpha_sq)
        ]
    return medium.alpha_sq, energies, region, designs


@given(
    theta_sq=st.floats(1.1, 30.0),
    gap_low=st.floats(1e-3, 10.0),
    t_low=st.floats(0.1, 10.0),
    rhos=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=30, unique=True),
    with_boundaries=st.booleans(),
    # A ring in metres and kelvin, sized so that no point freezes out.
    ring=st.none() | st.tuples(st.floats(1e-7, 1e-6), st.floats(1.0, 10.0)),
)
@settings(max_examples=100, deadline=None)
def test_sweep_records_match_the_scalar_api(
    theta_sq, gap_low, t_low, rhos, with_boundaries, ring
):
    if with_boundaries:
        report = boundary_report(theta_sq)
        rhos = rhos + [report.rho_subregion, report.rho_2acq_outt,
                       report.rho_outt_pump]
    grid = tuple(sorted(set(rhos)))
    if ring is None:
        spec = SweepSpec(t_low=t_low, theta_sq=theta_sq, rho_grid=grid,
                         medium_kind=MediumKind.GENERIC_GAP, gap_low=gap_low)
        constants = REDUCED
    else:
        r_low, t_low = ring
        spec = SweepSpec(t_low=t_low, theta_sq=theta_sq, rho_grid=grid,
                         medium_kind=MediumKind.QUANTUM_RING, r_low=r_low)
        constants = CODATA
    records, _ = run_sweep(spec, constants)
    points = [scalar_point(spec, rho, constants) for rho in spec.rho_grid]
    scale = max(
        max(abs(e.e_high_gamma), abs(e.e_low_gamma), abs(e.e_out))
        for _, e, _, _ in points
    ) or 1.0
    for record, (alpha_sq, energies, region, designs) in zip(records, points):
        assert record.region is region
        assert [e.design for e in record.designs] == [d for d, _, _ in designs]
        pairs = [
            (record.alpha_sq, alpha_sq),
            (record.e_high, energies.e_high_gamma),
            (record.e_low, energies.e_low_gamma),
            (record.e_out, energies.e_out),
            (record.e_high_norm, energies.e_high_gamma / scale),
            (record.e_low_norm, energies.e_low_gamma / scale),
            (record.e_out_norm, energies.e_out / scale),
        ]
        for entry, (_, eff, carnot) in zip(record.designs, designs):
            pairs += [(entry.efficiency, eff), (entry.carnot, carnot)]
        # Both paths run the same ``_exchanges`` through the same numpy loops.
        assert all(a == b for a, b in pairs), pairs


@given(
    theta_sq=st.floats(1.1, 30.0),
    gap_low=st.floats(1e-3, 10.0),
    t_low=st.floats(0.1, 10.0),
    rhos=st.lists(st.floats(0.05, 10.0), max_size=20, unique=True),
    # A ring in metres and kelvin, sized so that no point freezes out.
    ring=st.none() | st.tuples(st.floats(1e-7, 1e-6), st.floats(1.0, 10.0)),
)
@settings(max_examples=100, deadline=None)
def test_each_record_carries_the_designs_whose_curves_hold_its_rho(
    theta_sq, gap_low, t_low, rhos, ring
):
    # Records read alpha_sq as gap_high/gap_low and curves as rho*rho, a few
    # ulps apart, so the planted points keep 0.7 tol from each band's edges:
    # at 0.3 tol from a threshold they are in its band, at 3 tol outside it.
    report = boundary_report(theta_sq)
    tol = DEFAULT_CLASSIFY_TOL
    planted = [math.sqrt(t * (1.0 + s * tol)) for t in astuple(report)[3:]
               for s in (-3.0, -0.3, 0.3, 3.0)]
    grid = tuple(sorted({*rhos, *planted, *astuple(report)[:3]}))
    if ring is None:
        spec = SweepSpec(t_low=t_low, theta_sq=theta_sq, rho_grid=grid,
                         medium_kind=MediumKind.GENERIC_GAP, gap_low=gap_low)
        constants = REDUCED
    else:
        r_low, t_low = ring
        spec = SweepSpec(t_low=t_low, theta_sq=theta_sq, rho_grid=grid,
                         medium_kind=MediumKind.QUANTUM_RING, r_low=r_low)
        constants = CODATA
    records, _ = run_sweep(spec, constants)
    curves = efficiency_curves(spec)
    # A curve is closed at its Carnot edge, a boundary point with no designs.
    acquirers = {d for d in QtmDesign if d.region in (
        OperationalRegion.TWO_ACQUIRERS_OUT, OperationalRegion.TWO_ACQUIRERS_HIGH)}
    carnot_edges = {report.rho_subregion: acquirers,
                    report.rho_outt_pump: set(QtmDesign) - acquirers}
    for record in records:
        on = {d for d, curve in curves.items() if record.rho in curve.rho}
        carries = {entry.design for entry in record.designs}
        if record.rho in carnot_edges:
            assert (carries, on) == (set(), carnot_edges[record.rho]), record.rho
        else:
            assert carries == on, record.rho


def max_exchanges(gap_low, gap_high, t_low, theta_sq, boltzmann_k):
    """``otto._exchanges`` written with ``np.maximum``: the select's oracle."""
    b_low = gap_low / (boltzmann_k * t_low)
    b_high = gap_high / (boltzmann_k * (theta_sq * t_low))
    d = b_low - b_high
    w_low, w_high = np.exp(-b_low), np.exp(-b_high)
    x = (np.sign(d) * np.maximum(w_low, w_high) * -np.expm1(-abs(d))
         / ((1.0 + w_high) * (1.0 + w_low)))
    return gap_high * x, -gap_low * x


def bits(*values):
    """The float64 bit patterns of ``values``: signed zeros differ."""
    return np.concatenate([np.asarray(v, dtype=float).ravel() for v in values]
                          ).view(np.int64)


@pytest.mark.parametrize("t_low, theta_sq", [
    (1.0, 1.0 + 1e-7), (1.0, 5.0), (0.37, 30.0), (1.0, 1e10)])
def test_exchanges_select_the_larger_weight_bit_for_bit(t_low, theta_sq):
    rng = np.random.default_rng(7)
    n = 20_000
    # gap/kT from deep high temperature (1e-12) to freeze-out (1e4, where
    # both weights underflow), gap ratios on both sides of theta_sq, and
    # exactly reversible pairs, some with d == 0.
    gap_low = t_low * 10.0 ** rng.uniform(-12.0, 4.0, n)
    alpha_sq = theta_sq * 10.0 ** rng.uniform(-3.0, 3.0, n)
    alpha_sq[::4] = theta_sq * (1.0 + rng.choice([-1.0, 1.0], n // 4)
                                * 10.0 ** rng.uniform(-15.0, -1.0, n // 4))
    alpha_sq[1::8] = theta_sq
    gap_high = gap_low * alpha_sq
    # b_low and b_high are both exactly 1 here.
    gap_low[0], gap_high[0] = t_low, theta_sq * t_low
    d = gap_low / t_low - gap_high / (theta_sq * t_low)
    assert (d == 0.0).any() and (d > 0.0).any() and (d < 0.0).any()
    w_low, w_high = np.exp(-gap_low / t_low), np.exp(-gap_high / (theta_sq * t_low))
    assert ((w_low == 0.0) & (w_high == 0.0)).any()
    assert ((w_low == 0.0) != (w_high == 0.0)).any()
    got = otto._exchanges(gap_low, gap_high, t_low, theta_sq, 1.0)
    want = max_exchanges(gap_low, gap_high, t_low, theta_sq, 1.0)
    assert np.array_equal(bits(*got), bits(*want))
    for low, high in zip(gap_low[:2000].tolist(), gap_high[:2000].tolist()):
        got = otto._exchanges(low, high, t_low, theta_sq, 1.0)
        want = max_exchanges(low, high, t_low, theta_sq, 1.0)
        assert np.array_equal(bits(*got), bits(*want)), (low, high)


def classified(classify):
    """The region ``classify()`` returns, or the class of what it raises."""
    try:
        return classify()
    except ValidationError as exc:
        return type(exc)


@given(
    theta_sq=st.floats(1.0, 50.0, exclude_min=True),
    threshold=st.sampled_from([None, 0, 1, 2]),
    k=st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0),
    sign=st.sampled_from([-1.0, 1.0]),
    sizes=st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)),
    signs=st.sampled_from([(1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)]),
)
@settings(max_examples=300, deadline=None)
def test_scalar_and_array_classifiers_agree(
    theta_sq, threshold, k, sign, sizes, signs
):
    # Forward and reversed triples, and the inadmissible ones of one sign.
    # Their ratio lies on a threshold or k band half-widths to either side
    # of it, or it is the ratio of two free sizes, which may over- or
    # underflow.  The array rule decides from the ratio and orientation.
    high, low = sizes
    if threshold is not None:
        high = (astuple(boundary_report(theta_sq))[3 + threshold]
                * (1.0 + sign * k * DEFAULT_CLASSIFY_TOL)) * low
    assume(high < math.inf)
    e_high, e_low = signs[0] * high, signs[1] * low
    scalar = classified(lambda: classify_region(
        ExchangeTriple(e_high, e_low), theta_sq))
    if signs[0] == signs[1]:
        assert scalar is InvalidSignsError
        return
    with np.errstate(over="ignore", under="ignore"):
        ratio = -np.array([e_high]) / np.array([e_low])
    index = _region_index(ratio, np.array([e_high > 0.0]), theta_sq)[0]
    if scalar is UnclassifiableExchangeError:
        assert index == -1
    else:
        assert _REGIONS[index] is scalar


@pytest.mark.parametrize("r_low, rho", [(1e-100, 1e-170), (1e100, 1e160)])
def test_a_ring_gap_ratio_out_of_the_float_range_has_no_designs(r_low, rho):
    # alpha_sq underflows to 0 or overflows to inf: the end of its region's
    # interval, where no design has an efficiency, as in the scalar API
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=(rho,), r_low=r_low)
    with np.errstate(over="ignore"):
        (record,), _ = run_sweep(spec, CODATA)
        alpha_sq, _, region, designs = scalar_point(spec, rho, CODATA)
    assert alpha_sq in (0.0, math.inf) and designs == []
    assert (record.alpha_sq, record.region, record.designs) == (alpha_sq, region, ())


def test_a_ring_gap_ratio_that_overflows_warns_nothing():
    # gap_high / gap_low overflows to inf; numpy's warning would be an error
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=(1e160,), r_low=1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records, _ = run_sweep(spec, CODATA)
    (record,) = records
    assert record.alpha_sq == math.inf and record.designs == ()
    # A column holding inf stays a list, written as json.dumps writes it.
    buffer = io.StringIO()
    emit(records, "json", buffer)
    assert '"alpha_sq": Infinity,' in buffer.getvalue()
    assert parse_records(buffer.getvalue()) == records


#: Generic media at b_low = gap_low / (k_B * t_low) of 1 (warm), 1e5 (the
#: exchanges underflow to 0) and inf (k_B * t_low is subnormal: NaN).
WARM, FROZEN, NAN = (SweepSpec(t_low=t_low, theta_sq=5.0, rho_grid=(0.5,),
                               medium_kind=MediumKind.GENERIC_GAP, gap_low=1.0)
                     for t_low in (1.0, 1e-5, 1e-320))
#: The unit-mismatch error of otto_cycle_energies at the point, after its rho.
UNITS = object()


@pytest.mark.parametrize("spec, rho, alpha_sq, e_high, e_low, expected", [
    # off the theta_sq band, energies whose signs disagree with alpha_sq,
    # where the scalar API passes: a kernel fault
    (WARM, 0.5, 0.25, -1.0, 1.0, "rho=0.5: .*alpha_sq=0.25"),  # reversed below
    (WARM, 0.5, 9.0, 1.0, -1.0, "rho=0.5: .*alpha_sq=9.0"),  # forward above
    (WARM, 0.5, 0.25, 1.0, 1.0, "rho=0.5: .*alpha_sq=0.25"),  # one sign
    # off the band, vanished or frozen-out energies: the unit-mismatch error
    (FROZEN, 0.5, 0.25, 0.0, 0.0, UNITS),
    (FROZEN, 3.0, 9.0, 0.0, -0.0, UNITS),
    (NAN, 0.5, 0.25, math.nan, math.nan, UNITS),
    # in the band, the gap ratio alone decides, whatever the energies' ratio
    (WARM, 0.5, 5.0, 0.0, 0.0, OperationalRegion.BOUNDARY_OUTT_PUMP),
    (WARM, 0.5, 5.0 * (1.0 + 5e-10), 1.0, -1.0, OperationalRegion.BOUNDARY_OUTT_PUMP),
    (NAN, math.sqrt(5.0), 5.0, math.nan, math.nan, UNITS),
], ids=["reversed-below", "forward-above", "one-sign", "vanished",
        "vanished-reversed", "nan", "vanished-in-band", "forward-in-band",
        "nan-in-band"])
def test_sweep_checks_the_energies_against_the_gap_ratio(
    spec, rho, alpha_sq, e_high, e_low, expected
):
    def classify():
        return _REGIONS[_classify(spec, REDUCED, np.array([rho]), np.array([e_high]),
                                  np.array([e_low]), np.array([alpha_sq]))[0]]
    if isinstance(expected, OperationalRegion):
        assert classify() is expected
    elif expected is UNITS:
        with pytest.raises(DegenerateExchangeError) as scalar:
            otto_cycle_energies(gap_medium(1.0, rho * rho), spec.t_low, 5.0, 1.0)
        with pytest.raises(DegenerateExchangeError) as info:
            classify()
        assert str(info.value) == f"at rho={rho!r}: {scalar.value}"
    else:
        with pytest.raises(UnclassifiableExchangeError, match=expected) as info:
            classify()
        assert type(info.value) is UnclassifiableExchangeError


@pytest.mark.parametrize("rho", [1.5, 3.0], ids=["forward", "reversed"])
@pytest.mark.parametrize("ring", [True, False], ids=["ring", "generic"])
def test_freeze_out_on_either_side_of_theta_is_a_unit_error(ring, rho):
    # A sweep names a frozen-out point by the scalar API's own error.
    if ring:
        spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=(rho,), r_low=1e-10)
        medium = ring_medium(1e-10, 1e-10 / rho, CODATA)
    else:
        spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=(rho,),
                         medium_kind=MediumKind.GENERIC_GAP, gap_low=0.5)
        medium = gap_medium(0.5, rho * rho)
    with pytest.raises(DegenerateExchangeError) as scalar:
        otto_cycle_energies(medium, 1.0, 5.0, CODATA.boltzmann_k)
    with pytest.raises(DegenerateExchangeError) as swept:
        run_sweep(spec, CODATA)
    assert str(swept.value) == f"at rho={rho!r}: {scalar.value}"
    assert "b_low = " in str(swept.value) and "units" in str(swept.value)


def test_the_reference_ring_at_1_nm_stops_at_its_first_frozen_out_point():
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=default_rho_grid(5.0),
                     r_low=1e-9)
    with pytest.raises(DegenerateExchangeError) as info:
        run_sweep(spec, CODATA)
    assert str(info.value) == (
        "at rho=1.6259599332220367: cycle energies vanished: the gaps "
        "1.8312792944942366e-20 and 4.841436768455297e-20 are enormous compared "
        "to k_B * t_low = 1.380649e-23, with Boltzmann exponents b_low = 1326 "
        "and b_high = 701.3: an exchange, about gap * exp(-min(b_low, b_high)), "
        "fell below the smallest double, about exp(-745) (check units and "
        "constants)")


def test_curves_keep_the_scalar_error_for_a_rejected_ratio():
    # rho**2 underflows to 0, QCO's region edge: its efficiency tends to 0 there
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=(1e-300, 0.5),
                     r_low=1e-7)
    with pytest.raises(SingularEfficiencyError):
        efficiency_curves(spec)


def test_cli_sweep_imports_neither_numpy_ma_nor_orjson(tmp_path):
    # The CSV path reads its config with json and writes no records JSON.
    config = tmp_path / "ref.json"
    config.write_text(json.dumps({"t_low": 1, "theta_sq": 5, "r_low": 1e-7}))
    src = str(Path(qtmkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qtmkit.cli", "sweep",
         "--config", str(config), "--out", str(tmp_path / "records.csv"),
         "--curves-out", str(tmp_path / "curves.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in result.stderr.splitlines()
               if line.startswith("import time:")}
    assert "numpy" in modules
    assert not any(m == "numpy.ma" or m.startswith("numpy.ma.")
                   for m in modules)
    assert "orjson" not in modules
