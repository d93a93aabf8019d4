"""Release gate: one test per headline guarantee, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` for a PASSED/FAILED line per
criterion, or add ``-s`` to see the explicit CRITERION summaries printed at
the end of each test.
"""

import math
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import exponential_cycle_energies
from qtmkit import (
    CODATA,
    CarnotLimitKind,
    ExchangeTriple,
    LevelSpectrum,
    MediumKind,
    OperationalRegion,
    QtmDesign,
    SweepSpec,
    alpha_bounds,
    boundary_report,
    carnot_efficiency,
    classify_region,
    default_rho_grid,
    efficiency,
    efficiency_curves,
    gap_medium,
    multilevel_exchange,
    occupation,
    otto_cycle_energies,
    ring_levels,
    ring_medium,
    run_sweep,
    work_exchange,
)

THETA_SQ = 5.0

# hbar^2 / (2 m_e r^2) at r = 100 nm, CODATA 2018, frozen from a 50-digit
# independent evaluation.
E_GROUND_100NM_ORACLE = 6.1042643149807904e-25


def _report(number, label):
    print(f"CRITERION {number} ({label}): PASS")


def _ring_spec():
    return SweepSpec(
        t_low=1.0,
        theta_sq=THETA_SQ,
        rho_grid=default_rho_grid(THETA_SQ),
        medium_kind=MediumKind.QUANTUM_RING,
        r_low=100e-9,
    )


def test_c1_boundary_reproduction():
    start = time.perf_counter()
    report = boundary_report(THETA_SQ)
    elapsed = time.perf_counter() - start

    assert abs(report.rho_subregion - 1.0 / math.sqrt(5.0)) <= 1e-12
    assert abs(report.rho_2acq_outt - 1.0) <= 1e-12
    assert abs(report.rho_outt_pump - math.sqrt(5.0)) <= 1e-12
    assert abs(report.alpha_sq_subregion - 0.2) <= 1e-12
    assert abs(report.alpha_sq_outt_pump - 5.0) <= 1e-12
    # published two-decimal values
    assert abs(report.rho_subregion - 0.45) <= 0.005
    assert abs(report.rho_outt_pump - 2.24) <= 0.005
    assert elapsed < 1e-3
    _report(1, "boundary reproduction at theta_sq=5, <1 ms")


def test_c2_carnot_values_at_theta_five():
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
        assert abs(carnot_efficiency(design, THETA_SQ) - value) <= 1e-12
    _report(2, "eight Carnot values at theta_sq=5, tol 1e-12")


def test_c3_energy_sweep_structure():
    spec = _ring_spec()
    start = time.perf_counter()
    records, report = run_sweep(spec, CODATA)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(records) >= 600

    boundaries = (report.rho_subregion, report.rho_2acq_outt,
                  report.rho_outt_pump)

    def clear_of_boundaries(rho):
        return all(abs(rho - b) >= 1e-6 for b in boundaries)

    # (a) absorb hot / release cold / receive outside everywhere below rho=1
    for record in records:
        if record.rho < 1.0 and clear_of_boundaries(record.rho):
            assert record.e_high > 0.0
            assert record.e_low < 0.0
            assert record.e_out < 0.0

    # (b) only e_out flips across rho = 1
    below = max(
        (r for r in records if r.rho < 1.0 and clear_of_boundaries(r.rho)),
        key=lambda r: r.rho,
    )
    above = min(
        (r for r in records if r.rho > 1.0 and clear_of_boundaries(r.rho)),
        key=lambda r: r.rho,
    )
    assert below.e_out < 0.0 < above.e_out
    assert below.e_high > 0.0 and above.e_high > 0.0
    assert below.e_low < 0.0 and above.e_low < 0.0

    # (c) everything flips across rho = sqrt(5)
    rho_pump = report.rho_outt_pump
    last_engine = max(
        (r for r in records if r.rho < rho_pump and clear_of_boundaries(r.rho)),
        key=lambda r: r.rho,
    )
    first_pump = min(
        (r for r in records if r.rho > rho_pump and clear_of_boundaries(r.rho)),
        key=lambda r: r.rho,
    )
    assert last_engine.e_high > 0.0 > first_pump.e_high
    assert last_engine.e_low < 0.0 < first_pump.e_low
    assert last_engine.e_out > 0.0 > first_pump.e_out

    # (d) one shared normalization scale, peaking at exactly 1
    peak = max(
        max(abs(r.e_high_norm), abs(r.e_low_norm), abs(r.e_out_norm))
        for r in records
    )
    assert peak == 1.0
    _report(3, "ring sweep sign structure and normalization, <1 s")


def test_c4_efficiency_curves_meet_carnot():
    curves = efficiency_curves(_ring_spec())
    for design in QtmDesign:
        curve = curves[design]
        bounds = alpha_bounds(design, THETA_SQ)
        if bounds.carnot_alpha_sq == bounds.alpha_sq_min:
            at_bound = curve.efficiency[0]
        else:
            at_bound = curve.efficiency[-1]
        assert abs(at_bound - curve.carnot) <= 1e-9
        if design is QtmDesign.QLL:
            assert curve.carnot_limit_kind is CarnotLimitKind.MINIMUM
            assert min(curve.efficiency) == at_bound
        else:
            assert curve.carnot_limit_kind is CarnotLimitKind.MAXIMUM
            assert max(curve.efficiency) == at_bound
    _report(4, "every efficiency series meets its Carnot level at its bound")


# 5000 examples per interval: 10^4 samples across the identity suite.
@settings(max_examples=5000, deadline=None, derandomize=True)
@given(alpha_sq=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                          allow_subnormal=False))
def test_c5_identities_below_one(alpha_sq):
    qht = efficiency(QtmDesign.QHT, alpha_sq)
    qco = efficiency(QtmDesign.QCO, alpha_sq)
    qho = efficiency(QtmDesign.QHO, alpha_sq)
    qdp = efficiency(QtmDesign.QDP, alpha_sq)
    assert abs(qht - qco - 1.0) <= 1e-12 * max(1.0, qht, qco)
    assert abs(qho - qdp - 1.0) <= 1e-12 * max(1.0, qho, qdp)


@settings(max_examples=5000, deadline=None, derandomize=True)
@given(alpha_sq=st.floats(1.0, 1e3, exclude_min=True))
def test_c5_identities_above_one(alpha_sq):
    qen = efficiency(QtmDesign.QEN, alpha_sq)
    qll = efficiency(QtmDesign.QLL, alpha_sq)
    qhp = efficiency(QtmDesign.QHP, alpha_sq)
    qre = efficiency(QtmDesign.QRE, alpha_sq)
    assert abs(qen + qll - 1.0) <= 1e-12 * max(1.0, qen, qll)
    assert abs(qhp - qre - 1.0) <= 1e-12 * max(1.0, qhp, qre)


def test_c5_summary():
    _report(5, "pairwise identities, 2 x 5000 property samples, tol 1e-12")


def _sample_media(rng, count, theta_range, exclude_reversible):
    """Random two-level media and temperatures; exponents stay well inside
    the exactly-representable range of the raw exponential oracle."""
    out = []
    while len(out) < count:
        gap_low = rng.uniform(0.1, 2.0)
        alpha_sq = rng.uniform(0.05, 12.0)
        theta_sq = rng.uniform(*theta_range)
        if exclude_reversible and abs(alpha_sq - theta_sq) <= 1e-2 * theta_sq:
            continue
        medium = gap_medium(
            gap_low, alpha_sq, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        )
        out.append((medium, rng.uniform(0.5, 4.0), theta_sq))
    return out


def test_c6_otto_formulations_agree():
    rng = np.random.default_rng(20250811)
    samples = _sample_media(rng, 1000, (1.5, 8.0), exclude_reversible=True)
    for medium, t_low, theta_sq in samples:
        energies = otto_cycle_energies(medium, t_low, theta_sq, 1.0)
        e_high_ref, e_low_ref = exponential_cycle_energies(
            medium, t_low, theta_sq, 1.0
        )
        assert abs(energies.e_high_gamma - e_high_ref) <= 1e-10 * abs(e_high_ref)
        assert abs(energies.e_low_gamma - e_low_ref) <= 1e-10 * abs(e_low_ref)
        ratio = -energies.e_high_gamma / energies.e_low_gamma
        assert abs(ratio - medium.alpha_sq) <= 1e-12 * medium.alpha_sq
    _report(6, "occupation-difference vs exponential form, 1000 media, 1e-10")


def test_c7_cycle_closure():
    rng = np.random.default_rng(77011)
    samples = _sample_media(rng, 1000, (1.5, 8.0), exclude_reversible=False)
    for medium, t_low, theta_sq in samples:
        low = LevelSpectrum(medium.low_config)
        high = LevelSpectrum(medium.high_config)
        t_high = theta_sq * t_low
        p_cold = tuple(occupation(low, t_low, 1.0))
        p_hot = tuple(occupation(high, t_high, 1.0))

        # two-level occupations depend on the gap alone, so the frozen
        # cold-side (hot-side) populations are thermal on the other
        # configuration at the gap-rescaled temperature
        compress = work_exchange(low, high, p_cold)
        q_hot = multilevel_exchange(high, t_low * medium.alpha_sq, t_high, 1.0)
        expand = work_exchange(high, low, p_hot)
        q_cold = multilevel_exchange(low, t_high / medium.alpha_sq, t_low, 1.0)

        strokes = (compress, q_hot, expand, q_cold)
        scale = max(abs(s) for s in strokes)
        assert scale > 0.0
        assert abs(sum(strokes)) <= 1e-12 * scale
    _report(7, "four-stroke internal-energy closure, 1000 cycles, 1e-12")


def test_c8_ring_spectrum():
    rng = np.random.default_rng(4242)
    for radius in rng.uniform(10e-9, 500e-9, size=200):
        e_ground, e_excited = ring_levels(radius, CODATA)
        assert e_excited == 4.0 * e_ground

    for rho in rng.uniform(0.05, 4.0, size=200):
        medium = ring_medium(100e-9, 100e-9 / rho, CODATA)
        assert abs(medium.alpha_sq - rho * rho) <= 1e-14 * (rho * rho)

    e_ground, _ = ring_levels(100e-9, CODATA)
    assert abs(e_ground - E_GROUND_100NM_ORACLE) <= 1e-12 * E_GROUND_100NM_ORACLE
    _report(8, "ring spectrum: 4x ratio, alpha_sq = rho^2, 100 nm oracle")


def test_c9_classification_consistency():
    rng = np.random.default_rng(99031)
    thresholds = lambda t: (1.0 / t, 1.0, t)  # noqa: E731
    checked = 0
    while checked < 10_000:
        rho = rng.uniform(0.05, 3.5)
        theta_sq = rng.uniform(1.5, 8.0)
        alpha_sq = rho * rho
        if any(
            abs(alpha_sq - b) <= 2e-6 * b for b in thresholds(theta_sq)
        ):
            continue
        r_low = rng.uniform(30e-9, 300e-9)
        t_low = rng.uniform(0.5, 5.0)
        medium = ring_medium(r_low, r_low / rho, CODATA)
        energies = otto_cycle_energies(medium, t_low, theta_sq,
                                       CODATA.boltzmann_k)
        got = classify_region(
            ExchangeTriple(energies.e_high_gamma, energies.e_low_gamma),
            theta_sq,
        )
        low, mid, high = thresholds(theta_sq)
        if alpha_sq < low:
            expected = OperationalRegion.TWO_ACQUIRERS_OUT
        elif alpha_sq < mid:
            expected = OperationalRegion.TWO_ACQUIRERS_HIGH
        elif alpha_sq < high:
            expected = OperationalRegion.OUT_TRANSFERS
        else:
            expected = OperationalRegion.PUMPERS
        assert got is expected
        checked += 1
    _report(9, "10^4 ring cycles: classifier matches the interval test")
