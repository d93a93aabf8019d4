"""The array sweep kernel against a 50-digit oracle and the scalar API.

The sweep evaluates its whole grid in one numpy pass; the scalar functions
evaluate one point.  Both compute the excited-occupation difference in a form
that does not cancel, so the exchanges stay non-zero, and the region right,
arbitrarily close to the reversible ratio.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qtmkit
from conftest import mpmath_cycle_energies, mpmath_ring_energies
from qtmkit import (
    CODATA,
    DEFAULT_CLASSIFY_TOL,
    DegenerateExchangeError,
    MediumKind,
    OperationalRegion,
    PhysicalConstants,
    QtmDesign,
    SingularEfficiencyError,
    SweepSpec,
    admissible_designs,
    alpha_bounds,
    carnot_efficiency,
    classify_region,
    default_rho_grid,
    efficiency,
    efficiency_curves,
    gap_medium,
    otto_cycle_energies,
    region_boundaries_rho,
    run_sweep,
)

REDUCED = PhysicalConstants.reduced()


def rel_err(value, exact):
    return float(abs((value - exact) / exact))


def within_ulps(a, b, ulps=4):
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


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
)
@settings(max_examples=100, deadline=None)
def test_sweep_records_match_the_scalar_api(
    theta_sq, gap_low, t_low, rhos, with_boundaries
):
    if with_boundaries:
        rhos = rhos + list(region_boundaries_rho(theta_sq))
    spec = SweepSpec(t_low=t_low, theta_sq=theta_sq,
                     rho_grid=tuple(sorted(set(rhos))),
                     medium_kind=MediumKind.GENERIC_GAP, gap_low=gap_low)
    records, _ = run_sweep(spec, REDUCED)
    points = [scalar_point(spec, rho, REDUCED) for rho in spec.rho_grid]
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
        assert all(within_ulps(a, b) for a, b in pairs), pairs


@pytest.mark.parametrize("rho", [1.5, 3.0])
def test_freeze_out_on_either_side_of_theta_is_a_unit_error(rho):
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=(rho,),
                     medium_kind=MediumKind.GENERIC_GAP, gap_low=0.5)
    with pytest.raises(DegenerateExchangeError, match="units"):
        run_sweep(spec, CODATA)


def test_curves_keep_the_scalar_error_for_a_rejected_ratio():
    # rho**2 underflows to 0, where QCO's efficiency is singular
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=(1e-300, 0.5),
                     r_low=1e-7)
    with pytest.raises(SingularEfficiencyError):
        efficiency_curves(spec)


def test_cli_sweep_does_not_import_numpy_ma(tmp_path):
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
