import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qtmkit import (
    CODATA,
    CarnotLimitKind,
    DegenerateExchangeError,
    EmitIOError,
    EmptyGridError,
    MediumKind,
    OperationalRegion,
    PhysicalConstants,
    QtmDesign,
    SweepSpec,
    ValidationError,
    boundary_report,
    classify_region,
    default_rho_grid,
    efficiency_curves,
    emit,
    emit_curves,
    parse_records,
    run_sweep,
)

REPORT = boundary_report(5.0)
RHO_SUB, RHO_MID, RHO_PUMP = (REPORT.rho_subregion, REPORT.rho_2acq_outt,
                              REPORT.rho_outt_pump)


def ring_spec(**overrides):
    kwargs = dict(
        t_low=1.0,
        theta_sq=5.0,
        rho_grid=default_rho_grid(5.0),
        medium_kind=MediumKind.QUANTUM_RING,
        r_low=100e-9,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


@pytest.fixture(scope="module")
def ring_sweep():
    spec = ring_spec()
    records, report = run_sweep(spec, CODATA)
    return spec, records, report


@pytest.fixture(scope="module")
def curves():
    return efficiency_curves(ring_spec())


@pytest.fixture(scope="module")
def small_sweep():
    spec = ring_spec(rho_grid=(0.3, RHO_MID, 1.5, 2.6))
    records, _ = run_sweep(spec, CODATA)
    return records


class TestSweepSpec:
    def test_empty_grid(self):
        with pytest.raises(EmptyGridError):
            ring_spec(rho_grid=())

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            ring_spec(rho_grid=(0.5, 0.5, 1.0))

    def test_grid_must_be_positive(self):
        with pytest.raises(ValidationError):
            ring_spec(rho_grid=(-0.5, 1.0))

    def test_ring_needs_radius(self):
        with pytest.raises(ValidationError):
            ring_spec(r_low=None)

    def test_generic_needs_gap(self):
        with pytest.raises(ValidationError):
            ring_spec(medium_kind=MediumKind.GENERIC_GAP, r_low=None)

    @pytest.mark.parametrize("kind", list(MediumKind))
    def test_both_medium_keys_are_rejected(self, kind):
        with pytest.raises(ValidationError, match="r_low.*gap_low|gap_low.*r_low"):
            ring_spec(medium_kind=kind, r_low=1e-7, gap_low=1e-24)

    def test_grid_is_not_the_callers_object(self):
        grid = [0.5, 1.5, 2.5]
        spec = ring_spec(rho_grid=grid)
        grid += [0.1, -3.0]
        assert spec.rho_grid == (0.5, 1.5, 2.5)
        records, _ = run_sweep(spec)
        assert [r.rho for r in records] == [0.5, 1.5, 2.5]

    @pytest.mark.parametrize("grid", [[0.5, 1.5], np.array([0.5, 1.5]), (1, 2)],
                             ids=["list", "ndarray", "ints"])
    def test_spec_hashes_and_compares_as_its_float_tuple(self, grid):
        spec = ring_spec(rho_grid=grid)
        assert type(spec.rho_grid) is tuple
        assert all(type(r) is float for r in spec.rho_grid)
        twin = ring_spec(rho_grid=tuple(map(float, grid)))
        assert hash(spec) == hash(twin)
        assert spec == twin

    def test_specs_of_array_grids_compare(self):
        grids = (np.array([0.5, 1.5]), np.array([0.5, 1.5]), np.array([0.5, 2.5]))
        first, same, other = (ring_spec(rho_grid=g) for g in grids)
        assert first == same and first != other

    @pytest.mark.parametrize("number", [
        np.float32, Decimal, Fraction, lambda text: round(float(text))],
        ids=["float32", "Decimal", "Fraction", "int"])
    @pytest.mark.parametrize("kind", list(MediumKind))
    def test_a_sweep_of_other_number_types_is_the_sweep_of_their_floats(self, number,
                                                                        kind):
        # np.float32 inputs once ran the sweep in float32 (k_B * t_low
        # promotes); a Decimal or Fraction once crashed it with a TypeError.
        key = "r_low" if kind is MediumKind.QUANTUM_RING else "gap_low"
        given = dict(t_low=number("0.7"), theta_sq=number("5.3"), **{key: number("1.2")})
        constants = dict(hbar=number("1.1"), boltzmann_k=number("0.9"),
                         electron_mass=number("1.3"))
        grid = default_rho_grid(5.0, num=50)
        spec = SweepSpec(**given, rho_grid=grid, medium_kind=kind)
        floats = SweepSpec(**{k: float(v) for k, v in given.items()}, rho_grid=grid,
                           medium_kind=kind)
        held = PhysicalConstants(**constants)
        twin = PhysicalConstants(**{k: float(v) for k, v in constants.items()})
        assert (spec, held) == (floats, twin)
        assert {type(getattr(spec, k)) for k in given} == {float}
        assert {type(getattr(held, k)) for k in constants} == {float}
        assert run_sweep(spec, held)[0] == run_sweep(floats, twin)[0]


class TestDefaultGrid:
    def test_contains_the_boundaries(self):
        grid = default_rho_grid(5.0)
        for boundary in (RHO_SUB, RHO_MID, RHO_PUMP):
            assert boundary in grid

    def test_sorted_and_unique(self):
        grid = default_rho_grid(5.0)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert grid[0] == 0.05 and grid[-1] == 3.0
        assert len(grid) >= 600

    def test_out_of_range_boundaries_are_skipped(self):
        grid = default_rho_grid(100.0, num=50, rho_min=0.5, rho_max=2.0)
        assert 10.0 not in grid  # sqrt(100) exceeds the range
        assert 1.0 in grid

    @pytest.mark.parametrize("num, rho_min, rho_max", [
        (1, 0.05, 3.0), (0, 0.05, 3.0), (600, 0.0, 3.0), (600, 3.0, 0.05),
        (600, 1.0, 1.0), (600, 0.05, math.inf), (600, 0.05, math.nan),
        (600, -math.inf, 3.0), (2.5, 0.05, 3.0), (600.0, 0.05, 3.0),
        (600, "0.1", 3.0), (600, 0.05, "3"), (600, None, 3.0),
        (600, True, 3.0), (600, 0.05, True),
        pytest.param(600, 0.05, 10**400, id="600-0.05-big"),
    ])
    def test_rejects_too_few_points_or_a_bad_range(self, num, rho_min, rho_max):
        with pytest.raises(ValidationError,
                           match="num >= 2 and 0 < rho_min < rho_max"):
            default_rho_grid(5.0, num=num, rho_min=rho_min, rho_max=rho_max)

    @pytest.mark.parametrize("number", [np.float32, Fraction, Decimal])
    def test_bounds_of_other_number_types_give_the_grid_of_their_floats(self, number):
        # An np.float32 bound once gave a float32-rounded grid, and a Fraction
        # bound a grid holding Fractions.
        low, high = number("0.05"), number("3")
        grid = default_rho_grid(5.0, 10, low, high)
        assert grid == default_rho_grid(5.0, 10, float(low), float(high))
        assert {type(r) for r in grid} == {float}


class TestRunSweep:
    def test_records_cover_the_grid_in_order(self, ring_sweep):
        spec, records, _ = ring_sweep
        assert len(records) == len(spec.rho_grid)
        assert [r.rho for r in records] == list(spec.rho_grid)

    def test_region_segmentation(self, ring_sweep):
        _, records, _ = ring_sweep
        for record in records:
            rho = record.rho
            if rho in (RHO_SUB, RHO_MID, RHO_PUMP):
                assert record.region.is_boundary
            elif rho < RHO_SUB:
                assert record.region is OperationalRegion.TWO_ACQUIRERS_OUT
            elif rho < RHO_MID:
                assert record.region is OperationalRegion.TWO_ACQUIRERS_HIGH
            elif rho < RHO_PUMP:
                assert record.region is OperationalRegion.OUT_TRANSFERS
            else:
                assert record.region is OperationalRegion.PUMPERS

    def test_boundary_markers_at_injected_points(self, ring_sweep):
        _, records, _ = ring_sweep
        by_rho = {r.rho: r for r in records}
        assert by_rho[RHO_SUB].region is (
            OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS
        )
        assert by_rho[RHO_MID].region is OperationalRegion.BOUNDARY_2ACQ_OUTT
        assert by_rho[RHO_PUMP].region is OperationalRegion.BOUNDARY_OUTT_PUMP

    def test_sign_patterns(self, ring_sweep):
        _, records, _ = ring_sweep
        for record in records:
            if record.region is OperationalRegion.OUT_TRANSFERS:
                assert record.e_high > 0 > record.e_low
                assert record.e_out > 0
            elif record.region is OperationalRegion.PUMPERS:
                assert record.e_high < 0 < record.e_low
                assert record.e_out < 0
            elif not record.region.is_boundary:
                assert record.e_high > 0 > record.e_low
                assert record.e_out < 0

    def test_normalization_scale_is_global(self, ring_sweep):
        _, records, _ = ring_sweep
        peak = max(
            max(abs(r.e_high_norm), abs(r.e_low_norm), abs(r.e_out_norm))
            for r in records
        )
        assert peak == 1.0

    def test_alpha_sq_tracks_rho_squared(self, ring_sweep):
        _, records, _ = ring_sweep
        for record in records:
            assert record.alpha_sq == pytest.approx(record.rho**2, rel=1e-14)

    def test_designs_only_off_boundaries(self, ring_sweep):
        _, records, _ = ring_sweep
        for record in records:
            if record.region.is_boundary:
                assert record.designs == ()
            else:
                assert len(record.designs) == 2
                names = {entry.design for entry in record.designs}
                for entry in record.designs:
                    assert entry.design.region is record.region
                assert len(names) == 2

    def test_region_matches_triple_classification(self, ring_sweep):
        spec, records, _ = ring_sweep
        from qtmkit import ExchangeTriple

        for record in records[::25]:
            if record.e_high == 0.0:
                continue
            triple = ExchangeTriple(record.e_high, record.e_low)
            assert classify_region(triple, spec.theta_sq) is record.region

    def test_boundary_report(self, ring_sweep):
        _, _, report = ring_sweep
        assert report.rho_subregion == RHO_SUB
        assert report.rho_2acq_outt == 1.0
        assert report.rho_outt_pump == RHO_PUMP
        assert report.alpha_sq_subregion == pytest.approx(0.2, rel=1e-15)
        assert report.alpha_sq_outt_pump == 5.0

    def test_generic_gap_medium_sweeps_the_same_regions(self):
        spec = SweepSpec(
            t_low=1.0,
            theta_sq=5.0,
            rho_grid=(0.3, 0.7, 1.5, 2.6),
            medium_kind=MediumKind.GENERIC_GAP,
            gap_low=0.5,
        )
        records, _ = run_sweep(spec, PhysicalConstants.reduced())
        regions = [r.region for r in records]
        assert regions == [
            OperationalRegion.TWO_ACQUIRERS_OUT,
            OperationalRegion.TWO_ACQUIRERS_HIGH,
            OperationalRegion.OUT_TRANSFERS,
            OperationalRegion.PUMPERS,
        ]

    def test_unit_mismatch_raises_a_pointed_error(self):
        # a reduced-scale gap against the SI Boltzmann constant freezes the
        # occupations solid; the failure should say so
        spec = SweepSpec(
            t_low=1.0,
            theta_sq=5.0,
            rho_grid=(1.5,),
            medium_kind=MediumKind.GENERIC_GAP,
            gap_low=0.5,
        )
        with pytest.raises(DegenerateExchangeError, match="units"):
            run_sweep(spec, CODATA)


class TestEfficiencyCurves:
    def test_all_designs_present(self, curves):
        assert set(curves) == set(QtmDesign)

    def test_engine_series_rises_to_carnot(self, curves):
        curve = curves[QtmDesign.QEN]
        assert curve.rho[0] > 1.0
        assert curve.rho[-1] == RHO_PUMP
        assert curve.efficiency[0] < 0.05
        assert curve.efficiency[-1] == pytest.approx(0.8, abs=1e-9)
        assert curve.carnot == pytest.approx(0.8, abs=1e-12)

    def test_laser_like_series_falls_to_its_floor(self, curves):
        curve = curves[QtmDesign.QLL]
        assert curve.carnot_limit_kind is CarnotLimitKind.MINIMUM
        assert curve.efficiency[0] > 0.95
        assert curve.efficiency[-1] == pytest.approx(0.2, abs=1e-9)
        assert min(curve.efficiency) == curve.efficiency[-1]

    def test_heating_optimizer_span(self, curves):
        curve = curves[QtmDesign.QHO]
        assert curve.rho[0] == RHO_SUB
        assert curve.rho[-1] < 1.0
        assert curve.efficiency[0] == pytest.approx(5.0, abs=1e-9)
        assert curve.efficiency[-1] > 1.0

    def test_series_stay_inside_their_intervals(self, curves):
        for design, curve in curves.items():
            lo, hi = curve.rho[0], curve.rho[-1]
            assert lo < hi
            for rho in curve.rho:
                assert lo <= rho <= hi
            if design in (QtmDesign.QCO, QtmDesign.QHT):
                assert hi == RHO_SUB
            elif design in (QtmDesign.QRE, QtmDesign.QHP):
                assert lo == RHO_PUMP

    def test_endpoint_meets_carnot(self, curves):
        for design, curve in curves.items():
            if design in (QtmDesign.QDP, QtmDesign.QHO, QtmDesign.QRE,
                          QtmDesign.QHP):
                at_bound = curve.efficiency[0]
            else:
                at_bound = curve.efficiency[-1]
            assert at_bound == pytest.approx(curve.carnot, rel=1e-9)


class TestEmit:
    def test_csv_shape(self, small_sweep):
        buffer = io.StringIO()
        emit(small_sweep, format="csv", destination=buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 1 + len(small_sweep)
        header = lines[0].split(",")
        assert header == [
            "rho", "alpha_sq", "e_high", "e_low", "e_out",
            "e_high_norm", "e_low_norm", "e_out_norm", "region",
            "design1", "eff1", "design2", "eff2", "carnot1", "carnot2",
        ]
        for line in lines[1:]:
            assert len(line.split(",")) == 15

    def test_csv_boundary_row_has_empty_design_cells(self, small_sweep):
        buffer = io.StringIO()
        emit(small_sweep, format="csv", destination=buffer)
        boundary_line = next(
            line
            for line in buffer.getvalue().splitlines()
            if "Boundary2AcqOutT" in line
        )
        cells = boundary_line.split(",")
        assert cells[9:] == ["", "", "", "", "", ""]

    def test_csv_deterministic(self, small_sweep):
        first, second = io.StringIO(), io.StringIO()
        emit(small_sweep, format="csv", destination=first)
        emit(small_sweep, format="csv", destination=second)
        assert first.getvalue() == second.getvalue()

    def test_csv_twelve_significant_digits(self, small_sweep):
        buffer = io.StringIO()
        emit(small_sweep, format="csv", destination=buffer)
        first_row = buffer.getvalue().splitlines()[1].split(",")
        assert first_row[0] == "0.3"
        # normalized columns carry full 12-digit mantissas
        digits = first_row[5].lstrip("-0.").replace(".", "").rstrip("e-0123456789")
        assert len(first_row[5]) <= 19

    def test_json_round_trip(self, small_sweep):
        buffer = io.StringIO()
        emit(small_sweep, format="json", destination=buffer)
        assert parse_records(buffer.getvalue()) == list(small_sweep)

    def test_json_structure(self, small_sweep):
        buffer = io.StringIO()
        emit(small_sweep, format="json", destination=buffer)
        doc = json.loads(buffer.getvalue())
        assert isinstance(doc, list)
        assert doc[0]["region"] == "TwoAcquirersOut"
        assert {d["design"] for d in doc[0]["designs"]} == {"QCO", "QHT"}

    def test_stdout_destination(self, small_sweep, capsys):
        emit(small_sweep, format="csv", destination=None)
        captured = capsys.readouterr()
        assert captured.out.startswith("rho,alpha_sq,")

    def test_rejects_empty_and_unknown_format(self, small_sweep):
        with pytest.raises(ValidationError):
            emit([], format="csv")
        with pytest.raises(ValidationError):
            emit(small_sweep, format="xml")

    def test_io_error_carries_the_path(self, small_sweep):
        with pytest.raises(EmitIOError, match="no/such/dir"):
            emit(small_sweep, format="csv",
                 destination="/no/such/dir/records.csv")

    def test_file_destination(self, small_sweep, tmp_path):
        path = tmp_path / "records.csv"
        emit(small_sweep, format="csv", destination=str(path))
        assert path.read_text().startswith("rho,")

    def test_emit_curves_csv(self, tmp_path):
        curves = efficiency_curves(ring_spec(rho_grid=(0.3, 1.5, 2.6)))
        buffer = io.StringIO()
        emit_curves(curves, format="csv", destination=buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "design,rho,efficiency,carnot,carnot_limit"
        assert any(line.startswith("QEN,1.5,") for line in lines)

    def test_emit_curves_json(self):
        curves = efficiency_curves(ring_spec(rho_grid=(0.3, 1.5, 2.6)))
        buffer = io.StringIO()
        emit_curves(curves, format="json", destination=buffer)
        doc = json.loads(buffer.getvalue())
        assert set(doc) == {d.value for d in QtmDesign}
        assert doc["QLL"]["carnot_limit"] == "minimum"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_curves_rejects_no_curves(self, fmt):
        buffer = io.StringIO()
        with pytest.raises(ValidationError, match="no curves to emit"):
            emit_curves({}, format=fmt, destination=buffer)
        assert buffer.getvalue() == ""


def test_overlapping_bands_close_each_curve_at_its_carnot_point_only():
    # At theta_sq = 1 + 1e-10 the three bands overlap and rho = 1 lies in the
    # 1/theta_sq band: a curve closed over its whole Carnot-edge band would
    # take QCO and QHT to alpha_sq = 1, where their efficiency is singular.
    theta_sq = 1.0 + 1e-10
    grid = default_rho_grid(theta_sq, num=777)
    report = boundary_report(theta_sq)
    sub, pump = report.rho_subregion, report.rho_outt_pump
    curves = efficiency_curves(ring_spec(theta_sq=theta_sq, rho_grid=grid))
    rho = ([tuple(r for r in grid if r <= sub)] * 2 + [(sub,)] * 2 + [(pump,)] * 2
           + [tuple(r for r in grid if r >= pump)] * 2)
    assert {d: c.rho for d, c in curves.items()} == dict(zip(QtmDesign, rho))
    assert list(map(len, rho)) == [251, 251, 1, 1, 1, 1, 528, 528]


def test_boundary_report_standalone():
    report = boundary_report(4.0)
    assert report.rho_subregion == 0.5
    assert report.rho_outt_pump == 2.0
    assert report.alpha_sq_subregion == 0.25
    assert report.alpha_sq_2acq_outt == 1.0
    assert report.alpha_sq_outt_pump == 4.0


def max_work_alpha_sq(theta_sq, gap_low):
    """The alpha_sq of the largest ``e_out`` of a generic sweep in reduced
    units (``t_low`` = 1) on 20 001 points inside (1, sqrt(theta_sq)): the
    vertex of the parabola, in alpha_sq, through the grid maximum and its
    two neighbours."""
    grid = np.linspace(1.0, math.sqrt(theta_sq), 20003)[1:-1]
    spec = SweepSpec(t_low=1.0, theta_sq=theta_sq, rho_grid=tuple(grid.tolist()),
                     medium_kind=MediumKind.GENERIC_GAP, gap_low=gap_low)
    records, _ = run_sweep(spec, PhysicalConstants.reduced())
    e_out = [r.e_out for r in records]
    i = int(np.argmax(e_out))
    assert 0 < i < len(e_out) - 1
    (x0, x1, x2), (f0, f1, f2) = ([r.alpha_sq for r in records[i - 1:i + 2]],
                                  e_out[i - 1:i + 2])
    num = (x1 - x0) ** 2 * (f1 - f2) - (x1 - x2) ** 2 * (f1 - f0)
    den = (x1 - x0) * (f1 - f2) - (x1 - x2) * (f1 - f0)
    return x1 - 0.5 * num / den


@pytest.mark.parametrize("theta_sq, coefficient", [
    (1.5, -1.48e-2), (5.0, -1.22e-2), (30.0, -2.64e-3)])
def test_the_max_work_point_tends_to_the_low_dissipation_upper_bound(
        theta_sq, coefficient):
    # At high temperature e_out ~ (rho**2 - 1)(1 - rho**2/theta_sq), which
    # peaks at alpha_sq = (1 + theta_sq)/2, where eta = 1 - 1/alpha_sq is
    # eta_C/(2 - eta_C): the upper end of eta_C/2 <= eta* <= eta_C/(2 - eta_C)
    # (Esposito, Kawai, Lindenberg & Van den Broeck, PRL 105, 150603 (2010)).
    # The relative error shrinks like the square of gap_low/(k_B t_low).
    eta_c = 1.0 - 1.0 / theta_sq
    upper = eta_c / (2.0 - eta_c)
    for ratio in (0.4, 0.2, 0.1):
        eta = 1.0 - 1.0 / max_work_alpha_sq(theta_sq, ratio)
        assert eta_c / 2.0 < eta < upper
        assert (eta - upper) / upper / ratio**2 == pytest.approx(coefficient,
                                                                 rel=0.01)
