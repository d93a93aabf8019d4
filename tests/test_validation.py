"""One rule per input: every theta_sq entry point raises the same class; a
sweep config value of the wrong type exits 1 with a message that names the
key; a grid point whose medium leaves the float range raises the medium's
own error, naming that point; a classifier
tolerance must be finite and non-negative; a value that is not a number
raises the checked field's own error; a sweep spec field of the wrong type
is rejected by name; a catalog lookup by anything but a design or region
member names the value; every public entry computes with the float of a
number of any type, and rejects a bool as it rejects any non-number."""

import dataclasses
import json
import math
import re
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qtmkit import (
    DegenerateMediumError,
    ExchangeTriple,
    InvalidGapError,
    InvalidRingError,
    InvalidTemperatureError,
    InvalidThetaError,
    LevelSpectrum,
    OperationalRegion,
    OutOfRegionError,
    PhysicalConstants,
    QtmDesign,
    SweepSpec,
    TwoLevelMedium,
    ValidationError,
    admissible_designs,
    alpha_bounds,
    alpha_squared,
    boundary_report,
    carnot_efficiency,
    classical_otto_efficiency,
    classify_region,
    default_rho_grid,
    efficiency,
    gap_medium,
    multilevel_exchange,
    occupation,
    otto_cycle_energies,
    ring_levels,
    ring_medium,
    run_sweep,
)
from qtmkit.cli import main

#: The repr of the int 10**400, beyond the float range.
BIG = "1" + "0" * 400

THETA_ENTRY_POINTS = {
    "classify_region": lambda t: classify_region(ExchangeTriple(2.0, -1.0), t),
    "carnot_efficiency": lambda t: carnot_efficiency(QtmDesign.QEN, t),
    "alpha_bounds": lambda t: alpha_bounds(QtmDesign.QEN, t),
    "otto_cycle_energies": lambda t: otto_cycle_energies(
        gap_medium(1.0, 2.0), 1.0, t, 1.0
    ),
    "SweepSpec": lambda t: SweepSpec(
        t_low=1.0, theta_sq=t, rho_grid=(1.0,), r_low=1e-7
    ),
    "boundary_report": boundary_report,
    "default_rho_grid": default_rho_grid,
}


@pytest.mark.parametrize("theta_sq", [1.0, 0.5, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(THETA_ENTRY_POINTS))
def test_every_theta_entry_point_raises_invalid_theta(entry, theta_sq):
    with pytest.raises(InvalidThetaError):
        THETA_ENTRY_POINTS[entry](theta_sq)


def run_sweep_cli(tmp_path, capsys, config):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code = main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "records.csv")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"t_low": None, "theta_sq": 5, "r_low": 1e-7}, "t_low"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": 3}, "rho_grid"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": "123"},
         "rho_grid"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "hbar": [1]}, "hbar"),
        # Only a JSON number is a number: not a bool, not a numeric string.
        ({"t_low": True, "theta_sq": 5, "r_low": 1e-7}, "t_low"),
        ({"t_low": 1, "theta_sq": "5", "r_low": 1e-7}, "theta_sq"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": [True, "2"]},
         "rho_grid"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": [1, "2"]},
         "rho_grid"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "hbar": "1e-34"}, "hbar"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": [True, 2.0]},
         "rho_grid"),
        # A medium kind is looked up by its value: an unknown, an unhashable
        # one and a bool are named too.
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "medium_kind": "bogus"},
         "medium_kind"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "medium_kind": [1]},
         "medium_kind"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "medium_kind": True},
         "medium_kind"),
        # An int beyond the float range.
        ({"t_low": 10 ** 400, "theta_sq": 5, "r_low": 1e-7}, "t_low"),
    ],
)
def test_wrong_type_in_config_exits_one_naming_the_key(
    tmp_path, capsys, config, key
):
    code, err = run_sweep_cli(tmp_path, capsys, config)
    assert code == 1
    assert err.startswith("qtmkit: error: ")
    assert key in err


def test_both_medium_keys_in_config_exit_one(tmp_path, capsys):
    code, err = run_sweep_cli(tmp_path, capsys, {
        "t_low": 1, "theta_sq": 5, "r_low": 1e-7, "gap_low": 1e-24,
        "rho_grid": [0.5, 1.5],
    })
    assert code == 1
    assert err.startswith("qtmkit: error: ")
    assert "r_low" in err and "gap_low" in err
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize("rho_grid, bad_rho, error", [
    ((1e-300, 0.5), "1e-300", InvalidRingError),  # radius**2 overflows
    ((0.5, 1e300), "1e+300", InvalidRingError),  # radius**2 underflows
    ((1e-150, 0.5), "1e-150", DegenerateMediumError),  # levels underflow
])
def test_extreme_rho_in_a_ring_sweep_names_the_point(rho_grid, bad_rho, error):
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=rho_grid, r_low=1e-7)
    with pytest.raises(error, match=re.escape(f"rho={bad_rho}")):
        run_sweep(spec)


@pytest.mark.parametrize("rho_grid, bad_rho", [
    ([1e-300, 0.5], "1e-300"),
    ([0.5, 1e300], "1e+300"),
])
def test_extreme_rho_in_a_ring_sweep_exits_one(tmp_path, capsys, rho_grid,
                                                bad_rho):
    code, err = run_sweep_cli(tmp_path, capsys, {
        "t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": rho_grid,
    })
    assert code == 1
    assert err.startswith("qtmkit: error: ")
    assert f"rho={bad_rho}" in err


@pytest.mark.parametrize("radius", [1e200, 1e-200, 1e-160])
def test_ring_levels_reject_a_radius_out_of_float_range(radius):
    with pytest.raises(InvalidRingError, match=re.escape(f"radius {radius!r}")):
        ring_levels(radius)


@pytest.mark.parametrize("tol", [
    math.inf, math.nan, -1e-3, "x", None, pytest.param(10**400, id="big"),
    pytest.param(Decimal("-1e-3"), id="Decimal"),
    pytest.param(Decimal("sNaN"), id="Decimal-sNaN"),
    pytest.param(Fraction(-1, 1000), id="Fraction"),
    pytest.param(np.float32("inf"), id="float32")])
def test_classify_rejects_a_non_finite_or_negative_tol(tol):
    with pytest.raises(ValidationError, match="^tol must be finite"):
        classify_region(ExchangeTriple(2.0, -1.0), 5.0, tol=tol)


def test_classify_cli_rejects_an_infinite_tol(capsys):
    code = main(["classify", "--e-high", "2", "--e-low", "-1",
                 "--theta-sq", "5", "--tol", "inf"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("qtmkit: error: tol must be finite")


@pytest.mark.parametrize("build, error, field, value", [
    (lambda: ExchangeTriple("1", -1.0), ValidationError, "e_high", "'1'"),
    (lambda: gap_medium("1", 2.0), InvalidGapError, "gap_low", "'1'"),
    (lambda: TwoLevelMedium(("a", "b"), (0, 1)), ValidationError, "low_config",
     "'a'"),
    (lambda: ExchangeTriple(10**400, -1.0), ValidationError, "e_high", BIG),
    (lambda: gap_medium(10**400, 2.0), InvalidGapError, "gap_low", BIG),
    (lambda: SweepSpec(t_low=10**400, theta_sq=5.0, rho_grid=(1.0,), r_low=1e-7),
     InvalidTemperatureError, "t_low", BIG),
    (lambda: efficiency(QtmDesign.QEN, 10**400), OutOfRegionError, "alpha_sq",
     BIG),
    (lambda: gap_medium(Decimal("sNaN"), 2.0), InvalidGapError, "gap_low",
     re.escape("Decimal('sNaN')")),
    (lambda: efficiency(QtmDesign.QEN, Decimal("sNaN")), OutOfRegionError,
     "alpha_sq", re.escape("Decimal('sNaN')")),
    (lambda: gap_medium(Decimal("1e-400"), 2.0), InvalidGapError, "gap_low",
     re.escape("Decimal('1E-400')")),
], ids=["ExchangeTriple", "gap_medium", "TwoLevelMedium", "ExchangeTriple-big",
        "gap_medium-big", "SweepSpec-big", "efficiency-big", "gap_medium-sNaN",
        "efficiency-sNaN", "gap_medium-underflow"])
def test_a_value_that_is_not_a_number_raises_the_fields_error(build, error,
                                                              field, value):
    # math.isfinite raises TypeError on a str, ValueError on a signaling NaN
    # and OverflowError on an int beyond the float range; the check turns
    # each into the caller's ValidationError, naming the field and the
    # value.  The floor is checked on the float: Decimal("1e-400") is 0.
    with pytest.raises(error, match=f"^{field} must be finite.*, got {value}$"):
        build()


@pytest.mark.parametrize("field, value, shown", [
    ("medium_kind", "quantum_ring", "'quantum_ring'"),
    ("rho_grid", ("a", "b"), "('a', 'b')"),
    ("rho_grid", (None,), "rho_grid[0]=None"),
    ("rho_grid", 3, "got 3"),
    ("rho_grid", (1.0, 10**400), "(1.0, 1000"),
    # numpy would parse these strings; an object array may hold one too.
    ("rho_grid", ("1.5", 2, b"2.5"), "('1.5', 2, b'2.5')"),
    ("rho_grid", (b"1.5",), "(b'1.5',)"),
    ("rho_grid", (Fraction(1, 2), "2"), "(Fraction(1, 2), '2')"),
    # numpy reads a bool among numbers as 1 or 0.
    ("rho_grid", [True, 2.0], "[True, 2.0]"),
], ids=["medium_kind-str", "rho_grid-str", "rho_grid-None",
        "rho_grid-int", "rho_grid-big", "rho_grid-numeric-str", "rho_grid-bytes",
        "rho_grid-object-str", "rho_grid-bool"])
def test_a_sweep_spec_field_of_the_wrong_type_names_the_field_and_value(
        field, value, shown):
    fields = {"t_low": 1.0, "theta_sq": 5.0, "r_low": 1e-7, "rho_grid": (1.0,),
              field: value}
    with pytest.raises(ValidationError, match=f"^{field} .*{re.escape(shown)}"):
        SweepSpec(**fields)


@pytest.mark.parametrize("value", ["QEN", None, [1], OperationalRegion.PUMPERS],
                         ids=["str", "None", "unhashable", "region"])
@pytest.mark.parametrize("lookup", [
    lambda design: efficiency(design, 2.0),
    lambda design: carnot_efficiency(design, 5.0),
    lambda design: alpha_bounds(design, 5.0),
], ids=["efficiency", "carnot_efficiency", "alpha_bounds"])
def test_a_catalog_lookup_by_anything_but_a_design_names_the_value(lookup, value):
    with pytest.raises(ValidationError) as info:
        lookup(value)
    assert str(info.value) == f"design must be a QtmDesign, got {value!r}"


@pytest.mark.parametrize("value", ["OutTransfers", None, [1], QtmDesign.QEN],
                         ids=["str", "None", "unhashable", "design"])
def test_admissible_designs_of_anything_but_a_region_names_the_value(value):
    with pytest.raises(ValidationError) as info:
        admissible_designs(value)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"region must be an OperationalRegion, got {value!r}"


SPECTRUM = LevelSpectrum((0.0, 0.7, 1.9))

#: Each public numeric entry, given its numbers as ``n(text)``.
SCALAR_ENTRIES = {
    "efficiency": lambda n: efficiency(QtmDesign.QEN, n("2.3")),
    "efficiency-2acq": lambda n: efficiency(QtmDesign.QCO, n("0.15")),
    "carnot_efficiency": lambda n: carnot_efficiency(QtmDesign.QHP, n("5.3")),
    "alpha_bounds": lambda n: alpha_bounds(QtmDesign.QCO, n("5.3")),
    "classical_otto_efficiency": lambda n: classical_otto_efficiency(n("1.7")),
    "classify_region-theta_sq": lambda n: classify_region(
        ExchangeTriple(1.0, -0.45), n("2.3")),
    # Within 0.1 * 1.05 of alpha_sq = 1.05 lies the threshold 1: the band
    # is taken, so the region depends on the tol.
    "classify_region-tol": lambda n: classify_region(
        ExchangeTriple(1.05, -1.0), 5.0, n("0.1")),
    "alpha_squared": lambda n: alpha_squared(ExchangeTriple(n("1.3"), n("-0.7"))),
    "ExchangeTriple": lambda n: ExchangeTriple(n("0.7"), n("-0.3")),
    "boundary_report": lambda n: boundary_report(n("5.3")),
    "ring_levels": lambda n: ring_levels(n("1.7"), PhysicalConstants.reduced()),
    "ring_medium": lambda n: ring_medium(n("1e-7"), n("5e-8")),
    "gap_medium": lambda n: gap_medium(n("0.9"), n("2.3"), n("0.1"), n("-0.6")),
    "TwoLevelMedium": lambda n: TwoLevelMedium((n("0.1"), n("1.1")),
                                               (n("-0.6"), n("2.9"))),
    "LevelSpectrum": lambda n: LevelSpectrum((n("0"), n("0.7"), n("1.9"))),
    "occupation": lambda n: occupation(SPECTRUM, n("1.3"), n("0.9")),
    "otto_cycle_energies": lambda n: otto_cycle_energies(
        gap_medium(n("0.9"), n("2.3")), n("0.7"), n("5.3"), n("1.1")),
    "multilevel_exchange": lambda n: multilevel_exchange(
        SPECTRUM, n("1.3"), n("0.6"), n("0.9")),
}


def leaves(result) -> list:
    """What a result holds, flattened: a value type by its fields, a tuple
    by its items, a float64 array by its floats."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, np.ndarray):
        assert result.dtype == np.float64
        result = result.tolist()
    if isinstance(result, (tuple, list)):
        return [leaf for item in result for leaf in leaves(item)]
    return [result]


@pytest.mark.parametrize("number", [
    np.float32, Decimal, Fraction, lambda text: round(float(text)), np.float64],
    ids=["float32", "Decimal", "Fraction", "int", "float64"])
@pytest.mark.parametrize("entry", SCALAR_ENTRIES.values(), ids=SCALAR_ENTRIES)
def test_a_public_entry_computes_with_the_float_of_any_number_type(entry, number):
    # The sweep's rule for other number types, over the scalar API: a
    # float32 once gave float32 results, or a false gap error where a ring
    # level underflowed in float32; a Decimal raised a bare TypeError; a
    # Fraction gave a Fraction.  A number is taken as its float, and the
    # result is the call on that float, bit for bit.
    try:
        want = leaves(entry(lambda text: float(number(text))))
    except ValidationError as exc:  # an int may round to an invalid value
        with pytest.raises(type(exc)):
            entry(number)
        return
    got = leaves(entry(number))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, float):
            assert type(a) is type(b) is float
            assert struct.pack("<d", a) == struct.pack("<d", b)
        else:  # an enum member
            assert a is b


@pytest.mark.parametrize("entry", SCALAR_ENTRIES.values(), ids=SCALAR_ENTRIES)
def test_a_public_entry_rejects_a_bool_as_it_rejects_any_non_number(entry):
    # A bool was once taken as 1.0 or 0.0, though the records and the sweep
    # config never took one.  It now fails the first checked field with that
    # field's own error, word for word as a None does.
    with pytest.raises(ValidationError) as none:
        entry(lambda text: None)
    with pytest.raises(ValidationError) as info:
        entry(lambda text: True)
    assert type(info.value) is type(none.value)
    assert str(info.value) == str(none.value).replace("got None", "got True")
