"""One rule per input: every theta_sq entry point raises the same class; a
sweep config or constants file with a wrong type or an unknown key exits 1
with a message that names the key; a grid point whose medium leaves the
float range raises the medium's own error, naming that point; a classifier
tolerance must be finite and non-negative; a value that is not a number
raises the checked field's own error; a sweep spec field of the wrong type
is rejected by name; a catalog lookup by anything but a design or region
member names the value."""

import json
import math
import re
from fractions import Fraction

import pytest

from qtmkit import (
    DegenerateMediumError,
    ExchangeTriple,
    InvalidGapError,
    InvalidRingError,
    InvalidTemperatureError,
    InvalidThetaError,
    OperationalRegion,
    OutOfRegionError,
    QtmDesign,
    SweepSpec,
    TwoLevelMedium,
    ValidationError,
    admissible_designs,
    alpha_bounds,
    boundary_report,
    carnot_efficiency,
    classify_region,
    default_rho_grid,
    efficiency,
    gap_medium,
    otto_cycle_energies,
    ring_levels,
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


def test_unknown_key_in_constants_file_exits_one(tmp_path, capsys,
                                                  monkeypatch):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"boltzman_k": 2}))
    monkeypatch.setenv("QTM_CONSTANTS", str(constants))
    code, err = run_sweep_cli(
        tmp_path, capsys, {"t_low": 1, "theta_sq": 5, "r_low": 1e-7}
    )
    assert code == 1
    assert "boltzman_k" in err


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


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-3, "x", None,
                                 pytest.param(10**400, id="big")])
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
], ids=["ExchangeTriple", "gap_medium", "TwoLevelMedium", "ExchangeTriple-big",
        "gap_medium-big", "SweepSpec-big", "efficiency-big"])
def test_a_value_that_is_not_a_number_raises_the_fields_error(build, error,
                                                              field, value):
    # math.isfinite raises TypeError on a str and OverflowError on an int
    # beyond the float range; the check turns either into the caller's
    # ValidationError, naming the field and the value.
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
], ids=["medium_kind-str", "rho_grid-str", "rho_grid-None",
        "rho_grid-int", "rho_grid-big", "rho_grid-numeric-str", "rho_grid-bytes",
        "rho_grid-object-str"])
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
